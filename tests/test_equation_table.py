"""The simulator's equation table against the energy identity.

Along the table's slopes f, dH/dt = grad H . f must equal the table's
p_in - p_diss - p_mech at every state, for every shipped machine: the
frame terms do no work.  The test reads the table through the function the
generator and power_balance read it by, and restates none of its lines; a
copy of the table with one frame term's sign flipped must fail.
"""

import warnings

import numpy as np
import pytest

from enermach import dynamics
from enermach.config import load_config
from enermach.energy import _CURRENT_NAMES, _FLUX_NAMES, SaturationRangeWarning, torque
from enermach.validate import default_box

from helpers import CONFIG_DIR

CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))
TOL = 1.0e-12


def _worst(config: str, table: dict, n: int = 1000, seed: int = 11) -> float:
    """The largest |grad H . f - (p_in - p_diss - p_mech)| over n states, relative to the power exchanged there."""
    cfg = load_config(CONFIG_DIR / f"{config}.yaml")
    m = cfg.model
    rng = np.random.default_rng(seed)
    theta, rho, phi = default_box(m).draw(rng, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        i, omega, h_theta = m.gradient(theta, rho, phi)
        te = torque(m, theta, rho, phi)
    R_s, R_r = dynamics._resistances(m)
    env = {
        "theta": theta,
        "rho": rho,
        **dict(zip(_FLUX_NAMES, phi.T)),
        **dict(zip(_CURRENT_NAMES, i.T)),
        "omega": omega,
        "h_theta": h_theta,
        "te": te,
        "u_d": rng.uniform(-100.0, 100.0, n),
        "u_q": rng.uniform(-100.0, 100.0, n),
        "t_load": rng.uniform(-5.0, 5.0, n),
        "n_p": float(m.pole_pairs),
        "R_s": R_s,
        "R_r": R_r,
        "nR_r": -R_r,
        "omega_s": cfg.sim.omega_s,
    }
    slip, slopes, powers = dynamics._equations(m.flux_dim, table)
    for line in slip:
        exec(line, {}, env)
    f = [eval(e, {}, env) for e in slopes]
    p = {name: eval(e, {}, env) for name, e in powers.items()}
    dH = sum(g * fk for g, fk in zip((h_theta, omega, *i.T), f))
    exchanged = np.abs(p["p_in"]) + p["p_diss"] + np.abs(p["p_mech"])
    return float(np.max(np.abs(dH - (p["p_in"] - p["p_diss"] - p["p_mech"])) / exchanged))


def test_the_induction_machine_is_checked_in_a_turning_frame():
    assert load_config(CONFIG_DIR / "im_2kw.yaml").sim.omega_s != 0.0


@pytest.mark.parametrize("config", CONFIGS)
def test_the_table_keeps_the_energy_identity(config):
    assert _worst(config, dynamics._EQUATIONS) <= TOL


def _flipped(key: str) -> dict:
    """The table with the sign of ``key``'s last term, its frame term, flipped."""
    table = dict(dynamics._EQUATIONS)
    slope = table[key]
    k = max(slope.rfind(" + "), slope.rfind(" - "))
    table[key] = slope[:k] + {" + ": " - ", " - ": " + "}[slope[k : k + 3]] + slope[k + 3 :]
    return table


@pytest.mark.parametrize(
    "config, key",
    [*((c, k) for c in CONFIGS for k in ("phi_d", "phi_q")), ("im_2kw", "phi_rd"), ("im_2kw", "phi_rq")],
)
def test_a_flipped_frame_term_breaks_the_identity(config, key):
    assert _worst(config, _flipped(key)) > 1.0e-3
