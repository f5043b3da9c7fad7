"""Every layer gives the same numbers at the same state.

A simulated run records currents, speed and torque next to the state.
Those columns must equal what the model methods, ``torque()`` and the
``ripple`` sampler return at the recorded states, for every shipped machine.
"""

import numpy as np
import pytest
import yaml

from enermach.config import MotorConfig
from enermach.dynamics import simulate_im, simulate_pmsm
from enermach.energy import torque
from enermach.harmonics import ripple_torque
from helpers import CONFIG_DIR

SHIPPED = ("linear_ipm", "synrm", "saturated_ipm", "saturated_spm", "harmonic_ipm", "im_2kw")


def _short_run(name, steps=2000, stride=100):
    with open(CONFIG_DIR / f"{name}.yaml") as f:
        raw = yaml.safe_load(f)
    raw["sim"]["t_end"] = steps * raw["sim"]["dt"]
    raw["sim"]["record_stride"] = stride
    cfg = MotorConfig(raw)
    if cfg.model.flux_dim == 4:
        traj = simulate_im(cfg.model.params, cfg.initial, cfg.drive, cfg.sim)
    else:
        traj = simulate_pmsm(cfg.model, cfg.initial, cfg.drive, cfg.sim)
    return cfg.model, traj


def _assert_close(got, want, label):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1.0e-300)
    assert np.max(np.abs(got - want)) <= 1.0e-12 * scale, label


@pytest.mark.parametrize("name", SHIPPED)
def test_recorded_columns_match_the_model(name):
    m, traj = _short_run(name)
    theta, rho, phi = traj.column("theta"), traj.column("rho"), traj.flux()
    current_columns = ("i_d", "i_q", "i_rd", "i_rq")[: m.flux_dim]
    recorded_i = np.stack([traj.column(c) for c in current_columns], axis=-1)
    _assert_close(recorded_i, m.d_flux(theta, rho, phi), f"{name}: currents")
    _assert_close(traj.column("omega"), m.d_rho(theta, rho, phi), f"{name}: omega")
    recorded_torque = traj.column("torque")
    assert np.max(np.abs(recorded_torque)) > 0.0, f"{name}: the run must produce torque"
    _assert_close(recorded_torque, torque(m, theta, rho, phi), f"{name}: torque")


@pytest.mark.parametrize("name", SHIPPED)
def test_ripple_matches_the_recorded_torque(name):
    # the last row: every shipped initial state has zero torque
    m, traj = _short_run(name)
    k = len(traj) - 1
    theta, rho, phi = traj.column("theta")[k], traj.column("rho")[k], traj.flux()[k]
    grid = theta + np.linspace(0.0, np.pi / 3.0, 7)
    recorded = traj.column("torque")[k]
    assert recorded != 0.0, f"{name}: the run must produce torque"
    assert abs(ripple_torque(m, grid, rho, phi)[0] - recorded) <= 1.0e-12 * abs(recorded), name
