"""The table of dq identities in frames, against the phase algebra it comes from,
and validate's identities compared on the magnetic energy.

The construction symmetries act on the phase flux psi and the rotor angle;
the dq flux (k_matrix(theta) @ psi)[:2] shows what each leaves of them.  A
mutation that breaks the pi/3 period fails check_period whatever the rotor's
inertia, because the kinetic energy no longer enters the scale.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from enermach.config import load_config
from enermach.energy import PolynomialEnergy, kinetic_coefficient
from enermach.frames import DQ_IDENTITIES, PERMUTE, SWAP_BC, k_matrix
from enermach.saturation import _magnet_table
from enermach.validate import check_parity, check_period
from helpers import CONFIG_DIR

# the worst of these dq maps measured 9.4e-16 on unit phase flux
ATOL = 4.0e-15


def _states(n=200, seed=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-7.0, 7.0, n), rng.uniform(-1.0, 1.0, (n, 3))


def _dq(theta, psi):
    return (k_matrix(theta) @ psi)[:2]


@pytest.mark.parametrize(
    "shift,phase_map",
    [
        (2.0 * math.pi / 3.0, PERMUTE.T),  # the phase pitch
        (math.pi, -np.eye(3)),  # the pole pitch, every current reversed
        (math.pi / 3.0, -PERMUTE),  # the two composed: the ripple period
    ],
    ids=["cyclic", "reversal", "period"],
)
def test_a_turn_with_its_phase_map_keeps_the_dq_flux(shift, phase_map):
    for theta, psi in zip(*_states()):
        assert np.allclose(_dq(theta + shift, phase_map @ psi), _dq(theta, psi), rtol=0.0, atol=ATOL)


def test_the_bc_swap_mirrors_the_dq_flux():
    for theta, psi in zip(*_states()):
        phi_d, phi_q = _dq(theta, psi)
        assert np.allclose(_dq(-theta, SWAP_BC @ psi), [phi_d, -phi_q], rtol=0.0, atol=ATOL)


def test_the_period_and_parity_images_are_these_dq_maps():
    thetas, psis = _states()
    phi = np.array([_dq(theta, psi) for theta, psi in zip(thetas, psis)])
    rho = np.linspace(-3.0, 3.0, thetas.size)
    theta_p, rho_p, phi_p = DQ_IDENTITIES["period"].image(thetas, rho, phi, None)
    assert theta_p.tobytes() == (thetas + math.pi / 3.0).tobytes()
    assert rho_p is rho and phi_p is phi
    want = [_dq(theta, -PERMUTE @ psi) for theta, psi in zip(theta_p, psis)]
    assert np.allclose(phi_p, want, rtol=0.0, atol=ATOL)
    theta_s, rho_s, phi_s = DQ_IDENTITIES["parity"].image(thetas, rho, phi, None)
    assert theta_s.tobytes() == (-thetas).tobytes() and rho_s.tobytes() == (-rho).tobytes()
    assert phi_s.tobytes() == np.stack([phi[:, 0], -phi[:, 1]], axis=-1).tobytes()
    want = [_dq(theta, SWAP_BC @ psi) for theta, psi in zip(theta_s, psis)]
    assert np.allclose(phi_s, want, rtol=0.0, atol=ATOL)


def test_only_the_rotation_draws_angles():
    assert [name for name, entry in DQ_IDENTITIES.items() if entry.draw] == ["im_rotation"]
    eta = DQ_IDENTITIES["im_rotation"].draw(np.random.default_rng(0), 5)
    assert eta.tobytes() == np.random.default_rng(0).uniform(-math.pi, math.pi, 5).tobytes()


# ---------------------------------------------------------------------------
# the identities compare the magnetic energy, whatever the rotor's inertia

SATURATED = load_config(CONFIG_DIR / "saturated_ipm.yaml")
_N_P = SATURATED.model.params.n_p
# the kinetic coefficient of each rotor
ROTORS = {
    "shipped": SATURATED.model.params.kinetic_coeff,
    "J=10": kinetic_coefficient(10.0, _N_P),
    "J=1000": kinetic_coefficient(1000.0, _N_P),
    "kappa=1e-6": 1.0e-6,
    "J=1e200": kinetic_coefficient(1.0e200, _N_P),
}


def _ripple_mutant(rotor, eps):
    """saturated_ipm with an order-4 cos row on x**2 of eps times the d-axis well: no pi/3 period."""
    c = dataclasses.replace(SATURATED.model.params, kinetic_coeff=ROTORS[rotor])
    m = PolynomialEnergy(*_magnet_table(c, [(4.0, {(2, 0): eps * 0.5 * c.inv_L_d}, {})]))
    m.params = c
    return m


def _period(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return check_period(m, n_samples=4000, tol=1.0e-10, seed=SATURATED.seed)


@pytest.mark.parametrize("eps", [1.0e-8, 1.0e-6, 1.0e-3])
@pytest.mark.parametrize("rotor", ["J=10", "J=1000"])
def test_a_heavy_rotor_cannot_hide_a_broken_period(rotor, eps):
    assert not _period(_ripple_mutant(rotor, eps)).passed


def test_the_largest_passing_break_is_the_same_at_every_inertia():
    largest = {}
    for rotor in ROTORS:
        passing = [e for e in range(-12, 1) if _period(_ripple_mutant(rotor, 10.0**e)).passed]
        largest[rotor] = max(passing, default=None)
    assert set(largest.values()) == {largest["shipped"]}, largest
    assert largest["shipped"] is not None and largest["shipped"] < -8


def test_the_compared_state_is_at_zero_momentum():
    m = SATURATED.model
    for check in (check_period, check_parity):
        report = check(m, n_samples=64, seed=1)
        assert report.worst_point["rho"] == 0.0
        assert math.copysign(1.0, report.worst_point["rho"]) == 1.0
