"""Every table kind has a Hessian kernel, run block by block like its other kernels.

It matches the finite-difference Jacobian of the currents, and for the
linear induction machine it is exactly the constant inverse inductance
matrix.
"""

import numpy as np
import pytest

from enermach import energy, validate
from enermach.config import load_config
from helpers import CONFIG_DIR

CONFIGS = ["harmonic_ipm", "im_2kw", "linear_ipm", "saturated_ipm", "saturated_spm", "synrm"]


def _model(name):
    return load_config(CONFIG_DIR / f"{name}.yaml").model


def _states(m, n, seed=3):
    """``n`` states drawn inside the model's default box, clear of its edges."""
    box = validate.default_box(m)
    inside = validate.SampleBox(box.phi_center, 0.9 * box.phi_half, box.theta_half, box.rho_half)
    return inside.draw(np.random.default_rng(seed), n)


def _hessian(m, theta, rho, phi):
    """The Hessian kernel's outputs (j <= k) as a full (..., dim, dim) matrix."""
    dim = m.flux_dim
    out = iter(m._run(m._hessian_kernel, theta, rho, phi))
    h = np.empty((*np.broadcast(theta, rho, phi[..., 0]).shape, dim, dim))
    for j in range(dim):
        for k in range(j, dim):
            h[..., j, k] = h[..., k, j] = next(out)
    return h


# ---------------------------------------------------------------------------
# the Hessian kernel of every kind is the Jacobian of the currents


@pytest.mark.parametrize("name", CONFIGS)
def test_hessian_kernel_matches_the_jacobian_of_the_currents(name):
    m = _model(name)
    theta, rho, phi = _states(m, 2000)
    jac = np.moveaxis(validate._jacobian(m, theta, rho, phi, 1.0e-5), -1, 0)  # [sample, j, k]
    hess = _hessian(m, theta, rho, phi)
    assert np.max(np.abs(hess - jac)) <= 1.0e-10 * np.max(np.abs(jac))


def test_hessian_of_a_block_cut_batch_equals_its_states_one_by_one():
    m = _model("harmonic_ipm")
    n = 2 * energy._BLOCK + 3
    theta, rho, phi = _states(m, n)
    whole = _hessian(m, theta, rho, phi)
    for k in (0, energy._BLOCK - 1, energy._BLOCK, n - 1):
        assert whole[k].tobytes() == _hessian(m, float(theta[k]), float(rho[k]), phi[k]).tobytes()


# ---------------------------------------------------------------------------
# the induction machine's Hessian is its constant inverse inductance matrix


def test_im_hessian_is_exactly_the_inverse_inductance_matrix():
    m = _model("im_2kw")
    p = m.params
    s, r, c = p.L_r / p.det, p.L_s / p.det, -p.L_m / p.det
    expected = np.array([[s, 0.0, c, 0.0], [0.0, s, 0.0, c], [c, 0.0, r, 0.0], [0.0, c, 0.0, r]])
    theta, rho, phi = _states(m, 100)
    hess = _hessian(m, theta, rho, phi)
    assert hess.tobytes() == np.broadcast_to(expected, hess.shape).tobytes()
