"""The fused gradient, the default gradient of the contract, and the range warning."""

import warnings

import numpy as np
import pytest

from enermach.dynamics import Drive, LinearLoad, SimConfig, SinusoidVoltage, simulate
from enermach.energy import MachineState, linear_energy, synrm_energy
from enermach.harmonics import harmonic_energy
from enermach.induction import im_energy
from enermach.saturation import SaturationRangeWarning, saturated_energy
from enermach.validate import default_box
from helpers import (
    _Delegate,
    im_params,
    ipm_harmonic_model,
    ipm_linear_params,
    ipm_saturation,
    synrm_params,
)

MODELS = {
    "linear": lambda: linear_energy(ipm_linear_params()),
    "synrm": lambda: synrm_energy(synrm_params()),
    "saturated": lambda: saturated_energy(ipm_saturation()),
    "harmonic": lambda: harmonic_energy(ipm_harmonic_model()),
    "induction": lambda: im_energy(im_params()),
}


def _assert_close(got, want, rel):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1.0e-300)
    assert np.max(np.abs(got - want)) <= rel * scale


@pytest.mark.parametrize("kind", MODELS)
def test_gradient_matches_separate_derivatives(kind):
    m = MODELS[kind]()
    theta, rho, phi = default_box(m).draw(np.random.default_rng(5), 64)
    one_state = (float(theta[0]), float(rho[0]), phi[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        for args in (one_state, (theta, rho, phi)):
            i, omega, h_theta = m.gradient(*args)
            _assert_close(i, m.d_flux(*args), 1.0e-13)
            _assert_close(omega, m.d_rho(*args), 1.0e-13)
            _assert_close(h_theta, m.d_theta(*args), 1.0e-13)


@pytest.mark.parametrize("kind", MODELS)
def test_default_gradient_simulates_like_the_model(kind):
    # _Delegate implements only the four abstract methods, so the simulator
    # reaches it through EnergyModel.gradient
    m = MODELS[kind]()
    kappa = m.params.kinetic_coeff
    phi0 = np.zeros(4) if m.flux_dim == 4 else np.array([m.params.phi_M + 0.02, 0.01])
    state0 = MachineState(0.2, 30.0 / kappa, phi0)
    drive = Drive(SinusoidVoltage(amp_d=20.0, amp_q=40.0, freq_hz=50.0), LinearLoad(0.1, 1.0e-3))
    cfg = SimConfig(dt=1.0e-5, t_end=2.0e-3, record_stride=20, omega_s=2.0 * np.pi * 50.0)
    bare = simulate(m, state0, drive, cfg)
    wrapped = simulate(_Delegate(m), state0, drive, cfg)
    assert bare.columns == wrapped.columns
    scale = np.maximum(np.max(np.abs(bare.data), axis=0), 1.0e-300)
    assert np.all(np.abs(wrapped.data - bare.data) <= 1.0e-12 * scale)


@pytest.mark.parametrize("kind", ["saturated", "harmonic"])
def test_fitted_models_warn_outside_the_box_only(kind):
    m = MODELS[kind]()
    phi_M = m.params.phi_M
    inside = np.array([1.5 * phi_M, -0.5 * phi_M])
    outside = np.array([2.5 * phi_M, 0.0])
    for method in (m.evaluate, m.d_flux, m.gradient):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SaturationRangeWarning)
            method(0.1, 0.0, inside)
            method(np.zeros(3), np.zeros(3), np.tile(inside, (3, 1)))
        with pytest.warns(SaturationRangeWarning):
            method(0.1, 0.0, outside)
        with pytest.warns(SaturationRangeWarning):
            method(np.zeros(2), np.zeros(2), np.stack([inside, outside]))


@pytest.mark.parametrize("kind", ["linear", "synrm"])
def test_linear_models_never_warn(kind):
    m = MODELS[kind]()
    far = np.array([[10.0, -10.0], [-3.0, 7.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", SaturationRangeWarning)
        for method in (m.evaluate, m.d_flux, m.d_theta, m.gradient):
            method(0.1, 0.0, far[0])
            method(np.zeros(2), np.zeros(2), far)


def test_one_state_range_check_does_no_reduction(monkeypatch):
    m = MODELS["harmonic"]()
    phi_M = m.params.phi_M

    def reduction(*args, **kwargs):
        raise AssertionError("array reduction on a single state")

    monkeypatch.setattr(np, "max", reduction)
    m.gradient(0.1, 0.0, [1.5 * phi_M, -0.5 * phi_M])
    with pytest.warns(SaturationRangeWarning):
        m.gradient(0.1, 0.0, np.array([2.5 * phi_M, 0.0]))
