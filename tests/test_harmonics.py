import pickle

import numpy as np
import pytest

from enermach.energy import currents, numeric_gradient, torque
from enermach.harmonics import (
    FluxPolynomial,
    HarmonicModel,
    HarmonicTerm,
    ZeroAxisSeries,
    harmonic_energy,
    neutral_voltage,
    ripple_torque,
)
from helpers import ipm_harmonic_model, ipm_saturation


def _model():
    return harmonic_energy(ipm_harmonic_model())


def test_polynomial_value_and_grad():
    p = FluxPolynomial({(0, 0): 2.0, (1, 0): 3.0, (2, 2): -1.5})
    x, y = 0.4, -0.2
    assert p.value(x, y) == pytest.approx(2.0 + 3.0 * x - 1.5 * x**2 * y**2, rel=1e-15)
    gx, gy = p.grad(x, y)
    assert gx == pytest.approx(3.0 - 3.0 * x * y**2, rel=1e-15)
    assert gy == pytest.approx(-3.0 * x**2 * y, rel=1e-15)


def test_polynomials_pickle_after_their_kernels_ran():
    p = FluxPolynomial({(0, 0): 2.0, (1, 0): 3.0, (2, 2): -1.5})
    value, grad = p.value(0.4, -0.2), p.grad(0.4, -0.2)
    clone = pickle.loads(pickle.dumps(p))
    assert clone == p
    assert clone.value(0.4, -0.2).tobytes() == value.tobytes()
    assert np.array(clone.grad(0.4, -0.2)).tobytes() == np.array(grad).tobytes()


def test_polynomial_degree_cap():
    with pytest.raises(ValueError, match="degree"):
        FluxPolynomial({(3, 2): 1.0})


def test_harmonic_term_parity_enforced():
    with pytest.raises(ValueError, match=r"a_poly\[1,1\]"):
        HarmonicTerm(k=1, a_poly=FluxPolynomial({(1, 1): 0.3}))
    with pytest.raises(ValueError, match=r"b_poly\[0,2\]"):
        HarmonicTerm(k=1, b_poly=FluxPolynomial({(0, 2): 0.3}))
    with pytest.raises(ValueError, match="positive integer"):
        HarmonicTerm(k=0)


def test_duplicate_orders_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        HarmonicModel(base=ipm_saturation(), terms=(HarmonicTerm(k=1), HarmonicTerm(k=1)))


def test_energy_is_pi_third_periodic():
    m = _model()
    rng = np.random.default_rng(31)
    theta = rng.uniform(-6.0, 6.0, 2000)
    rho = rng.uniform(-0.1, 0.1, 2000)
    phi_M = m.params.phi_M
    phi = np.stack(
        [
            phi_M + rng.uniform(-phi_M, phi_M, 2000),
            rng.uniform(-phi_M, phi_M, 2000),
        ],
        axis=-1,
    )
    h1 = m.evaluate(theta, rho, phi)
    h2 = m.evaluate(theta + np.pi / 3.0, rho, phi)
    assert np.max(np.abs(h1 - h2)) <= 1e-12 * np.max(np.abs(h1))


def test_parity_with_angle_terms():
    m = _model()
    rng = np.random.default_rng(32)
    theta = rng.uniform(-6.0, 6.0, 2000)
    rho = rng.uniform(-0.1, 0.1, 2000)
    phi_M = m.params.phi_M
    phi = np.stack(
        [
            phi_M + rng.uniform(-phi_M, phi_M, 2000),
            rng.uniform(-phi_M, phi_M, 2000),
        ],
        axis=-1,
    )
    h1 = m.evaluate(theta, rho, phi)
    h2 = m.evaluate(-theta, -rho, phi * np.array([1.0, -1.0]))
    assert np.max(np.abs(h1 - h2)) <= 1e-12 * np.max(np.abs(h1))


def test_gradients_against_finite_differences():
    m = _model()
    phi_M = m.params.phi_M
    rng = np.random.default_rng(33)
    for _ in range(150):
        theta = rng.uniform(-6.0, 6.0)
        rho = rng.uniform(-0.1, 0.1)
        phi = np.array(
            [
                phi_M + rng.uniform(-0.9, 0.9) * phi_M,
                rng.uniform(-0.9, 0.9) * phi_M,
            ]
        )
        g_fd = numeric_gradient(lambda v: float(m.evaluate(theta, rho, v)), phi)
        g = m.d_flux(theta, rho, phi)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1e-9)
        dth_fd = numeric_gradient(lambda v: float(m.evaluate(v[0], rho, phi)), np.array([theta]))
        dth = float(m.d_theta(theta, rho, phi))
        assert abs(dth - dth_fd[0]) <= 1e-5 * max(abs(dth), abs(dth_fd[0]), 1e-7)


def test_torque_and_currents_ripple_period():
    m = _model()
    theta = np.linspace(0.0, 2.0 * np.pi, 721)
    phi = np.array([m.params.phi_M + 0.05, 0.08])
    t = ripple_torque(m, theta, 0.0, phi)
    t_shift = ripple_torque(m, theta + np.pi / 3.0, 0.0, phi)
    assert np.max(np.abs(t - t_shift)) <= 1e-12 * np.max(np.abs(t))
    i = currents(m, theta, 0.0, phi)
    i_shift = currents(m, theta + np.pi / 3.0, 0.0, phi)
    assert np.max(np.abs(i - i_shift)) <= 1e-12 * np.max(np.abs(i))


def test_torque_spectrum_only_multiples_of_six():
    m = _model()
    n = 360
    theta = np.arange(n) * (2.0 * np.pi / n)
    phi = np.array([m.params.phi_M + 0.05, 0.08])
    t = torque(m, theta, 0.0, phi)
    spec = np.abs(np.fft.rfft(t))
    peak = spec.max()
    for k, amp in enumerate(spec):
        if k % 6 != 0:
            assert amp < 1e-10 * peak, f"unexpected energy in bin {k}"


def test_cogging_only_term():
    # flux-independent cos term: pure angle ripple, no current signature
    base = ipm_saturation()
    amp = 5.0e-3
    model = harmonic_energy(
        HarmonicModel(base=base, terms=(HarmonicTerm(k=1, a_poly=FluxPolynomial({(0, 0): amp})),))
    )
    theta = np.linspace(0.0, np.pi, 500)
    phi = np.array([base.phi_M, 0.0])
    t = torque(model, theta, 0.0, phi)
    assert np.max(np.abs(t - 6.0 * base.n_p * amp * np.sin(6.0 * theta))) < 1e-12
    plain = currents(harmonic_energy(HarmonicModel(base=base)), theta, 0.0, phi)
    assert np.max(np.abs(currents(model, theta, 0.0, phi) - plain)) == 0.0


def test_ripple_grid_must_cover_period():
    m = _model()
    with pytest.raises(ValueError, match="pi/3"):
        ripple_torque(m, np.linspace(0.0, 0.5, 50), 0.0, np.array([0.2, 0.0]))


def test_zero_axis_series_period():
    z = ZeroAxisSeries(cos_coeffs=(4.0e-3, 1.0e-3), sin_coeffs=(2.0e-3,))
    theta = np.linspace(-5.0, 5.0, 400)
    assert np.max(np.abs(z.value(theta) - z.value(theta + 2.0 * np.pi / 3.0))) < 1e-15
    h = 1e-7
    fd = (z.value(theta + h) - z.value(theta - h)) / (2.0 * h)
    assert np.max(np.abs(fd - z.d_theta(theta))) < 1e-6


def test_neutral_voltage_closed_form():
    m = _model()
    z = m.harmonic_model.zero_axis
    kappa = m.params.kinetic_coeff
    omega = 300.0
    rho = omega / kappa
    t = np.linspace(0.0, 0.05, 2001)
    theta = omega * t
    v = neutral_voltage(m, t, theta, np.full_like(t, rho), v_s0=0.0)
    expected = -z.d_theta(theta) * omega / np.sqrt(3.0)
    assert np.max(np.abs(v - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the star point repeats every 2*pi/3 of rotor angle
    v_shift = neutral_voltage(
        m, t, theta + 2.0 * np.pi / 3.0, np.full_like(t, rho), v_s0=0.0
    )
    assert np.max(np.abs(v - v_shift)) <= 1e-12 * np.max(np.abs(v))
    # a zero-axis source shifts the star point by v_s0/sqrt(3)
    v_src = neutral_voltage(m, t, theta, np.full_like(t, rho), v_s0=12.0)
    assert np.max(np.abs((v_src - v) - 12.0 / np.sqrt(3.0))) < 1e-12


def test_neutral_voltage_requires_zero_axis():
    model = harmonic_energy(HarmonicModel(base=ipm_saturation()))
    with pytest.raises(ValueError, match="zero-axis"):
        neutral_voltage(model, np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_neutral_voltage_rejects_non_finite_times_by_entry(bad):
    # a NaN time would pass the ordering check on its own: NaN compares False
    m = _model()
    with pytest.raises(ValueError, match=rf"^t\[1\] must be finite, got {bad}$"):
        neutral_voltage(m, [0.0, bad, 2.0e-3], [0.0, 0.1, 0.2], [1.0, 1.0, 1.0])


def test_neutral_voltage_requires_increasing_time():
    m = _model()
    with pytest.raises(ValueError, match="increasing"):
        neutral_voltage(m, np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
