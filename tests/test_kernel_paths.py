"""The zero-axis series and the incremental inductance run on the table kernel,
and every generated function, torque() included, is written from one template
and kept in energy._CODES by its text."""

import pickle
import warnings

import numpy as np
import pytest

from enermach import energy
from enermach.energy import SaturationRangeWarning, torque
from enermach.harmonics import ZeroAxisSeries
from enermach.saturation import SaturatedPmsmEnergy, incremental_inductance

from helpers import IPM_PHI_M, ipm_harmonic_model, ipm_linear_params, ipm_saturation

SERIES = [
    ZeroAxisSeries(),
    ipm_harmonic_model().zero_axis,
    ZeroAxisSeries((0.0, -1.0, 2.5), (0.5, 0.0, 1.0e-3, 7.0)),
    ZeroAxisSeries((), (0.25,)),
]


def _fourier(series, theta):
    """phi0 and dphi0/dtheta as the hand-written Fourier loops the kernel replaced."""
    theta = np.asarray(theta, dtype=float)
    value, slope = np.zeros(theta.shape), np.zeros(theta.shape)
    for m, c in enumerate(series.cos_coeffs, start=1):
        value = value + c * np.cos(3.0 * m * theta)
        slope = slope - 3.0 * m * c * np.sin(3.0 * m * theta)
    for m, s in enumerate(series.sin_coeffs, start=1):
        value = value + s * np.sin(3.0 * m * theta)
        slope = slope + 3.0 * m * s * np.cos(3.0 * m * theta)
    return value, slope


@pytest.mark.parametrize("series", SERIES, ids=["empty", "ipm", "mixed", "sin-only"])
@pytest.mark.parametrize(
    "theta", [np.linspace(-20.0, 20.0, 401), 0.37, np.full((3, 4), -1.25e3)], ids=["grid", "float", "2d"]
)
def test_the_series_kernel_gives_the_fourier_loops_values_bit_for_bit(series, theta):
    value, slope = _fourier(series, theta)
    got_value, got_slope = series.value(theta), series.d_theta(theta)
    assert np.shape(got_value) == value.shape and np.shape(got_slope) == slope.shape
    assert np.asarray(got_value).tobytes() == value.tobytes()
    assert np.asarray(got_slope).tobytes() == slope.tobytes()


def test_a_series_pickled_after_it_was_evaluated_evaluates_alike():
    series = SERIES[2]
    theta = np.linspace(-3.0, 3.0, 61)
    value, slope = series.value(theta), series.d_theta(theta)
    clone = pickle.loads(pickle.dumps(series))
    assert clone == series
    assert clone.value(theta).tobytes() == value.tobytes()
    assert clone.d_theta(theta).tobytes() == slope.tobytes()


def test_incremental_inductance_warns_outside_the_box_and_keeps_its_values():
    c = ipm_saturation()
    phi = np.array([[IPM_PHI_M + 0.1, 0.05], [IPM_PHI_M + 2.5 * IPM_PHI_M, -0.3]])
    x, y = phi[:, 0] - c.phi_M, phi[:, 1]
    dd, dq, qq = SaturatedPmsmEnergy(c)._hessian_kernel(0.0, x, y, np.zeros(2))
    with pytest.warns(SaturationRangeWarning, match="exceeds the saturation model's fitted range"):
        jac = incremental_inductance(c, phi)
    assert jac.tobytes() == np.stack([np.stack([dd, dq], -1), np.stack([dq, qq], -1)], -2).tobytes()
    # the quartic's second derivatives written out
    a30, a12, a40, a22, a04 = c.alpha_30, c.alpha_12, c.alpha_40, c.alpha_22, c.alpha_04
    np.testing.assert_allclose(dd, c.inv_L_d + 6 * a30 * x + 12 * a40 * x**2 + 2 * a22 * y**2, rtol=1e-12)
    np.testing.assert_allclose(dq, 2 * a12 * y + 4 * a22 * x * y, rtol=1e-12)
    np.testing.assert_allclose(qq, c.inv_L_q + 2 * a12 * x + 2 * a22 * x**2 + 12 * a04 * y**2, rtol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        incremental_inductance(c, phi[0])


def _source_of(function) -> str:
    (source,) = [s for s, code in energy._CODES.items() if function.__code__ in code.co_consts]
    return source


def test_torque_is_a_generated_function_of_the_one_torque_expression():
    m = energy.linear_energy(ipm_linear_params())
    torque(m, 0.2, 0.1, [0.3, 0.05])
    source = _source_of(energy._torque)
    assert source.splitlines()[1] == "    def torque(n_p, h_theta, i_d, i_q, phi_d, phi_q):"
    assert source.splitlines()[2] == f"        return {energy._TORQUE}"


def test_the_series_kernel_takes_no_flux_variable():
    series = SERIES[1]
    series.value(0.0)
    assert "    def kernel(theta, zero):\n" in _source_of(series._series_kernel)
