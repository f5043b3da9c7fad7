import dataclasses

import numpy as np
import pytest

from enermach.identify import (
    PARAM_NAMES,
    FluxSample,
    RankDeficiencyError,
    fit_saturation,
    generate_synthetic,
    read_samples_csv,
    report_scaled,
    write_samples_csv,
    _monomial_currents,
)
from enermach.saturation import saturated_currents
from helpers import ipm_saturation

_ATTRS = ("inv_L_d", "inv_L_q", "alpha_30", "alpha_12", "alpha_40", "alpha_22", "alpha_04")


def _grid_samples(c, noise=0.0, seed=0, span=0.15, n_d=6, n_q=5):
    phi_d = c.phi_M + np.linspace(-span, span, n_d)
    phi_q = np.linspace(-span, span, n_q)
    return generate_synthetic(c, phi_d, phi_q, noise=noise, seed=seed)


def test_noiseless_recovery_is_exact():
    truth = ipm_saturation()
    fit = fit_saturation(_grid_samples(truth), phi_M=truth.phi_M)
    for name in _ATTRS:
        assert getattr(fit.coefficients, name) == pytest.approx(
            getattr(truth, name), rel=1.0e-9
        )
    assert fit.residual_rms < 1.0e-10
    assert fit.converged and fit.iterations == 0
    assert np.isfinite(fit.condition_number) and fit.condition_number > 1.0
    assert fit.std_errors is not None
    assert all(v < 1.0e-8 for v in fit.std_errors.values())


def test_magnet_flux_refinement_recovers_truth():
    truth = ipm_saturation()
    samples = _grid_samples(truth)
    fit = fit_saturation(samples, phi_M=1.05 * truth.phi_M, refine_phi_M=True)
    assert fit.converged
    assert 1 <= fit.iterations <= 50
    assert fit.coefficients.phi_M == pytest.approx(truth.phi_M, abs=1.0e-9)
    for name in _ATTRS:
        assert getattr(fit.coefficients, name) == pytest.approx(
            getattr(truth, name), rel=1.0e-7
        )


def test_q_axis_blind_layout_is_rejected():
    truth = ipm_saturation()
    x = np.linspace(-0.15, 0.15, 12)
    phi = np.stack([truth.phi_M + x, np.zeros_like(x)], axis=-1)
    i = saturated_currents(truth, phi)
    samples = [
        FluxSample(float(p[0]), float(p[1]), float(ii[0]), float(ii[1]))
        for p, ii in zip(phi, i)
    ]
    with pytest.raises(RankDeficiencyError) as err:
        fit_saturation(samples, phi_M=truth.phi_M)
    assert err.value.rank == 3
    msg = str(err.value)
    for name in ("inv_L_q", "alpha_12", "alpha_22", "alpha_04"):
        assert name in msg


def test_fit_is_a_least_squares_optimum():
    truth = ipm_saturation()
    samples = _grid_samples(truth, noise=0.01, seed=5)
    fit = fit_saturation(samples, phi_M=truth.phi_M)

    def sse(c):
        phi = np.array([[s.phi_d, s.phi_q] for s in samples])
        i_model = saturated_currents(c, phi)
        i_meas = np.array([[s.i_d, s.i_q] for s in samples])
        w = np.array([s.weight for s in samples])[:, None]
        return float(np.sum(w * (i_model - i_meas) ** 2))

    base = sse(fit.coefficients)
    for name in _ATTRS:
        for sign in (+1.0, -1.0):
            value = getattr(fit.coefficients, name)
            step = sign * 1.0e-5 * max(1.0, abs(value))
            nudged = dataclasses.replace(fit.coefficients, **{name: value + step})
            assert sse(nudged) >= base


def test_weights_pull_the_fit():
    truth = ipm_saturation()
    clean = _grid_samples(truth)
    outlier = FluxSample(truth.phi_M + 0.1, 0.1, 60.0, -40.0)

    def fit_with(weight):
        samples = clean + [dataclasses.replace(outlier, weight=weight)]
        return fit_saturation(samples, phi_M=truth.phi_M)

    err_small = abs(fit_with(1.0e-8).coefficients.inv_L_d - truth.inv_L_d)
    err_full = abs(fit_with(1.0).coefficients.inv_L_d - truth.inv_L_d)
    assert err_small < 1.0e-6 * truth.inv_L_d
    assert err_full > 100.0 * max(err_small, 1.0e-12)


def test_noisy_fit_stays_within_uncertainty():
    truth = ipm_saturation()
    fit = fit_saturation(_grid_samples(truth, noise=0.005, seed=11), phi_M=truth.phi_M)
    assert fit.std_errors is not None
    for name in _ATTRS:
        sigma = fit.std_errors[name]
        assert np.isfinite(sigma) and sigma > 0.0
        assert abs(getattr(fit.coefficients, name) - getattr(truth, name)) < 6.0 * sigma


def test_minimum_sample_count():
    truth = ipm_saturation()
    points = [
        (-0.15, -0.10),
        (-0.05, 0.12),
        (0.00, -0.04),
        (0.05, 0.10),
        (0.10, -0.13),
        (0.15, 0.07),
        (0.12, 0.00),
    ]
    phi = np.array([[truth.phi_M + x, y] for x, y in points])
    i = saturated_currents(truth, phi)
    samples = [
        FluxSample(float(p[0]), float(p[1]), float(ii[0]), float(ii[1]))
        for p, ii in zip(phi, i)
    ]
    fit = fit_saturation(samples, phi_M=truth.phi_M)
    assert fit.std_errors is not None
    assert fit.coefficients.inv_L_d == pytest.approx(truth.inv_L_d, rel=1.0e-8)
    with pytest.raises(ValueError, match="at least 7"):
        fit_saturation(samples[:6], phi_M=truth.phi_M)


def test_scaled_report_is_scale_invariant():
    truth = ipm_saturation()
    samples = _grid_samples(truth, noise=0.004, seed=3)
    s = 3.7
    scaled_samples = [
        FluxSample(s * p.phi_d, s * p.phi_q, p.i_d / s, p.i_q / s, p.weight)
        for p in samples
    ]
    rep_a = report_scaled(fit_saturation(samples, phi_M=truth.phi_M))
    rep_b = report_scaled(fit_saturation(scaled_samples, phi_M=s * truth.phi_M))
    assert rep_a.keys() == rep_b.keys()
    for key in rep_a:
        va, ea = rep_a[key]
        vb, eb = rep_b[key]
        assert vb == pytest.approx(va, rel=1.0e-8)
        assert eb == pytest.approx(ea, rel=1.0e-8)


def test_condition_number_worsens_with_narrow_excursions():
    truth = ipm_saturation()
    wide = fit_saturation(_grid_samples(truth, span=0.15), phi_M=truth.phi_M)
    narrow = fit_saturation(_grid_samples(truth, span=0.03), phi_M=truth.phi_M)
    assert narrow.condition_number > 10.0 * wide.condition_number


def test_unphysical_fit_is_reported():
    x = np.linspace(-0.2, 0.2, 5)
    y = np.linspace(-0.2, 0.2, 5)
    samples = [
        FluxSample(xv, yv, -100.0 * xv, 50.0 * yv) for xv in x for yv in y
    ]
    with pytest.raises(ValueError, match="invalid coefficients"):
        fit_saturation(samples, phi_M=0.0)


def test_synthetic_generation_is_seeded():
    truth = ipm_saturation()
    a = _grid_samples(truth, noise=0.01, seed=7)
    b = _grid_samples(truth, noise=0.01, seed=7)
    c = _grid_samples(truth, noise=0.01, seed=8)
    assert a == b
    assert a != c
    with pytest.raises(ValueError, match="non-negative"):
        generate_synthetic(truth, [0.1], [0.0], noise=-0.1)


def test_sample_csv_round_trip(tmp_path):
    truth = ipm_saturation()
    samples = _grid_samples(truth, noise=0.002, seed=2)[:9]
    samples[3] = dataclasses.replace(samples[3], weight=0.25)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, samples, with_weight=True)
    back = read_samples_csv(path)
    assert back == samples
    # the four-column form drops weights and reads them back as 1.0
    write_samples_csv(path, samples, with_weight=False)
    back = read_samples_csv(path)
    assert all(s.weight == 1.0 for s in back)
    assert [s.phi_d for s in back] == [s.phi_d for s in samples]


def test_sample_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty sample file"):
        read_samples_csv(path)
    path.write_text("phi_d,phi_q,i_d\n")
    with pytest.raises(ValueError, match="line 1: header"):
        read_samples_csv(path)
    path.write_text("phi_d,phi_q,i_d,i_q\n0.1,0.0,1.0\n")
    with pytest.raises(ValueError, match="line 2: expected 4 fields"):
        read_samples_csv(path)
    path.write_text("phi_d,phi_q,i_d,i_q\n0.1,0.0,1.0,2.0\n0.1,abc,1.0,2.0\n")
    with pytest.raises(ValueError, match="line 3: non-numeric"):
        read_samples_csv(path)


def test_param_name_table_is_stable():
    assert PARAM_NAMES == _ATTRS


def test_design_columns_are_the_monomial_currents():
    # closed-form d/dx and d/dy of each parameter's term of H_mag at unit
    # parameter, in PARAM_NAMES order; the kernel builds x**3 as (x * x) * x
    rng = np.random.default_rng(23)
    x, y = rng.uniform(-0.2, 0.2, (2, 200))
    zero = np.zeros_like(x)
    want = [x, zero, 3.0 * x**2, y**2, 4.0 * x**3, 2.0 * x * y**2, zero]
    want += [zero, y, zero, 2.0 * x * y, zero, 2.0 * x**2 * y, 4.0 * y**3]
    got = _monomial_currents()(0.0, x, y, np.zeros_like(x))
    assert len(got) == 2 * len(PARAM_NAMES)
    np.testing.assert_allclose(np.stack(got), np.stack(want), rtol=1.0e-15, atol=0.0)
