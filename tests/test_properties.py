"""Property: a bad number in one argument of kinetic_coefficient, step_pmsm,
neutral_voltage, MachineState or a count either raises ValueError or gives
finite values (a valid object, for a constructor).

One argument at a time is set to NaN, +-inf, 0, a negative value or a
non-integer; every other argument keeps a valid value.  Magnitudes are
drawn from [1e-9, 1e9]; the inputs at the ends of the floats are checked
one by one below.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from enermach.dynamics import SimConfig, step_pmsm  # noqa: E402
from enermach.energy import MachineState, kinetic_coefficient, linear_energy  # noqa: E402
from enermach.harmonics import FluxPolynomial, HarmonicTerm, harmonic_energy, neutral_voltage  # noqa: E402
from enermach.validate import check_im_rotation, check_period, check_reciprocity  # noqa: E402

from helpers import IPM_PHI_M, im_params, ipm_harmonic_model, ipm_linear_params  # noqa: E402

BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    st.floats(-1.0e9, -1.0e-9),
    st.floats(1.0e-9, 1.0e9).filter(lambda x: x % 1.0 != 0.0),
)

PMSM = linear_energy(ipm_linear_params())
HARMONIC = harmonic_energy(ipm_harmonic_model())

deterministic = settings(derandomize=True, database=None, deadline=None)


def _raises_or_finite(call, bad):
    try:
        out = call()
    except ValueError:
        return
    if isinstance(out, MachineState):
        out = [out.theta, out.rho, *out.phi]
    assert np.all(np.isfinite(out)), f"{bad} gave {out}"


@deterministic
@given(
    name=st.sampled_from(["inertia", "pole_pairs"]),
    bad=BAD,
    convention=st.sampled_from(["mechanical", "reciprocal"]),
)
def test_kinetic_coefficient_raises_or_is_finite(name, bad, convention):
    args = {"inertia": 1.0e-3, "pole_pairs": 3}
    args[name] = bad
    _raises_or_finite(lambda: kinetic_coefficient(convention=convention, **args), bad)


@deterministic
@given(name=st.sampled_from(["u_d", "u_q", "T_l", "dt", "t"]), bad=BAD)
def test_step_pmsm_raises_or_is_finite(name, bad):
    args = {"u_d": 5.0, "u_q": 20.0, "T_l": 0.1, "dt": 1.0e-5, "t": 0.0}
    args[name] = bad
    s = MachineState(0.0, 0.0, [IPM_PHI_M, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _raises_or_finite(
            lambda: step_pmsm(PMSM, s, (args["u_d"], args["u_q"]), args["T_l"], args["dt"], t=args["t"]), bad
        )


@deterministic
@given(name=st.sampled_from(["t", "theta", "rho", "v_s0"]), bad=BAD)
def test_neutral_voltage_raises_or_is_finite(name, bad):
    series = {"t": [0.0, 1.0e-3, 2.0e-3], "theta": [0.0, 0.1, 0.2], "rho": [1.0, 1.0, 1.0], "v_s0": [0.0, 0.0, 0.0]}
    series[name][1] = bad
    _raises_or_finite(lambda: neutral_voltage(HARMONIC, **series), bad)


# inputs outside the drawn magnitudes


@pytest.mark.parametrize("convention", ["mechanical", "reciprocal"])
def test_a_subnormal_inertia_raises_or_is_finite(convention):
    _raises_or_finite(lambda: kinetic_coefficient(5.0e-324, 3, convention), 5.0e-324)


@pytest.mark.parametrize("n_p", [1.0e200, 10**400], ids=["float", "int"])
def test_a_huge_pole_pair_count_raises_or_is_finite(n_p):
    _raises_or_finite(lambda: kinetic_coefficient(1.0e-3, n_p), n_p)


@pytest.mark.parametrize("name", ["theta", "rho"])
def test_a_trajectory_entry_near_the_float_limit_raises_or_is_finite(name):
    series = {"t": [0.0, 1.0e-3, 2.0e-3], "theta": [0.0, 0.1, 0.2], "rho": [1.0, 1.0, 1.0]}
    series[name][1] = 1.7976931348623157e308
    with np.errstate(over="ignore", invalid="ignore"):
        _raises_or_finite(lambda: neutral_voltage(HARMONIC, **series), series[name][1])


# a NaN, +-inf or 2.5 in a field or a count fails by name


def _raises_naming_or_builds(call, name, valid, bad):
    try:
        out = call()
    except ValueError as e:
        assert name in str(e), f"{bad}: {e} does not name {name}"
        return
    assert valid(out), f"{bad} built {out}"


def _is_count(value, least):
    return math.isfinite(value) and value >= least and value == int(value)


@deterministic
@given(name=st.sampled_from(["theta", "rho", "phi[0]", "phi[1]"]), bad=BAD)
def test_a_machine_state_field_raises_or_is_finite(name, bad):
    fields = {"theta": 0.0, "rho": 0.0, "phi[0]": IPM_PHI_M, "phi[1]": 0.0}
    fields[name] = bad
    _raises_naming_or_builds(
        lambda: MachineState(fields["theta"], fields["rho"], [fields["phi[0]"], fields["phi[1]"]]),
        name,
        lambda s: np.all(np.isfinite([s.theta, s.rho, *s.phi])),
        bad,
    )


@deterministic
@given(bad=BAD)
def test_a_record_stride_raises_or_is_a_count(bad):
    _raises_naming_or_builds(
        lambda: SimConfig(record_stride=bad), "record_stride", lambda c: _is_count(c.record_stride, 1), bad
    )


@deterministic
@given(bad=BAD)
def test_a_harmonic_index_raises_or_is_a_count(bad):
    _raises_naming_or_builds(lambda: HarmonicTerm(k=bad), "harmonic index k", lambda h: _is_count(h.k, 1), bad)


@deterministic
@given(bad=BAD, first=st.booleans())
def test_a_flux_exponent_raises_or_is_a_count(bad, first):
    key = (bad, 0) if first else (0, bad)
    _raises_naming_or_builds(
        lambda: FluxPolynomial({key: 1.0}),
        "exponents",
        lambda p: all(_is_count(e, 0) and isinstance(e, int) for powers in p.coeffs for e in powers),
        bad,
    )


@deterministic
@given(bad=BAD, check=st.sampled_from(["period", "im_rotation"]))
def test_a_sample_count_raises_or_is_a_count(bad, check):
    call = {
        "period": lambda: check_period(PMSM, n_samples=bad),
        "im_rotation": lambda: check_im_rotation(im_params(), n_samples=bad),
    }[check]
    _raises_naming_or_builds(call, "n_samples", lambda report: report.samples == bad, bad)


@pytest.mark.parametrize(
    "check, model",
    [(check_reciprocity, PMSM), (check_period, PMSM), (check_im_rotation, im_params())],
    ids=["reciprocity", "period", "im_rotation"],
)
def test_a_whole_float_sample_count_draws_as_its_int(check, model):
    assert check(model, n_samples=7.0) == check(model, n_samples=7)


@pytest.mark.parametrize("convention", ["mechanical", "reciprocal"])
def test_a_subnormal_inertia_is_named(convention):
    with pytest.raises(ValueError, match=r"^inertia 5e-324 with n_p = 3 overflows kappa to inf$"):
        kinetic_coefficient(5.0e-324, 3, convention)


@pytest.mark.parametrize("n_p", [2**53 + 1, 1.0e200, 10**400], ids=["above", "float", "int"])
def test_a_pole_pair_count_above_2_53_is_named(n_p):
    with pytest.raises(ValueError, match=r"^n_p must be at most 2\*\*53, got "):
        kinetic_coefficient(1.0e-3, n_p)


def test_a_harmonic_index_of_2_53_builds_a_model_with_finite_values():
    base = ipm_harmonic_model()
    term = HarmonicTerm(k=2**53, a_poly=FluxPolynomial({(0, 0): 1.0e-3}))
    m = harmonic_energy(dataclasses.replace(base, terms=(term,)))
    assert np.isfinite(m.evaluate(0.3, 1.0, np.array([IPM_PHI_M, 0.01])))


@pytest.mark.parametrize("k", [2**53 + 1, 1.0e200, 10**400], ids=["above", "float", "int"])
def test_a_harmonic_index_above_2_53_is_named(k):
    with pytest.raises(ValueError, match=r"^harmonic index k must be at most 2\*\*53, got "):
        HarmonicTerm(k=k)


@pytest.mark.parametrize("name", ["theta", "rho"])
def test_a_trajectory_entry_overflowing_v_n_is_named_without_a_warning(name):
    series = {"t": [0.0, 1.0e-3, 2.0e-3], "theta": [0.0, 0.1, 0.2], "rho": [1.0, 1.0, 1.0]}
    series[name][1] = 1.7976931348623157e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^theta or rho overflows v_N at sample 1$"):
            neutral_voltage(HARMONIC, **series)
