"""Property: a bad number in one argument of kinetic_coefficient, step_pmsm or
neutral_voltage either raises ValueError or gives finite values.

One argument at a time is set to NaN, +-inf, 0, a negative value or a
non-integer; every other argument keeps a valid value.  Magnitudes are
drawn from [1e-9, 1e9]; the faults found outside that range are pinned
below as strict xfails, so a fix has to remove the mark.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from enermach.dynamics import step_pmsm  # noqa: E402
from enermach.energy import MachineState, kinetic_coefficient, linear_energy  # noqa: E402
from enermach.harmonics import harmonic_energy, neutral_voltage  # noqa: E402

from helpers import IPM_PHI_M, ipm_harmonic_model, ipm_linear_params  # noqa: E402

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


# faults outside the drawn magnitudes, left for a later change


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a subnormal inertia overflows kappa to inf")
@pytest.mark.parametrize("convention", ["mechanical", "reciprocal"])
def test_a_subnormal_inertia_raises_or_is_finite(convention):
    _raises_or_finite(lambda: kinetic_coefficient(5.0e-324, 3, convention), 5.0e-324)


@pytest.mark.xfail(strict=True, raises=OverflowError, reason="n_p**2 overflows before any check names n_p")
@pytest.mark.parametrize("n_p", [1.0e200, 10**400], ids=["float", "int"])
def test_a_huge_pole_pair_count_raises_or_is_finite(n_p):
    _raises_or_finite(lambda: kinetic_coefficient(1.0e-3, n_p), n_p)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the zero-axis slope or kappa*rho overflows")
@pytest.mark.parametrize("name", ["theta", "rho"])
def test_a_trajectory_entry_near_the_float_limit_raises_or_is_finite(name):
    series = {"t": [0.0, 1.0e-3, 2.0e-3], "theta": [0.0, 0.1, 0.2], "rho": [1.0, 1.0, 1.0]}
    series[name][1] = 1.7976931348623157e308
    with np.errstate(over="ignore", invalid="ignore"):
        _raises_or_finite(lambda: neutral_voltage(HARMONIC, **series), series[name][1])
