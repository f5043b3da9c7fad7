"""Entry points that keep a shared rule instead of a partial copy: the pole-pair
rule in kinetic_coefficient, the SimConfig step rule and a finite start time in
step_pmsm, and the finite-array rule in neutral_voltage."""

import math

import pytest

from enermach.dynamics import SinusoidVoltage, step_pmsm
from enermach.energy import MachineState, kinetic_coefficient, linear_energy
from enermach.harmonics import harmonic_energy, neutral_voltage

from helpers import IPM_PHI_M, ipm_harmonic_model, ipm_linear_params

NAN, INF = math.nan, math.inf


def _pmsm():
    return linear_energy(ipm_linear_params()), MachineState(0.0, 0.0, [IPM_PHI_M, 0.0])


@pytest.mark.parametrize("n_p", [NAN, INF, 2.5], ids=["nan", "inf", "non-integer"])
@pytest.mark.parametrize("convention", ["mechanical", "reciprocal"])
def test_kinetic_coefficient_keeps_the_pole_pair_rule(n_p, convention):
    with pytest.raises(ValueError, match="^n_p must be a positive integer$"):
        kinetic_coefficient(1.0e-3, n_p, convention)


def test_kinetic_coefficient_takes_an_integral_float_pole_pair_count():
    assert kinetic_coefficient(1.0e-3, 3.0) == kinetic_coefficient(1.0e-3, 3) == 9000.0


@pytest.mark.parametrize("dt", [-1.0e-5, 0.0], ids=["negative", "zero"])
def test_step_pmsm_rejects_a_non_positive_step(dt):
    m, s = _pmsm()
    with pytest.raises(ValueError, match="^dt must be positive$"):
        step_pmsm(m, s, (0.0, 0.0), 0.0, dt)


@pytest.mark.parametrize("dt", [NAN, INF], ids=["nan", "inf"])
def test_step_pmsm_rejects_a_non_finite_step(dt):
    m, s = _pmsm()
    with pytest.raises(ValueError, match="^dt must be finite$"):
        step_pmsm(m, s, (0.0, 0.0), 0.0, dt)


def test_step_pmsm_names_the_integrator_as_simulate_does():
    m, s = _pmsm()
    with pytest.raises(ValueError, match=r"^unknown integrator 'heun'; use one of \('rk4', 'euler'\)$"):
        step_pmsm(m, s, (0.0, 0.0), 0.0, 1.0e-5, method="heun")


@pytest.mark.parametrize(
    "drive",
    [(5.0, 20.0), SinusoidVoltage(amp_d=5.0, amp_q=20.0, freq_hz=50.0)],
    ids=["constant", "sinusoid"],
)
@pytest.mark.parametrize("t", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_step_pmsm_names_a_non_finite_start_time(drive, t):
    m, s = _pmsm()
    with pytest.raises(ValueError, match=rf"^t must be finite, got {t}$"):
        step_pmsm(m, s, drive, 0.0, 1.0e-5, t=t)


@pytest.mark.parametrize("name", ["theta", "rho"])
@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_neutral_voltage_names_a_non_finite_trajectory_entry(name, bad):
    m = harmonic_energy(ipm_harmonic_model())
    series = {"theta": [0.0, 0.1, 0.2], "rho": [1.0, 1.0, 1.0]}
    series[name][1] = bad
    with pytest.raises(ValueError, match=rf"^{name}\[1\] must be finite, got {bad}$"):
        neutral_voltage(m, [0.0, 1.0e-3, 2.0e-3], series["theta"], series["rho"])


def test_neutral_voltage_names_a_non_finite_source_voltage():
    m = harmonic_energy(ipm_harmonic_model())
    with pytest.raises(ValueError, match=r"^v_s0\[2\] must be finite, got nan$"):
        neutral_voltage(m, [0.0, 1.0e-3, 2.0e-3], [0.0, 0.1, 0.2], [1.0, 1.0, 1.0], [0.0, 1.0, NAN])

