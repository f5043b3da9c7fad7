"""Inputs that used to pass unchecked or fail late: drive records and plain
drive values, drive kinds and identify.phi_M given in a config, and the
public functions that now name the bad input."""

import math

import numpy as np
import pytest
import yaml

from enermach.cli import EXIT_CONFIG, main
from enermach.config import ConfigError, MotorConfig
from enermach.dynamics import (
    ConstantLoad,
    ConstantVoltage,
    Drive,
    LinearLoad,
    SinusoidVoltage,
    simulate_pmsm,
    step_pmsm,
)
from enermach.energy import MachineState, kinetic_coefficient, linear_energy
from enermach.harmonics import harmonic_energy, ripple_torque
from enermach.identify import fit_saturation, generate_synthetic, write_samples_csv

from helpers import CONFIG_DIR, IPM_PHI_M, ipm_harmonic_model, ipm_linear_params, ipm_saturation

NAN, INF = math.nan, math.inf


def _raw(config: str) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        return yaml.safe_load(f)


# ---------------------------------------------------------------------------
# drive records and plain drive values


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: SinusoidVoltage(freq_hz=NAN), "freq_hz"),
        (lambda: SinusoidVoltage(amp_d=20.0, phase_q=-INF), "phase_q"),
        (lambda: ConstantVoltage(0.0, INF), "u_q"),
        (lambda: LinearLoad(0.0, NAN), "coeff"),
        (lambda: ConstantLoad(-INF), "torque"),
    ],
    ids=["sinusoid-freq", "sinusoid-phase", "constant-voltage", "linear-load", "constant-load"],
)
def test_a_drive_record_names_its_non_finite_field(make, field):
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got"):
        make()


def test_plain_drive_values_become_constant_drives():
    drive = Drive((1, 2), 0.5)
    assert drive.voltage == ConstantVoltage(1.0, 2.0)
    assert drive.load == ConstantLoad(0.5)
    assert type(drive.voltage.u_d) is float and type(drive.load.torque) is float
    assert Drive(ConstantVoltage(1.0, 2.0), ConstantLoad(0.5)) == drive


@pytest.mark.parametrize("pair", [(1.0,), (1.0, 2.0, 3.0)], ids=["one", "three"])
def test_a_voltage_pair_of_the_wrong_length_is_rejected(pair):
    with pytest.raises(ValueError):
        Drive(pair, 0.0)


def test_a_non_finite_plain_drive_value_is_named_before_the_run():
    m = linear_energy(ipm_linear_params())
    s = MachineState(0.0, 0.0, [IPM_PHI_M, 0.0])
    with pytest.raises(ValueError, match="^u_d must be finite, got nan"):
        step_pmsm(m, s, (NAN, 0.0), 0.0, 1.0e-5)
    with pytest.raises(ValueError, match="^torque must be finite, got inf"):
        step_pmsm(m, s, (0.0, 0.0), INF, 1.0e-5)


# ---------------------------------------------------------------------------
# config: a null drive kind, a non-positive identify.phi_M


def test_a_null_drive_kind_reads_as_constant():
    raw = _raw("linear_ipm")
    raw["drive"] = {"voltage": {"kind": None, "u_q": 5.0}, "load": {"kind": None, "torque": 0.1}}
    drive = MotorConfig(raw).drive
    assert drive == Drive(ConstantVoltage(0.0, 5.0), ConstantLoad(0.1))


@pytest.mark.parametrize("phi_M", [0.0, -0.1, 0])
def test_a_non_positive_identify_phi_m_is_rejected_at_load(phi_M):
    raw = _raw("saturated_ipm")
    raw["identify"]["phi_M"] = phi_M
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == f"identify.phi_M: expected a positive number, got {phi_M!r}"


def test_identify_with_a_zero_phi_m_exits_1_naming_the_key(tmp_path, capsys):
    raw = _raw("saturated_ipm")
    raw["identify"]["phi_M"] = 0.0
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(raw))
    c = ipm_saturation()
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, generate_synthetic(c, c.phi_M + np.linspace(-0.1, 0.1, 5), np.linspace(-0.1, 0.1, 5)))
    code = main(["identify", "--config", str(config), "--samples", str(samples), "--out", str(tmp_path / "fit.csv")])
    assert (code, capsys.readouterr().err) == (EXIT_CONFIG, "error: identify.phi_M: expected a positive number, got 0.0\n")
    assert not (tmp_path / "fit.csv").exists()


# ---------------------------------------------------------------------------
# public functions name the bad input


@pytest.mark.parametrize("phi", [[IPM_PHI_M], [IPM_PHI_M, 0.0, 0.0]], ids=["one", "three"])
def test_both_single_winding_front_ends_reject_a_wrong_flux_length(phi):
    m = linear_energy(ipm_linear_params())
    s = MachineState(0.0, 0.0, phi)
    with pytest.raises(ValueError, match="^initial flux must have two components$"):
        step_pmsm(m, s, (0.0, 0.0), 0.0, 1.0e-5)
    with pytest.raises(ValueError, match="^initial flux must have two components$"):
        simulate_pmsm(m, s, Drive(), None)


@pytest.mark.parametrize(
    "grid, message",
    [([0.0, NAN], "theta_grid[1] must be finite, got nan"), ([0.0, 0.5, INF], "theta_grid[2] must be finite, got inf")],
    ids=["nan", "inf"],
)
def test_ripple_torque_names_a_non_finite_angle(grid, message):
    m = harmonic_energy(ipm_harmonic_model())
    with pytest.raises(ValueError) as e:
        ripple_torque(m, grid, 0.0, [IPM_PHI_M, 0.0])
    assert str(e.value) == message


@pytest.mark.parametrize("inertia", [NAN, INF])
@pytest.mark.parametrize("convention", ["mechanical", "reciprocal"])
def test_kinetic_coefficient_rejects_a_non_finite_inertia(inertia, convention):
    with pytest.raises(ValueError, match=f"^inertia must be finite, got {inertia}$"):
        kinetic_coefficient(inertia, 2, convention)


def test_the_fit_owns_the_sample_count_rule():
    c = ipm_saturation()
    samples = generate_synthetic(c, c.phi_M + np.linspace(-0.1, 0.1, 3), np.linspace(-0.1, 0.1, 2))
    with pytest.raises(ValueError) as e:
        fit_saturation(samples, phi_M=c.phi_M)
    assert str(e.value) == "insufficient samples: need at least 7, got 6"
