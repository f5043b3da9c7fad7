"""Error branches that no other test reaches, each with its message and
exit code: the CLI's verb and config rules, and the library's model,
trajectory and coefficient rules."""

import math

import pytest
import yaml

from enermach.cli import EXIT_CONFIG, main
from enermach.config import load_config
from enermach.dynamics import Drive, SimConfig, power_balance, simulate
from enermach.energy import MachineState, linear_energy
from enermach.harmonics import FluxPolynomial

from helpers import CONFIG_DIR, _Delegate, ipm_linear_params


def _raw(config: str) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        return yaml.safe_load(f)


def _main(argv, capsys) -> tuple:
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_identify_without_a_magnet_needs_identify_phi_m(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("phi_d,phi_q,i_d,i_q\n0.1,0.0,1.0,2.0\n")
    argv = ["identify", "--config", str(CONFIG_DIR / "synrm.yaml"), "--samples", str(samples)]
    code, out, err = _main([*argv, "--out", str(tmp_path / "fit.csv")], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: identify.phi_M: required when the model block has no magnet\n"
    assert not (tmp_path / "fit.csv").exists()


def test_flux_map_needs_a_two_component_flux_model(tmp_path, capsys):
    out_csv = tmp_path / "map.csv"
    code, out, err = _main(["flux-map", "--config", str(CONFIG_DIR / "im_2kw.yaml"), "--out", str(out_csv)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: flux_map: needs a two-component flux model\n"
    assert not out_csv.exists()


def test_a_sweep_below_a_number_names_the_key_that_is_no_section(tmp_path, capsys):
    raw = _raw("saturated_ipm")
    raw["sweep"] = {"parameter": "model.n_p.x", "values": [1.0], "workers": 1}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, out, err = _main(["sweep", "--config", str(path), "--out", str(tmp_path / "runs")], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "error: sweep.parameter: model.n_p.x: 'n_p' is not a section\n"
    assert not list((tmp_path / "runs").glob("*.csv"))


@pytest.mark.parametrize(
    "text, message",
    [("", "empty config"), ("# only a comment\n", "empty config"), ("- 1\n- 2\n", "top level must be a mapping")],
)
def test_a_config_that_is_no_mapping_is_named(text, message, tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    code, out, err = _main(["validate", "--config", str(path)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: {path}: {message}\n"


def test_a_model_without_a_stator_resistance_is_not_simulated():
    m = _Delegate(linear_energy(ipm_linear_params()))
    m.params = None
    state = MachineState(0.0, 0.0, [0.2, 0.0])
    with pytest.raises(TypeError, match=r"^model must expose params\.R_s to be simulated$"):
        simulate(m, state, Drive((1.0, 2.0), 0.0), SimConfig(dt=1.0e-4, t_end=1.0e-3))


def test_power_balance_rejects_a_trajectory_of_another_flux_layout():
    pmsm = load_config(CONFIG_DIR / "linear_ipm.yaml")
    traj = simulate(pmsm.model, pmsm.initial, pmsm.drive, SimConfig(dt=1.0e-5, t_end=1.0e-3, record_stride=10))
    assert len(traj) >= 3
    im = load_config(CONFIG_DIR / "im_2kw.yaml").model
    with pytest.raises(ValueError, match=r"^trajectory flux layout does not match the model$"):
        power_balance(im, traj)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_a_flux_polynomial_coefficient_must_be_finite(c):
    with pytest.raises(ValueError, match=r"^coefficient \(1,0\) is not finite$"):
        FluxPolynomial({(1, 0): c})
