"""Finite model values at the edges of the floats: every shipped config
validates, or exits with one named error, whatever size its model keys
and saturation coefficients have."""

import pytest
import yaml

from enermach.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from enermach.induction import ImParams
from enermach.saturation import SaturationCoefficients

from helpers import CONFIG_DIR, IPM_PHI_M, IPM_SCALED

EXTREMES = [1.0e308, 1.0e200, 1.0e100, 1.0e-100, 1.0e-300]
CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))


def _raw(config: str) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        raw = yaml.safe_load(f)
    raw["validate"] = {"n_samples": 16}
    return raw


def _validate(raw, tmp_path, capsys) -> tuple:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["validate", "--config", str(path)])
    return code, capsys.readouterr().err


def _numeric_keys(raw: dict) -> list:
    """Each numeric model key and saturation coefficient, as the mapping that holds it and its key."""
    model = raw["model"]
    keys = [(model, k) for k, v in model.items() if isinstance(v, (int, float))]
    coefficients = model.get("saturation", {}).get("coefficients", {})
    return keys + [(coefficients, k) for k in coefficients]


# numpy's overflow warnings inside a check that then fails are not errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", CONFIGS)
def test_an_extreme_model_value_validates_or_is_one_named_error(config, tmp_path, capsys):
    raw = _raw(config)
    for node, key in _numeric_keys(raw):
        shipped = node[key]
        for value in EXTREMES:
            node[key] = value
            code, err = _validate(raw, tmp_path, capsys)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (key, value, err)
            assert err.count("error:") <= 1 and "Traceback" not in err, (key, value, err)
        node[key] = shipped


@pytest.mark.parametrize("config", ["saturated_ipm", "saturated_spm", "harmonic_ipm"])
@pytest.mark.parametrize("phi_M", [1.0e308, 1.0e200, 1.0e100, 1.0e-100, 1.0e-300])
def test_a_phi_m_whose_powers_leave_the_floats_is_named(config, phi_M, tmp_path, capsys):
    raw = _raw(config)
    raw["model"]["phi_M"] = phi_M
    code, err = _validate(raw, tmp_path, capsys)
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: model.saturation.coefficients: phi_M = {phi_M!r} is out of range")
    assert err.count("\n") == 1


@pytest.mark.parametrize("phi_M", [1.0e308, 1.0e100, 1.0e-100, 1.0e-300])
def test_both_scaled_conversions_name_an_out_of_range_phi_m(phi_M):
    with pytest.raises(ValueError, match=r"^phi_M = .* is out of range"):
        SaturationCoefficients.from_scaled(phi_M, **IPM_SCALED)
    c = SaturationCoefficients(inv_L_d=4.2, inv_L_q=2.83, phi_M=phi_M)
    with pytest.raises(ValueError, match=r"^phi_M = .* is out of range"):
        c.scaled_values()
    # a phi_M in range converts both ways as before
    assert SaturationCoefficients.from_scaled(IPM_PHI_M, **IPM_SCALED).scaled_values().keys() == IPM_SCALED.keys()


DEGENERATE = "error: model: degenerate inductance matrix: L_s*L_r - L_m**2 must be positive\n"


@pytest.mark.parametrize(
    "changes",
    [{"L_s": 1.0e200, "L_r": 1.0e200}, {"L_m": 1.0e308}, {"L_m": 1.0e200}],
    ids=["infinite-det", "L_m-1e308", "L_m-1e200"],
)
def test_an_inductance_matrix_with_no_finite_determinant_is_degenerate(changes, tmp_path, capsys):
    raw = _raw("im_2kw")
    raw["model"].update(changes)
    assert _validate(raw, tmp_path, capsys) == (EXIT_CONFIG, DEGENERATE)
    params = dict(L_s=0.12, L_r=0.12, L_m=0.11, R_s=2.0, R_r=1.5, kinetic_coeff=800.0, n_p=2)
    with pytest.raises(ValueError, match="^degenerate inductance matrix"):
        ImParams(**{**params, **changes})
