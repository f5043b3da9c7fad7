"""`validate.checks_for` reads the checks a machine owes from the machine:
every machine without a magnet owes the SynRM evenness, whatever its
config's kind, and `enermach validate` runs that list."""

import pytest
import yaml

from enermach.cli import EXIT_NUMERIC, EXIT_OK, main
from enermach.config import load_config
from enermach.validate import (
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
    checks_for,
)

from helpers import CONFIG_DIR

H_IDENTITIES = [check_reciprocity, check_period, check_parity]
# the lists `enermach validate` ran when it read the config's model kind
OWED = {
    "harmonic_ipm": H_IDENTITIES,
    "im_2kw": [check_reciprocity, check_im_rotation],
    "linear_ipm": H_IDENTITIES,
    "saturated_ipm": H_IDENTITIES,
    "saturated_spm": H_IDENTITIES,
    "synrm": [*H_IDENTITIES, check_synrm_evenness],
}


def test_every_shipped_config_is_covered():
    assert sorted(OWED) == sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))


@pytest.mark.parametrize("config", sorted(OWED))
def test_a_shipped_machine_owes_the_checks_validate_ran_by_kind(config):
    # functions compare by identity: the same function objects, in order
    assert checks_for(load_config(CONFIG_DIR / f"{config}.yaml").model) == OWED[config]


def _shipped(config: str) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        return yaml.safe_load(f)


def _magnet_free_saturated(**terms) -> dict:
    raw = _shipped("saturated_ipm")
    raw["model"]["phi_M"] = 0
    raw["model"]["saturation"] = {"scaled": False, "coefficients": {"inv_L_d": 40, "inv_L_q": 25, **terms}}
    raw["initial"]["phi"] = [0, 0]
    for section in ("identify", "ripple", "flux_map", "sweep"):
        raw.pop(section, None)
    return raw


def _magnet_free_linear() -> dict:
    raw = _shipped("linear_ipm")
    raw["model"]["phi_M"] = 0
    return raw


def _magnet_free_harmonic() -> dict:
    raw = _shipped("harmonic_ipm")
    raw["model"]["phi_M"] = 0
    raw["model"]["saturation"] = {"scaled": False, "coefficients": {"inv_L_d": 40, "inv_L_q": 25}}
    return raw


def _validate(raw: dict, tmp_path, capsys) -> tuple:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    return code, out.splitlines()


def test_a_magnet_free_saturated_machine_with_odd_terms_fails_evenness(tmp_path, capsys):
    code, lines = _validate(_magnet_free_saturated(alpha_30=80, alpha_12=60), tmp_path, capsys)
    assert code == EXIT_NUMERIC
    assert len(lines) == 4
    assert [line for line in lines if line.startswith("FAIL")] == [lines[3]]
    assert lines[3].startswith("FAIL synrm_evenness: ")


def test_a_magnet_free_saturated_machine_with_even_terms_passes_four_checks(tmp_path, capsys):
    code, lines = _validate(_magnet_free_saturated(alpha_40=30, alpha_22=20, alpha_04=10), tmp_path, capsys)
    assert code == EXIT_OK
    assert lines[3].startswith("PASS synrm_evenness: ")
    assert lines[-1] == "all 4 checks passed"


def test_a_magnet_free_linear_machine_passes_four_checks(tmp_path, capsys):
    code, lines = _validate(_magnet_free_linear(), tmp_path, capsys)
    assert code == EXIT_OK
    assert lines[3].startswith("PASS synrm_evenness: ")
    assert lines[-1] == "all 4 checks passed"


def test_a_magnet_free_harmonic_machine_fails_evenness(tmp_path, capsys):
    # the shipped harmonic rows hold odd terms in phi, which a magnet no longer excuses
    code, lines = _validate(_magnet_free_harmonic(), tmp_path, capsys)
    assert code == EXIT_NUMERIC
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == ["FAIL synrm_evenness"]
