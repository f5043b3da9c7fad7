"""validate on a machine with a huge inertia or a tiny kinetic coefficient:
the sampled momentum range is bounded, so every check runs on finite
energies, passes, and numpy warns of no overflow."""

import warnings

import pytest
import yaml

from enermach.cli import EXIT_OK, main
from enermach.config import load_config
from enermach.validate import default_box

from helpers import CONFIG_DIR

CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))


def _validate(raw, tmp_path, capsys) -> tuple:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", "--config", str(path)])
    out = capsys.readouterr()
    return code, out.out + out.err, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _raw(config: str) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        return yaml.safe_load(f)


@pytest.mark.parametrize("config", CONFIGS)
def test_a_huge_inertia_validates(config, tmp_path, capsys):
    raw = _raw(config)
    raw["model"]["inertia"] = 1.0e200
    code, text, overflows = _validate(raw, tmp_path, capsys)
    assert code == EXIT_OK, text
    assert "checks passed" in text
    assert not overflows, [str(w.message) for w in overflows]


@pytest.mark.parametrize("kappa", [1.0e-300, 1.0e-306])
def test_a_tiny_kinetic_coefficient_validates(kappa, tmp_path, capsys):
    raw = _raw("linear_ipm")
    del raw["model"]["inertia"]
    raw["model"]["kinetic_coeff"] = kappa
    code, text, overflows = _validate(raw, tmp_path, capsys)
    assert code == EXIT_OK, text
    assert not overflows, [str(w.message) for w in overflows]


@pytest.mark.parametrize("config", CONFIGS)
def test_the_shipped_momentum_ranges_are_unbounded(config):
    # the bound only cuts a range that would overflow: every shipped box is 1000 / kappa
    model = load_config(CONFIG_DIR / f"{config}.yaml").model
    assert default_box(model).rho_half == 1000.0 / model.params.kinetic_coeff
