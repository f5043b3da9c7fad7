"""A ripple grid shorter than the pi/3 period is a config error that names its section, under every verb."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from enermach.cli import EXIT_CONFIG
from enermach.config import ConfigError, MotorConfig
from enermach.harmonics import ripple_torque

from helpers import CONFIG_DIR

SRC_DIR = CONFIG_DIR.parent / "src"


def _raw(theta_min, theta_max):
    raw = yaml.safe_load((CONFIG_DIR / "harmonic_ipm.yaml").read_text())
    raw["ripple"].update(theta_min=theta_min, theta_max=theta_max)
    return raw


@pytest.mark.parametrize("verb", ["simulate", "ripple"])
def test_a_short_span_exits_1_naming_ripple(verb, tmp_path):
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(_raw(0.0, 0.5)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "enermach.cli", verb, "--config", str(path), "--out", str(tmp_path / "o.csv")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_CONFIG
    assert run.stderr == "error: ripple: theta grid must span at least pi/3\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("theta_min", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("less", [0.0, 5e-13, 1e-12, 2e-12, 0.5])
def test_the_config_accepts_what_ripple_torque_accepts(theta_min, less):
    raw = _raw(theta_min, theta_min + math.pi / 3.0 - less)
    try:
        spec = MotorConfig(raw).ripple
    except ConfigError as e:
        assert str(e) == "ripple: theta grid must span at least pi/3"
        spec = None
    cfg = MotorConfig(_raw(0.0, 2.0))
    theta = np.linspace(raw["ripple"]["theta_min"], raw["ripple"]["theta_max"], 5)
    try:
        ripple_torque(cfg.model, theta, 0.0, np.array(raw["ripple"]["phi"]))
    except ValueError as e:
        assert str(e) == "theta grid must span at least pi/3"
        assert spec is None
    else:
        assert spec is not None
