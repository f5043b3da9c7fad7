"""The power bookkeeping's Simpson rule, and a CLI import free of scipy.

``_cumsimpson`` is the composite Simpson rule for unequal intervals
(Cartwright 2017, eqn 8).  It must be exact on quadratics, and where scipy
is installed it must equal ``scipy.integrate.cumulative_simpson`` bit for
bit, so the residual ``power_balance`` reports does not depend on which
implementation computed it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enermach.dynamics import _cumsimpson

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("n", [3, 4, 5, 101])
def test_cumsimpson_is_exact_on_quadratics(n):
    rng = np.random.default_rng(n)
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.8, n - 1))))
    p = 2.0 - 1.5 * t + 0.75 * t**2
    exact = 2.0 * t - 0.75 * t**2 + 0.25 * t**3
    got = _cumsimpson(p, t)
    assert got[0] == 0.0
    assert np.max(np.abs(got - exact)) <= 1.0e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 100, 101, 4001])
def test_cumsimpson_equals_scipy_bit_for_bit(n):
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(1000 + n)
    grids = (np.linspace(0.0, 1.0e-2, n), np.cumsum(rng.uniform(0.1, 2.0, n)))
    for t in grids:
        p = rng.standard_normal(n)
        want = integrate.cumulative_simpson(p, x=t, initial=0.0)
        assert np.array_equal(_cumsimpson(p, t), want)


def test_cumsimpson_rejects_unordered_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        _cumsimpson(np.ones(4), np.array([0.0, 1.0, 1.0, 2.0]))


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    out = subprocess.run(
        [sys.executable, "-c", "import enermach.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
