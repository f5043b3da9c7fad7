"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py
The smoke test runs every workload at tiny sizes (about two minutes) and
checks the result schema and the metric names against BENCHMARK.json; it
asserts nothing about timings.
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402


def test_latency_tail_keeps_ten_samples_beyond():
    times = [float(k) for k in range(1, 101)]
    value, pct = run.latency_tail(times)
    assert pct == pytest.approx(90.0)
    assert sum(1 for t in times if t > value) == 10


def test_latency_tail_never_below_median():
    value, pct = run.latency_tail([3.0, 1.0, 2.0])
    assert (value, pct) == (2.0, 50.0)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, False) == (1.0, "gain")
    assert compare.verdict(parent, faster, "lower", 0.1, True)[1] == "void (more failures)"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1, False)[1] == "regression"
    assert compare.verdict(parent, list(parent), "lower", 0.1, False)[1] == "same"
    noisy = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.2, 0.9, 1.1]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1, False)[1] == "unresolved"


def test_layer_units():
    assert run.layer_unit("cli.verb_s.im-sim") == "s"
    assert run.layer_unit("config.load_ms") == "ms"
    assert run.layer_unit("dynamics.write_csv_us_per_row") == "us"
    assert run.layer_unit("validate.ns_per_sample.parity") == "ns"
    assert run.layer_unit("harmonics.batch_ns_per_state") == "ns"
    assert run.layer_unit("energy.kernel_share.synrm") == "ratio"
    assert run.layer_unit("identify.gn_iterations") == "count"


def test_smoke():
    cp = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert cp.returncode == 0, cp.stdout[-3000:] + cp.stderr[-3000:]
    assert cp.stdout.strip().endswith("smoke: ok")
