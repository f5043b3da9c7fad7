"""`import enermach.cli` leaves the validate and identify modules to the verbs that use them."""

import os
import subprocess
import sys

from enermach.cli import EXIT_NUMERIC

from helpers import CONFIG_DIR

SRC_DIR = CONFIG_DIR.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))


def _python(*argv):
    return subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, text=True, timeout=60)


def test_importing_the_cli_loads_neither_validate_nor_identify():
    run = _python("-c", "import sys, enermach.cli; print(sorted({'enermach.validate', 'enermach.identify'} & set(sys.modules)))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_a_rank_deficient_fit_still_exits_2_in_a_fresh_process(tmp_path):
    flat = tmp_path / "flat.csv"
    rows = [f"{0.196 + 0.01 * k!r},0.0,{10.0 * 0.01 * k!r},0.0" for k in range(10)]
    flat.write_text("\n".join(["phi_d,phi_q,i_d,i_q", *rows]) + "\n")
    config = str(CONFIG_DIR / "saturated_ipm.yaml")
    run = _python("-m", "enermach.cli", "identify", "--config", config, "--samples", str(flat), "--out", str(tmp_path / "fit.csv"))
    assert run.returncode == EXIT_NUMERIC, run.stderr
    assert run.stderr.startswith("error: ") and "unobservable" in run.stderr and "Traceback" not in run.stderr
