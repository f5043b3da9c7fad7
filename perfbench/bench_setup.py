"""One set-up, as a user pays it, in a fresh interpreter.

Usage: python3 bench_setup.py SPEC.json

The spec lists the enermach modules the workload imports, the config files
it loads (which builds their models) and, optionally, a stride-1
trajectory to simulate and write.  run.py times this whole process, from
spawn to exit; that time is the ``setup_s`` metric.
"""

import importlib
import json
import sys


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    for module in spec["imports"]:
        importlib.import_module(module)

    from enermach.config import load_config

    for path in spec["configs"]:
        load_config(path)
    if "trajectory" in spec:
        from enermach.dynamics import simulate_pmsm

        cfg = load_config(spec["trajectory"]["config"])
        simulate_pmsm(cfg.model, cfg.initial, cfg.drive, cfg.sim).write_csv(spec["trajectory"]["out"])


if __name__ == "__main__":
    main(sys.argv[1])
