"""Regenerate references.json: outputs of every workload at the default seed.

Usage, from the root of a checkout: python3 perfbench/make_references.py

Run it only on a commit whose outputs are known to be right; run.py then
compares the outputs of later commits with these values at the default
seed (--seed 0).
"""

import json
import sys

import run
from bench_trace import NullTracer

sys.path.insert(0, str(run.ROOT / "src"))

from bench_workloads import WORKLOADS  # noqa: E402


def main():
    refs = {}
    for name in WORKLOADS:
        r = run.Run(name, run.DEFAULT_SEED, "full", NullTracer(), record=True)
        stats = run.Stats()
        try:
            run.time_setup(r.workload)
            for op in r.ops:
                run.run_op(op, NullTracer(), stats)
        finally:
            r.close()
        if stats.failed:
            sys.exit(f"{name}: {stats.errors}")
        refs[name] = r.workload.ctx.references
    with open(run.HERE / "references.json", "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
