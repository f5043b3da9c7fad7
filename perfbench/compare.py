"""Compare a parent checkout and a change on the benchmark, pair by pair.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
        [--workload NAME ...] [--seed-base 1000]

Each directory is the root of a checkout (src/, configs/, perfbench/,
BENCHMARK.json).  For every workload the script makes PAIRS (10) pairs of
untraced runs, each as long as the parent's BENCHMARK.json run_seconds.
Both runs of a pair use the same seed, and the side that
runs first alternates from pair to pair.  Pick a --seed-base that was not
used while the change was written.

One row is printed per workload and metric: each side's median and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict.  Bounds come from the parent's BENCHMARK.json; metrics of
the report line without a bound get no regression verdict.

  gain        the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's interquartile range, as a share of its median,
              exceeds the bound, and not every change run beats every
              parent run
  same        none of the above

A gain is void when the change failed more operations than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import REPORT_METRICS

PAIRS = 10


def run_side(root: Path, workload: str, seed: int, seconds: float):
    cp = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = cp.stdout.strip().splitlines()
    if cp.returncode != 0 or len(lines) < 2:
        sys.exit(f"{root}: {workload} seed {seed} failed: {cp.stderr.strip()[-500:]}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {k: v["value"] for k, v in report["metrics"].items() if v["value"] is not None}
    return values, result["failed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, failures_up):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    win_share = wins / len(parent)
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if win_share >= 0.9 and abs(cm - pm) > p3 - p1 and sign * (pm - cm) > 0:
        label = "void (more failures)" if failures_up else "gain"
    elif bound is not None and worse_by > bound:
        label = "regression"
    elif bound is not None and pm and (p3 - p1) / abs(pm) > bound and not every_better:
        label = "unresolved"
    else:
        label = "same"
    return win_share, label


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "perfbench").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Pairwise parent/change comparison.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if tree_digest(args.parent) != tree_digest(args.change):
        print("warning: the two checkouts run different benchmark code", file=sys.stderr)

    rows = []
    print(f"{'workload':13s} {'metric':16s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
          f"{'wins':>5s} verdict")
    for workload in workloads:
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                values, n_failed = run_side(getattr(args, side), workload, args.seed_base + k, seconds)
                runs[side].append(values)
                failed[side] += n_failed
        for metric, (_, better) in REPORT_METRICS.items():
            pairs = [(p[metric], c[metric]) for p, c in zip(runs["parent"], runs["change"])
                     if metric in p and metric in c]
            if not pairs:
                continue
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            win_share, label = verdict(parent, change, better, bounds.get(metric),
                                       failed["change"] > failed["parent"])
            pq, cq = quartiles(parent), quartiles(change)
            rows.append({"workload": workload, "metric": metric, "parent": pq, "change": cq,
                         "wins": win_share, "pairs": len(pairs), "verdict": label})
            print(f"{workload:13s} {metric:16s} {'/'.join(f'{v:.4g}' for v in pq):>32s} "
                  f"{'/'.join(f'{v:.4g}' for v in cq):>32s} {win_share:5.2f} {label}", flush=True)
    print(json.dumps({"rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
