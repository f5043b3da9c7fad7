"""Benchmark of enermach: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads: sim-shipped, cli-verbs, sweep-points, batch-eval (see
bench_workloads.py and README.md).  Load comes from one closed-loop client:
the next operation starts when the previous one has finished.  The only
parallelism is the ``sweep`` verb's own process pool, capped at
min(2, nproc) workers.

The run builds its inputs from the seed, times set-ups in fresh
interpreters, and cycles through the workload's operations for --seconds.
Every operation's output is checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a JSON report with every metric, the environment
and the failures seen.  A traced run also writes its spans to
.perfbench_out/.

--smoke runs every workload at tiny sizes, traced and untraced, and checks
the result schema and the metric names against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

from bench_trace import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
# set-ups timed per untraced run, spread over it; setup_s is their median
N_SETUPS = 5

# every end-to-end metric of the report line: (unit, better)
REPORT_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_tail_s": ("s", "lower"),
    "error_rate": ("ratio", "lower"),
    "balance_residual": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# the gated ones, named in BENCHMARK.json and reported by every workload
END_TO_END = {k: REPORT_METRICS[k][0] for k in ("setup_s", "wall_s", "peak_rss_mb")}


def layer_unit(name: str) -> str:
    metric = name.split(".")[1]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if "_us" in metric:
        return "us"
    if metric.startswith("ns_") or "_ns_" in metric:
        return "ns"
    if metric in ("kernel_share", "overhead_frac"):
        return "ratio"
    return "count"


class Stats:
    """Per-operation times and failures of a set of passes."""

    def __init__(self):
        self.times = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def wall(self, ops):
        """Time of one pass: the sum over its operations of each one's median time.

        On a machine shared with other tenants an operation's fastest time
        comes from a rare quiet moment, so the minimum moves more from run
        to run than the median does.
        """
        return sum(statistics.median(self.times[op.name]) for op in ops if self.times[op.name])

    def all_times(self):
        return [t for ts in self.times.values() for t in ts]

    def fail(self, label, exc):
        self.failed += 1
        if len(self.errors) < 10:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.errors.append(f"{label}: {detail}")


def run_op(op, tracer, stats):
    stats.attempted += 1
    t0 = time.perf_counter()
    try:
        value = op.run(tracer)
    except Exception as exc:  # a failed operation is counted, the run goes on
        stats.fail(op.name, exc)
        return
    dt = time.perf_counter() - t0
    try:
        op.check(value, tracer)
    except Exception as exc:
        stats.fail(op.name, exc)
        return
    stats.times[op.name].append(dt)


def measure(ops, seconds, stats, interlude, n_interludes):
    """Cycle through the operations for ``seconds``, untraced.

    ``interlude`` is called ``n_interludes`` times, spread evenly over the
    run: the first call before the first operation, the last one after the
    last operation.  Its time counts against ``seconds`` but not against
    any operation.  The loop stops before an operation that would overrun,
    and it always completes at least one whole pass.
    """
    null = NullTracer()
    t0 = time.perf_counter()
    interlude()
    done, interlude_s = 1, time.perf_counter() - t0
    op_s, k = 0.0, 0
    while True:
        t = time.perf_counter()
        run_op(ops[k % len(ops)], null, stats)
        op_s += time.perf_counter() - t
        k += 1
        elapsed = time.perf_counter() - t0
        if done < n_interludes - 1 and elapsed >= done * seconds / (n_interludes - 1):
            t = time.perf_counter()
            interlude()
            interlude_s += time.perf_counter() - t
            done += 1
            elapsed = time.perf_counter() - t0
        left = (n_interludes - done) * interlude_s / done
        if k >= len(ops) and elapsed + op_s / k + left > seconds:
            break
    while done < n_interludes:
        interlude()
        done += 1


def measure_alternating(ops, seconds, tracer, untraced, traced):
    """Whole passes, alternating untraced and traced, for ``seconds``."""
    null = NullTracer()
    t0 = time.perf_counter()
    passes = 0
    while passes < 2 or (time.perf_counter() - t0) * (passes + 1) / passes <= seconds:
        for op in ops:
            if passes % 2:
                run_op(op, tracer, traced)
            else:
                run_op(op, null, untraced)
        passes += 1


def latency_tail(times):
    """Highest percentile with at least ten samples beyond it (never below p50)."""
    n = len(times)
    pct = 100.0 * (1.0 - 10.0 / n)
    if pct <= 50.0:
        return statistics.median(times), 50.0
    return sorted(times)[math.ceil(pct / 100.0 * n) - 1], pct


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        cp = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = cp.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.yaml")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def time_setup(workload):
    spec_path = workload.ctx.work / "setup.json"
    spec_path.write_text(json.dumps(workload.setup_spec()))
    t0 = time.perf_counter()
    cp = subprocess.run(
        [sys.executable, str(HERE / "bench_setup.py"), str(spec_path)],
        cwd=workload.ctx.work,
        env=workload.ctx.env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    dt = time.perf_counter() - t0
    if cp.returncode != 0:
        raise RuntimeError(f"set-up failed: {cp.stderr.strip()[-500:]}")
    return dt


class Run:
    """One workload at one seed: inputs, set-up, measurement and checks."""

    def __init__(self, name, seed, size_name, tracer, record=False):
        import bench_workloads as bw

        base = ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
        self.size_name = size_name
        if record:
            refs = {}
        elif seed == DEFAULT_SEED and size_name == "full":
            refs = json.loads((HERE / "references.json").read_text())[name]
        else:
            refs = None
        ctx = bw.Context(
            root=ROOT,
            work=self.work,
            seed=seed,
            size=bw.FULL if size_name == "full" else bw.TINY,
            workers=min(2, os.cpu_count() or 1),
            references=refs,
            record=record,
        )
        self.workload = bw.WORKLOADS[name](ctx, tracer)
        self.ops = self.workload.ops()

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def end_to_end(run, stats, setup_runs):
    wl = run.workload
    wall = stats.wall(run.ops)
    times = stats.all_times()
    tail, pct = latency_tail(times) if times else (None, None)
    steps = wl.steps_per_pass()
    values = {
        "setup_s": statistics.median(setup_runs),
        "wall_s": wall,
        "steps_per_s": steps / wall if steps and wall else None,
        "latency_p50_s": statistics.median(times) if times else None,
        "latency_tail_s": tail,
        "error_rate": stats.failed / stats.attempted,
        "balance_residual": max(wl.residuals) if wl.residuals else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {k: {"value": v, "unit": REPORT_METRICS[k][0]} for k, v in values.items()}
    report["latency_tail_s"].update(percentile=pct, samples=len(times))
    report["setup_s"]["runs"] = setup_runs
    return report


def per_layer(run, stats, seconds, tracer, names):
    """Traced passes alternating with untraced ones, then fill-ins.

    Metrics the workload itself cannot produce come from one traced pass
    of the workload that produces them, at the same size and after one
    untraced warm-up pass; the report names the source of each metric.  A
    metric has one meaning per source: ``cli.sweep_point_ms``, for example,
    comes only from sweep-points.
    """
    import bench_workloads as bw

    untraced, fill_stats = Stats(), Stats()
    # the fill-ins below take about as long again
    measure_alternating(run.ops, seconds / 2, tracer, untraced, stats)
    run.workload.trace_extras(tracer)
    metrics = {**bw.span_layer_metrics(tracer), **run.workload.layer_metrics(tracer)}
    metrics["trace.overhead_frac"] = stats.wall(run.ops) / untraced.wall(run.ops) - 1.0
    sources = {k: run.workload.name for k in metrics}
    for other in bw.WORKLOADS.values():
        missing = (set(names) - set(metrics)) & other.produces
        if not missing:
            continue
        fill_tracer = Tracer()
        fill = Run(other.name, run.workload.ctx.seed, run.size_name, fill_tracer)
        try:
            time_setup(fill.workload)
            for tracer_of_pass in (NullTracer(), fill_tracer):
                for op in fill.ops:
                    run_op(op, tracer_of_pass, fill_stats)
            fill.workload.trace_extras(fill_tracer)
            got = {**bw.span_layer_metrics(fill_tracer), **fill.workload.layer_metrics(fill_tracer)}
        finally:
            fill.close()
        for k in missing & set(got):
            metrics[k] = got[k]
            sources[k] = f"{other.name} (one pass)"
    for other_stats in (untraced, fill_stats):
        stats.attempted += other_stats.attempted
        stats.failed += other_stats.failed
        stats.errors += other_stats.errors
    return metrics, sources


def run_workload(name, seed, seconds, trace, size_name="full"):
    """Returns (report, result) for one run."""
    import bench_workloads as bw

    tracer = Tracer() if trace else NullTracer()
    run = Run(name, seed, size_name, tracer)
    stats = Stats()
    try:
        setup_runs = []
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size_name}
        if trace:
            time_setup(run.workload)
            names = sorted(layer_metric_names())
            values, sources = per_layer(run, stats, seconds, tracer, names)
            metrics = {k: {"value": values[k], "unit": layer_unit(k)} for k in names if k in values}
            report["per_layer"] = {k: {**v, "source": sources[k]} for k, v in metrics.items()}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{name}-seed{seed}.json")
            correct = stats.failed == 0 and len(metrics) == len(names)
        else:
            # the machine's speed drifts on a scale of seconds, so the
            # set-ups are spread over the run
            measure(run.ops, seconds, stats, lambda: setup_runs.append(time_setup(run.workload)), N_SETUPS)
            report["metrics"] = end_to_end(run, stats, setup_runs)
            metrics = {k: report["metrics"][k] for k in END_TO_END}
            correct = stats.failed == 0
    finally:
        run.close()
    report.update(
        attempted=stats.attempted,
        failed=stats.failed,
        errors=stats.errors,
        reference_checked=run.workload.ctx.references is not None,
        balance_tolerance=bw.BALANCE_TOL,
        ops={k: {"n": len(v), "median_s": statistics.median(v)} for k, v in stats.times.items()},
        environment=environment(),
    )
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return report, result


def layer_metric_names():
    import bench_workloads as bw

    names = {"trace.overhead_frac"}
    for w in bw.WORKLOADS.values():
        names |= w.produces
    return names


def smoke():
    """Tiny runs of every workload, checked against the schema and BENCHMARK.json."""
    import bench_workloads as bw

    problems = []
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != END_TO_END:
            problems.append(f"BENCHMARK.json end_to_end {declared} != {END_TO_END}")
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared != {n: layer_unit(n) for n in layer_metric_names()}:
            problems.append("BENCHMARK.json per_layer names or units differ from the benchmark's")
        if not {w["name"] for w in spec["workloads"]} <= set(bw.WORKLOADS):
            problems.append("BENCHMARK.json names a workload the benchmark lacks")
    else:
        problems.append("BENCHMARK.json not found")
    for name in bw.WORKLOADS:
        for trace in (0, 1):
            report, result = run_workload(name, 1, 0.1, trace, "tiny")
            want = {n: layer_unit(n) for n in layer_metric_names()} if trace else END_TO_END
            label = f"{name} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: not correct: {report['errors']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metric names/units differ: {sorted(set(got) ^ set(want))}")
            for k, v in result["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    problems.append(f"{label}: {k} = {v['value']!r}")
            if not trace:
                missing = [k for k in REPORT_METRICS if k not in report["metrics"]]
                if missing:
                    problems.append(f"{label}: report lacks {missing}")
            print(f"smoke: {label}: {result['attempted']} operations", flush=True)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("sim-shipped", "cli-verbs", "sweep-points", "batch-eval"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny schema check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "enermach" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no enermach sources (src/enermach, configs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
