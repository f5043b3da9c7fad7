"""The four benchmark workloads.

A workload builds its seeded inputs in a work directory, then exposes one
pass as a list of operations.  Each operation has a timed ``run`` and an
untimed ``check``; a check raises :class:`CheckFailed` when an output is
wrong.  Every workload drives enermach from outside: public functions in
this process, and the ``enermach`` command line in subprocesses.
"""

from __future__ import annotations

import copy
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from enermach.config import load_config
from enermach.dynamics import Trajectory, power_balance, simulate_im, simulate_pmsm
from enermach.harmonics import ripple_torque
from enermach.identify import fit_saturation, read_samples_csv
from enermach.validate import (
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
)

from bench_inputs import SHIPPED, identify_samples, perturbed, shipped_raw, write_config
from bench_trace import KERNEL_METHODS, KernelTimer

# worst accepted power_balance residual.  On a stride-1 record it measures
# the integrator; on a thinned record mostly the quadrature of the thinned
# samples.  The PMSM configs at their shipped strides stay below 2.5e-6
# over 60 seeds (synrm at stride 50 is the worst), hence 2e-5 for them.
# The induction model at its shipped stride 100 over 15 record intervals
# gives about 2.3e-2, so its thinned records get a loose bound that still
# catches a broken energy flow, which shows as a residual of order one.
BALANCE_TOL = {"stride-1": 1.0e-6, "thinned": 2.0e-5, "thinned-induction": 1.0e-1}
# relative tolerance on final states compared with references.json; only
# these columns are compared, so a record that gains columns still passes
REFERENCE_RTOL = 1.0e-7
REFERENCE_COLUMNS = ("t", "theta", "rho", "omega", "phi_d", "phi_q", "i_d", "i_q", "torque")
# relative tolerance on coefficients recovered by the identify round trip
FIT_RTOL_EXACT = 1.0e-6
FIT_RTOL_NOISY = 5.0e-3
IDENTIFY_NOISE = 1.0e-4

# the module that defines each shipped config's model kind at the parent
# commit; fixed here so the metric names survive a later move of the classes
MODULE_OF = {
    "linear_ipm": "energy",
    "synrm": "energy",
    "saturated_ipm": "saturation",
    "saturated_spm": "saturation",
    "harmonic_ipm": "harmonics",
    "im_2kw": "induction",
}
KERNEL_MODULES = ("energy", "saturation", "harmonics", "induction")
CHECKS = ("reciprocity", "period", "parity", "synrm_evenness", "im_rotation")
VERBS = ("simulate", "im-sim", "identify", "ripple", "validate", "flux-map", "sweep")
# verb -> shipped config it runs on; together they cover all six configs
VERB_CONFIG = {
    "simulate": "saturated_ipm",
    "im-sim": "im_2kw",
    "identify": "saturated_spm",
    "ripple": "harmonic_ipm",
    "validate": "linear_ipm",
    "flux-map": "synrm",
    "sweep": "im_2kw",
}


@dataclass(frozen=True)
class Size:
    """Input sizes.  FULL is the measured benchmark, TINY the smoke test."""

    sim_t_scale: float  # sim-shipped: share of each shipped t_end
    cli_t_scale: float  # cli-verbs: share of the shipped t_end for run verbs
    sweep_points: int
    sweep_steps: int
    check_samples: int  # batch-eval validate n_samples
    grid: int  # batch-eval kernel grid side (grid**2 states)
    ripple_points: int
    long_steps: int  # batch-eval stride-1 trajectory
    id_grid: int  # identify samples: id_grid**2 points
    kernel_probe_calls: int


FULL = Size(0.03, 0.05, 12, 1000, 40_000, 200, 50_000, 4000, 15, 200)
TINY = Size(0.01, 0.01, 2, 100, 500, 20, 600, 200, 5, 10)


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]  # tracer -> value; timed
    check: Callable[[Any, Any], None]  # (value, tracer) -> None; untimed, raises CheckFailed


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    size: Size
    workers: int
    references: Optional[dict] = None  # this workload's reference values, or None
    record: bool = False  # store the values into ``references`` instead of comparing

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["ENERMACH_OUT_DIR"] = str(self.work)
        return env

    def cli(self, *argv, timeout=170) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "enermach.cli", *argv],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def check_reference(self, key: str, values: Dict[str, float]) -> None:
        if self.references is None:
            return
        if self.record:
            self.references[key] = {k: float(v) for k, v in values.items()}
            return
        for name, want in self.references[key].items():
            got = values.get(name)
            if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
                raise CheckFailed(f"{key}: {name} = {got!r}, reference {want!r} for this seed")


def final_state(traj: Trajectory) -> Dict[str, float]:
    """Last recorded values of the state and output columns every record has."""
    return {c: float(traj.column(c)[-1]) for c in REFERENCE_COLUMNS}


def run_trajectory(cfg) -> Trajectory:
    if cfg.model.flux_dim == 4:
        return simulate_im(cfg.model.params, cfg.initial, cfg.drive, cfg.sim)
    return simulate_pmsm(cfg.model, cfg.initial, cfg.drive, cfg.sim)


def n_steps(cfg) -> int:
    return max(1, int(round(cfg.sim.t_end / cfg.sim.dt)))


def check_trajectory(traj: Trajectory, rows: int, label: str) -> None:
    if len(traj) != rows:
        raise CheckFailed(f"{label}: {len(traj)} rows, expected {rows}")
    if not np.all(np.isfinite(traj.data)):
        raise CheckFailed(f"{label}: non-finite values in the trajectory")


def check_balance(residual: float, cfg, label: str) -> float:
    if cfg.sim.record_stride == 1:
        tol = BALANCE_TOL["stride-1"]
    else:
        tol = BALANCE_TOL["thinned-induction" if cfg.model.flux_dim == 4 else "thinned"]
    if not (math.isfinite(residual) and residual <= tol):
        raise CheckFailed(f"{label}: power balance residual {residual!r} above {tol}")
    return residual


def expected_rows(cfg) -> int:
    n, stride = n_steps(cfg), cfg.sim.record_stride
    return 1 + n // stride + (1 if n % stride else 0)


def check_exit(cp: subprocess.CompletedProcess, label: str) -> None:
    if cp.returncode != 0:
        raise CheckFailed(f"{label}: exit code {cp.returncode}: {cp.stderr.strip()[-300:]}")


class Workload:
    name = ""
    # per-layer metric names this workload's traced run produces
    produces: frozenset = frozenset()
    # modules a fresh interpreter imports during set-up
    setup_imports = ("enermach.config", "enermach.dynamics")

    def __init__(self, ctx: Context, tracer):
        self.ctx = ctx
        self.size = ctx.size
        self.rng = np.random.default_rng(ctx.seed)
        self.config_paths: List[Path] = []
        self.residuals: List[float] = []
        self.setup_extra: dict = {}
        self.prepare(tracer)

    def load(self, name: str, raw: dict, tracer):
        path = write_config(raw, self.ctx.work / f"{name}.yaml")
        self.config_paths.append(path)
        with tracer.span("config.load", config=name):
            return load_config(path)

    def setup_spec(self) -> dict:
        """What a fresh interpreter loads during set-up (see bench_setup.py)."""
        return {
            "imports": list(self.setup_imports),
            "configs": [str(p) for p in self.config_paths],
            **self.setup_extra,
        }

    def prepare(self, tracer) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def steps_per_pass(self) -> Optional[int]:
        return None

    def trace_extras(self, tracer) -> None:
        """Extra traced measurements made once, outside the timed passes."""

    def layer_metrics(self, tracer) -> Dict[str, float]:
        return {}


def span_layer_metrics(tracer) -> Dict[str, float]:
    """Per-layer metrics any workload yields from its spans."""
    out = {}
    loads = tracer.durations("config.load")
    if loads:
        out["config.load_ms"] = 1e3 * statistics.mean(loads)
    for span, metric in (
        ("dynamics.write_csv", "dynamics.write_csv_us_per_row"),
        ("dynamics.read_csv", "dynamics.read_csv_us_per_row"),
        ("dynamics.power_balance", "dynamics.power_balance_us_per_row"),
    ):
        rows = tracer.attr_sum(span, "rows")
        if rows:
            out[metric] = 1e6 * tracer.total(span) / rows
    for name in SHIPPED:
        steps = tracer.attr_sum("dynamics.simulate", "steps", config=name)
        if steps:
            out[f"dynamics.step_us.{name}"] = 1e6 * tracer.total("dynamics.simulate", config=name) / steps
    return out


# ---------------------------------------------------------------------------


class SimShipped(Workload):
    """The six shipped configs through simulate, power_balance and write_csv."""

    name = "sim-shipped"
    produces = frozenset(
        ["config.load_ms", "dynamics.steps", "dynamics.rows", "dynamics.csv_bytes"]
        + ["dynamics.write_csv_us_per_row", "dynamics.power_balance_us_per_row"]
        + [f"dynamics.step_us.{n}" for n in SHIPPED]
        + [f"energy.calls_per_step.{n}" for n in SHIPPED]
        + [f"energy.kernel_share.{n}" for n in SHIPPED]
        + [f"{m}.kernel_call_us" for m in KERNEL_MODULES]
    )

    def prepare(self, tracer):
        self.cfgs = {
            n: self.load(n, perturbed(shipped_raw(self.ctx.root, n), self.rng, self.size.sim_t_scale), tracer)
            for n in SHIPPED
        }
        self.rows: Dict[str, int] = {}
        self.csv_bytes: Dict[str, int] = {}
        self.kernel: Dict[str, float] = {}

    def steps_per_pass(self):
        return sum(n_steps(c) for c in self.cfgs.values())

    def ops(self):
        return [Op(f"sim:{n}", self._runner(n), self._checker(n)) for n in SHIPPED]

    def _runner(self, name):
        cfg = self.cfgs[name]
        out = self.ctx.work / f"{name}_traj.csv"

        def run(tracer):
            with tracer.span("dynamics.simulate", config=name, steps=n_steps(cfg)):
                traj = run_trajectory(cfg)
            with tracer.span("dynamics.power_balance", rows=len(traj)):
                residual = power_balance(cfg.model, traj)
            with tracer.span("dynamics.write_csv", rows=len(traj)):
                traj.write_csv(out)
            return traj, residual

        return run

    def _checker(self, name):
        cfg = self.cfgs[name]

        def check(value, tracer):
            traj, residual = value
            check_trajectory(traj, expected_rows(cfg), name)
            self.residuals.append(check_balance(residual, cfg, name))
            self.rows[name] = len(traj)
            self.csv_bytes[name] = os.path.getsize(self.ctx.work / f"{name}_traj.csv")
            self.ctx.check_reference(name, final_state(traj))

        return check

    def trace_extras(self, tracer):
        """One run per config with every model method wrapped in a counting timer.

        Kept apart from the span passes so the wrappers' own cost does not
        reach the step times.  A short one-state probe afterwards covers the
        induction model, whose simulator never calls the model methods.
        """
        timer = KernelTimer()
        for name in SHIPPED:
            cfg = load_config(self.ctx.work / f"{name}.yaml")
            timer.wrap(cfg.model, MODULE_OF[name])
            calls0, secs0 = timer.snapshot()
            with tracer.span("dynamics.simulate.kernel_timed", config=name) as span:
                traj = run_trajectory(cfg)
            calls1, secs1 = timer.snapshot()
            wall = span[3] - span[2]
            self.kernel[f"energy.calls_per_step.{name}"] = (calls1 - calls0) / n_steps(cfg)
            self.kernel[f"energy.kernel_share.{name}"] = (secs1 - secs0) / wall
            theta, rho, phi = traj.column("theta")[-1], traj.column("rho")[-1], traj.flux()[-1]
            for _ in range(self.size.kernel_probe_calls):
                for method in KERNEL_METHODS:
                    getattr(cfg.model, method)(theta, rho, phi)
        for module in KERNEL_MODULES:
            self.kernel[f"{module}.kernel_call_us"] = 1e6 * timer.seconds[module] / timer.calls[module]

    def layer_metrics(self, tracer):
        out = dict(self.kernel)
        out["dynamics.steps"] = self.steps_per_pass()
        out["dynamics.rows"] = sum(self.rows.values())
        out["dynamics.csv_bytes"] = sum(self.csv_bytes.values())
        return out


# ---------------------------------------------------------------------------


class CliVerbs(Workload):
    """Fresh ``enermach`` processes, one per verb, over the shipped configs."""

    name = "cli-verbs"
    produces = frozenset(
        ["cli.interpreter_s", "cli.import_s", "config.load_ms"]
        + [f"cli.verb_s.{v}" for v in VERBS]
    )
    setup_imports = ("enermach.cli",)

    def prepare(self, tracer):
        self.cfgs = {}
        for name in sorted(set(VERB_CONFIG.values())):
            raw = perturbed(shipped_raw(self.ctx.root, name), self.rng, self.size.cli_t_scale)
            self.cfgs[name] = self.load(name, raw, tracer)
        sweep_raw = copy.deepcopy(self.cfgs["im_2kw"].raw)
        base = sweep_raw["drive"]["voltage"]["u_d"]
        sweep_raw["sweep"] = {
            "parameter": "drive.voltage.u_d",
            "values": [float(base * (1.0 + 0.1 * u)) for u in self.rng.uniform(-1.0, 1.0, 2)],
            "workers": self.ctx.workers,
        }
        self.sweep_cfg = self.load("im_2kw_sweep", sweep_raw, tracer)
        self.samples_csv = self.ctx.work / "flux_current.csv"
        self.true_fit = self.cfgs["saturated_spm"].model.params
        identify_samples(
            self.true_fit,
            self.samples_csv,
            seed=int(self.rng.integers(2**31)),
            noise=IDENTIFY_NOISE,
            n_grid=self.size.id_grid,
        )

    def ops(self):
        return [Op(f"cli:{verb}", self._runner(verb), self._checker(verb)) for verb in VERBS]

    def _out(self, verb):
        return self.ctx.work / ("sweep_out" if verb == "sweep" else f"{verb}_out.csv")

    def _runner(self, verb):
        name = VERB_CONFIG[verb]
        config = self.ctx.work / (f"{name}_sweep.yaml" if verb == "sweep" else f"{name}.yaml")
        argv = [verb, "--config", str(config), "--out", str(self._out(verb)), "--quiet"]
        if verb == "identify":
            argv += ["--samples", str(self.samples_csv)]

        def run(tracer):
            with tracer.span("cli.verb", verb=verb):
                return self.ctx.cli(*argv)

        return run

    def _checker(self, verb):
        cfg = self.cfgs[VERB_CONFIG[verb]]
        out = self._out(verb)

        def check(cp, tracer):
            check_exit(cp, verb)
            if verb in ("simulate", "im-sim"):
                traj = Trajectory.read_csv(out)
                check_trajectory(traj, expected_rows(cfg), verb)
                self.residuals.append(check_balance(power_balance(cfg.model, traj), cfg, verb))
                self.ctx.check_reference(verb, final_state(traj))
            elif verb == "identify":
                self._check_fit(out)
            elif verb == "ripple":
                data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                spec = cfg.ripple
                theta = np.linspace(spec["theta_min"], spec["theta_max"], spec["n_points"])
                want = ripple_torque(cfg.model, theta, spec["rho"], np.array(spec["phi"]))
                if data.shape != (theta.size, 2) or not np.array_equal(data[:, 1], want):
                    raise CheckFailed("ripple: CSV differs from ripple_torque on the same grid")
            elif verb == "flux-map":
                data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
                (_, _, nd), (_, _, nq) = cfg.flux_map["phi_d"], cfg.flux_map["phi_q"]
                if data.shape != (nd * nq, 5) or not np.all(np.isfinite(data)):
                    raise CheckFailed(f"flux-map: CSV shape {data.shape}, expected {(nd * nq, 5)}")
            elif verb == "sweep":
                files = sorted(out.glob("*.csv"))
                if len(files) != 2:
                    raise CheckFailed(f"sweep: {len(files)} CSV files, expected 2")
                for path in files:
                    check_trajectory(Trajectory.read_csv(path), expected_rows(self.sweep_cfg), "sweep")

        return check

    def _check_fit(self, out):
        got = {}
        with open(out) as f:
            header = f.readline().strip()
            if header != "name,value,std_error":
                raise CheckFailed(f"identify: unexpected header {header!r}")
            for line in f:
                name, value, _ = line.strip().split(",")
                got[name] = float(value)
        want = self.true_fit.scaled_values()
        if set(got) != set(want):
            raise CheckFailed(f"identify: report names {sorted(got)}")
        for name, value in want.items():
            if abs(got[name] - value) > FIT_RTOL_NOISY * abs(value):
                raise CheckFailed(f"identify: {name} = {got[name]!r}, generated {value!r}")

    def trace_extras(self, tracer):
        probes = {
            "cli.interpreter": ["-c", "pass"],
            "cli.import": [
                "-c",
                "import time; t = time.perf_counter(); import enermach.cli; "
                "print(time.perf_counter() - t)",
            ],
        }
        self.import_s = []
        for _ in range(3):
            for span, argv in probes.items():
                with tracer.span(span):
                    cp = subprocess.run(
                        [sys.executable, *argv], cwd=self.ctx.work, env=self.ctx.env,
                        capture_output=True, text=True, timeout=170,
                    )
                check_exit(cp, span)
                if span == "cli.import":
                    self.import_s.append(float(cp.stdout))

    def layer_metrics(self, tracer):
        out = {}
        for verb in VERBS:
            times = [s[3] - s[2] for s in tracer.spans if s[0] == "cli.verb" and s[4]["verb"] == verb]
            if times:
                out[f"cli.verb_s.{verb}"] = statistics.median(times)
        if tracer.durations("cli.interpreter"):
            out["cli.interpreter_s"] = statistics.median(tracer.durations("cli.interpreter"))
            out["cli.import_s"] = statistics.median(self.import_s)
        return out


# ---------------------------------------------------------------------------


class SweepPoints(Workload):
    """The ``sweep`` verb over seeded amp_q values of saturated_ipm, read back."""

    name = "sweep-points"
    produces = frozenset(
        [
            "cli.sweep_point_ms",
            "config.load_ms",
            "dynamics.step_us.saturated_ipm",
            "dynamics.steps",
            "dynamics.rows",
            "dynamics.csv_bytes",
            "dynamics.write_csv_us_per_row",
            "dynamics.read_csv_us_per_row",
            "dynamics.power_balance_us_per_row",
        ]
    )
    setup_imports = ("enermach.cli",)
    # sampled points per pass that are re-run in process for the byte check
    BYTE_CHECKS = 1

    def prepare(self, tracer):
        raw = shipped_raw(self.ctx.root, "saturated_ipm")
        raw["sim"]["t_end"] = self.size.sweep_steps * float(raw["sim"]["dt"])
        raw["sim"]["record_stride"] = 1
        base = float(raw["drive"]["voltage"]["amp_q"])
        self.values = [float(base * (1.0 + 0.1 * u)) for u in self.rng.uniform(-1.0, 1.0, self.size.sweep_points)]
        raw["sweep"] = {"parameter": "drive.voltage.amp_q", "values": self.values, "workers": self.ctx.workers}
        self.cfg = self.load("saturated_ipm", raw, tracer)
        self.out_dir = self.ctx.work / "sweep_out"
        self.out_dir.mkdir()
        self.csv_bytes = 0

    def steps_per_pass(self):
        return len(self.values) * n_steps(self.cfg)

    def ops(self):
        return [Op("sweep", self._sweep, self._check_sweep), Op("read_back", self._read_back, self._check_read)]

    def _sweep(self, tracer):
        for old in self.out_dir.glob("*.csv"):
            old.unlink()
        with tracer.span("cli.sweep", points=len(self.values)):
            return self.ctx.cli("sweep", "--config", str(self.config_paths[0]), "--out", str(self.out_dir), "--quiet")

    def _check_sweep(self, cp, tracer):
        check_exit(cp, "sweep")
        files = sorted(self.out_dir.glob("*.csv"))
        if len(files) != len(self.values):
            raise CheckFailed(f"sweep: {len(files)} CSV files, expected {len(self.values)}")
        self.csv_bytes = sum(os.path.getsize(p) for p in files)

    def _read_back(self, tracer):
        trajs = []
        for path in sorted(self.out_dir.glob("*.csv")):
            with tracer.span("dynamics.read_csv", rows=self.size.sweep_steps + 1):
                trajs.append((path, Trajectory.read_csv(path)))
        return trajs

    def _check_read(self, trajs, tracer):
        if len(trajs) != len(self.values):
            raise CheckFailed(f"read_back: {len(trajs)} trajectories, expected {len(self.values)}")
        for k, (path, traj) in enumerate(trajs):
            check_trajectory(traj, expected_rows(self.cfg), path.name)
            with tracer.span("dynamics.power_balance", rows=len(traj)):
                residual = power_balance(self.cfg.model, traj)
            self.residuals.append(check_balance(residual, self.cfg, path.name))
            self.ctx.check_reference(f"point_{k}", final_state(traj))
        for k in self.rng.choice(len(trajs), size=min(self.BYTE_CHECKS, len(trajs)), replace=False):
            self._check_bytes(int(k), trajs[k][0], tracer)

    def _check_bytes(self, k, path, tracer):
        raw = copy.deepcopy(self.cfg.raw)
        raw["drive"]["voltage"]["amp_q"] = self.values[k]
        cfg = load_config(write_config(raw, self.ctx.work / "direct.yaml"))
        with tracer.span("dynamics.simulate", config="saturated_ipm", steps=n_steps(cfg)):
            traj = run_trajectory(cfg)
        direct = self.ctx.work / "direct.csv"
        with tracer.span("dynamics.write_csv", rows=len(traj)):
            traj.write_csv(direct)
        if direct.read_bytes() != path.read_bytes():
            raise CheckFailed(f"sweep point {k}: CSV is not byte-identical to a direct run")

    def layer_metrics(self, tracer):
        out = {
            "dynamics.steps": self.steps_per_pass(),
            "dynamics.rows": len(self.values) * (self.size.sweep_steps + 1),
            "dynamics.csv_bytes": self.csv_bytes,
        }
        sweeps = tracer.durations("cli.sweep")
        if sweeps:
            out["cli.sweep_point_ms"] = 1e3 * statistics.median(sweeps) / len(self.values)
        return out


# ---------------------------------------------------------------------------


class BatchEval(Workload):
    """The array path: checks, kernels on grids, ripple, fits, trajectory I/O."""

    name = "batch-eval"
    produces = frozenset(
        ["config.load_ms", "harmonics.ripple_us_per_point"]
        + [f"{m}.batch_ns_per_state" for m in KERNEL_MODULES]
        + [f"validate.ns_per_sample.{c}" for c in CHECKS]
        + ["identify.fit_ms", "identify.fit_refine_ms", "identify.gn_iterations", "identify.read_samples_ms"]
        + ["dynamics.read_csv_us_per_row", "dynamics.write_csv_us_per_row", "dynamics.power_balance_us_per_row"]
        + ["dynamics.rows", "dynamics.csv_bytes"]
    )
    setup_imports = (
        "enermach.config",
        "enermach.dynamics",
        "enermach.validate",
        "enermach.identify",
        "enermach.harmonics",
    )

    def prepare(self, tracer):
        self.cfgs = {
            n: self.load(n, perturbed(shipped_raw(self.ctx.root, n), self.rng, 1.0), tracer) for n in SHIPPED
        }
        self.states = {n: self._states(c) for n, c in self.cfgs.items()}
        self.check_seed = int(self.rng.integers(2**31))
        # seeded operating point for the ripple grid, inside the trust box
        phi_M = self.cfgs["harmonic_ipm"].model.params.phi_M
        self.ripple_phi = np.array([phi_M, 0.0]) + 0.5 * phi_M * self.rng.uniform(-1.0, 1.0, 2)

        self.samples_csv = self.ctx.work / "flux_current.csv"
        self.true_fit = self.cfgs["saturated_spm"].model.params
        identify_samples(self.true_fit, self.samples_csv, seed=0, noise=0.0, n_grid=self.size.id_grid)

        long_raw = perturbed(shipped_raw(self.ctx.root, "saturated_ipm"), self.rng, 1.0)
        long_raw["sim"]["t_end"] = self.size.long_steps * float(long_raw["sim"]["dt"])
        long_raw["sim"]["record_stride"] = 1
        self.long_cfg = load_config(write_config(long_raw, self.ctx.work / "long.yaml"))
        self.long_csv = self.ctx.work / "long.csv"
        self.setup_extra = {"trajectory": {"config": str(self.ctx.work / "long.yaml"), "out": str(self.long_csv)}}
        self.gn_iterations = None
        self.csv_bytes = 0

    def _states(self, cfg):
        """Dense flux grid over the model's trust box, with seeded angle and momentum."""
        g = self.size.grid
        if cfg.model.flux_dim == 4:
            phi = 0.5 * self.rng.uniform(-1.0, 1.0, (g * g, 4))
        else:
            phi_M = float(getattr(cfg.model.params, "phi_M", 0.0))
            center, half = (phi_M, phi_M) if phi_M > 0.0 else (0.0, 0.25)
            dd, qq = np.meshgrid(
                np.linspace(center - half, center + half, g), np.linspace(-half, half, g), indexing="ij"
            )
            phi = np.stack([dd.ravel(), qq.ravel()], axis=-1)
        theta = self.rng.uniform(0.0, 2.0 * math.pi, len(phi))
        rho = self.rng.uniform(-1.0, 1.0, len(phi)) / cfg.model.params.kinetic_coeff * 100.0
        return theta, rho, phi

    def ops(self):
        ops = []
        for n in SHIPPED:
            ops.append(Op(f"validate:{n}", self._validator(n), self._check_reports))
            ops.append(Op(f"kernels:{n}", self._kernels(n), self._kernel_checker(n)))
        ops.append(Op("ripple:harmonic_ipm", self._ripple, self._check_ripple))
        ops.append(Op("identify", self._identify, self._check_identify))
        ops.append(Op("trajectory", self._trajectory, self._check_trajectory))
        return ops

    def _validator(self, name):
        cfg = self.cfgs[name]
        m, n, tol = cfg.model, self.size.check_samples, cfg.validate["tol"]
        if m.flux_dim == 4:
            checks = [("reciprocity", check_reciprocity), ("im_rotation", check_im_rotation)]
        else:
            checks = [("reciprocity", check_reciprocity), ("period", check_period), ("parity", check_parity)]
            if cfg.model_kind == "synrm":
                checks.append(("synrm_evenness", check_synrm_evenness))

        def run(tracer):
            reports = []
            for check, fn in checks:
                with tracer.span("validate.check", check=check, samples=n):
                    reports.append(fn(m, n_samples=n, tol=tol, seed=self.check_seed))
            return reports

        return run

    @staticmethod
    def _check_reports(reports, tracer):
        for r in reports:
            if not r.passed:
                raise CheckFailed(r.summary())

    def _kernels(self, name):
        m = self.cfgs[name].model
        theta, rho, phi = self.states[name]

        def run(tracer):
            with tracer.span("kernel.batch", module=MODULE_OF[name], states=len(phi)):
                return [getattr(m, method)(theta, rho, phi) for method in KERNEL_METHODS]

        return run

    def _kernel_checker(self, name):
        def check(outputs, tracer):
            h, i, dth, drho = (np.asarray(o) for o in outputs)
            n, dim = self.states[name][2].shape
            if h.shape != (n,) or i.shape != (n, dim) or dth.shape != (n,) or drho.shape != (n,):
                raise CheckFailed(f"kernels:{name}: unexpected output shapes")
            if not all(np.all(np.isfinite(o)) for o in (h, i, dth, drho)):
                raise CheckFailed(f"kernels:{name}: non-finite outputs")
            sums = (np.sum(np.abs(o)) for o in (h, i, dth, drho))
            self.ctx.check_reference(f"kernels:{name}", dict(zip(KERNEL_METHODS, sums)))

        return check

    def _ripple(self, tracer):
        p = self.size.ripple_points
        theta = np.linspace(0.0, 2.0 * math.pi / 3.0, 2 * p, endpoint=False)
        with tracer.span("harmonics.ripple", points=theta.size):
            return ripple_torque(self.cfgs["harmonic_ipm"].model, theta, 0.0, self.ripple_phi)

    def _check_ripple(self, t, tracer):
        # the grid spans two ripple periods, so the second half repeats the first
        half = len(t) // 2
        scale = max(float(np.max(np.abs(t))), 1e-30)
        if not np.all(np.isfinite(t)) or np.max(np.abs(t[:half] - t[half:])) > 1e-9 * scale:
            raise CheckFailed("ripple: torque is not pi/3 periodic")
        self.ctx.check_reference("ripple", {"mean": np.mean(t), "peak_to_peak": np.ptp(t)})

    def _identify(self, tracer):
        c = self.true_fit
        with tracer.span("identify.read_samples"):
            samples = read_samples_csv(self.samples_csv)
        with tracer.span("identify.fit"):
            fit = fit_saturation(samples, phi_M=c.phi_M)
        with tracer.span("identify.fit_refine"):
            refined = fit_saturation(samples, phi_M=c.phi_M * 1.05, refine_phi_M=True)
        return fit, refined

    def _check_identify(self, fits, tracer):
        want = self.true_fit
        for label, fit in zip(("fit", "refined fit"), fits):
            got = fit.coefficients
            for key in ("phi_M", "inv_L_d", "inv_L_q", "alpha_30", "alpha_12", "alpha_40", "alpha_22", "alpha_04"):
                a, b = getattr(got, key), getattr(want, key)
                if abs(a - b) > FIT_RTOL_EXACT * abs(b):
                    raise CheckFailed(f"identify {label}: {key} = {a!r}, generated {b!r}")
        if not fits[1].converged:
            raise CheckFailed("identify: phi_M refinement did not converge")
        self.gn_iterations = fits[1].iterations

    def _trajectory(self, tracer):
        rows = self.size.long_steps + 1
        copy_csv = self.ctx.work / "long_copy.csv"
        with tracer.span("dynamics.read_csv", rows=rows):
            traj = Trajectory.read_csv(self.long_csv)
        with tracer.span("dynamics.power_balance", rows=rows):
            residual = power_balance(self.long_cfg.model, traj)
        with tracer.span("dynamics.write_csv", rows=rows):
            traj.write_csv(copy_csv)
        return traj, residual, copy_csv

    def _check_trajectory(self, value, tracer):
        traj, residual, copy_csv = value
        check_trajectory(traj, self.size.long_steps + 1, "long trajectory")
        self.residuals.append(check_balance(residual, self.long_cfg, "long trajectory"))
        if copy_csv.read_bytes() != self.long_csv.read_bytes():
            raise CheckFailed("long trajectory: CSV round trip is not byte-identical")
        self.csv_bytes = os.path.getsize(copy_csv)
        self.ctx.check_reference("long_trajectory", final_state(traj))

    def layer_metrics(self, tracer):
        out = {"dynamics.rows": self.size.long_steps + 1, "dynamics.csv_bytes": self.csv_bytes}
        for module in KERNEL_MODULES:
            states = tracer.attr_sum("kernel.batch", "states", module=module)
            if states:
                out[f"{module}.batch_ns_per_state"] = 1e9 * tracer.total("kernel.batch", module=module) / states
        for check in CHECKS:
            samples = tracer.attr_sum("validate.check", "samples", check=check)
            if samples:
                out[f"validate.ns_per_sample.{check}"] = 1e9 * tracer.total("validate.check", check=check) / samples
        points = tracer.attr_sum("harmonics.ripple", "points")
        if points:
            out["harmonics.ripple_us_per_point"] = 1e6 * tracer.total("harmonics.ripple") / points
        for span, metric in (
            ("identify.fit", "identify.fit_ms"),
            ("identify.fit_refine", "identify.fit_refine_ms"),
            ("identify.read_samples", "identify.read_samples_ms"),
        ):
            if tracer.durations(span):
                out[metric] = 1e3 * statistics.median(tracer.durations(span))
        if self.gn_iterations is not None:
            out["identify.gn_iterations"] = self.gn_iterations
        return out


WORKLOADS = {w.name: w for w in (SimShipped, CliVerbs, SweepPoints, BatchEval)}
