"""Command-line front end.

Verbs: simulate, im-sim, identify, ripple, validate, flux-map, sweep, one
row each of a verb table.  Every verb is given the one YAML config
(--config) that main loads, writes CSV output (--out or a default under
$ENERMACH_OUT_DIR), and prints a short summary unless --quiet.  Exit
codes: 0 success, 1 config/input validation error or an allocation beyond
memory, 2 numerical failure (simulation abort, rank deficiency, failed
checks), 3 file I/O error.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
# concurrent.futures loads multiprocessing, socket and logging: cmd_sweep imports it for its pool
from pathlib import Path
from typing import List, Optional

import numpy as np

from .config import ConfigError, MotorConfig, load_config
from .dynamics import SimulationError, Trajectory, power_balance, simulate
from .energy import _magnet_box
from .harmonics import ripple_torque

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

OUT_DIR_ENV = "ENERMACH_OUT_DIR"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _out_dir(out: Optional[str]) -> Path:
    """``out``, or else $ENERMACH_OUT_DIR (default: the working directory); made if missing."""
    out_dir = Path(out or os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _default_out(args, suffix: str) -> Path:
    if args.out:
        return Path(args.out)
    return _out_dir(None) / f"{Path(args.config).stem}_{suffix}.csv"


def cmd_run(cfg: MotorConfig, args) -> int:
    """The simulate and im-sim verbs."""
    if args.verb == "simulate" and cfg.model.flux_dim != 2:
        raise ConfigError("model.kind: linear_im runs under the im-sim verb")
    if args.verb == "im-sim" and cfg.model.flux_dim != 4:
        raise ConfigError("model.kind: im-sim needs a linear_im model")
    traj = simulate(cfg.model, cfg.initial, cfg.drive, cfg.sim)
    out = _default_out(args, "traj")
    traj.write_csv(out)
    if args.quiet:
        return EXIT_OK
    final = {name: traj.column(name)[-1] for name in ("t", "theta", "omega", "torque")}
    _say(args, f"wrote {out} ({len(traj)} samples)")
    _say(
        args,
        "final state: t={t:.6g} s, theta={theta:.6g} rad, omega={omega:.6g} rad/s, "
        "torque={torque:.6g} N*m".format(**final),
    )
    _say(args, f"mean torque: {float(np.mean(traj.column('torque'))):.6g} N*m")
    if len(traj) >= 3:
        _say(args, f"power balance residual: {power_balance(cfg.model, traj):.3e}")
    return EXIT_OK


def cmd_identify(cfg: MotorConfig, args) -> int:
    from .identify import fit_saturation, read_samples_csv, report_scaled
    samples = read_samples_csv(args.samples)
    phi_M = cfg.identify["phi_M"]
    if phi_M is None:
        phi_M = _magnet_box(cfg.model)[0]
        if phi_M <= 0.0:
            raise ConfigError("identify.phi_M: required when the model block has no magnet")
    fit = fit_saturation(samples, phi_M=phi_M, refine_phi_M=cfg.identify["refine_phi_M"])
    report = report_scaled(fit)
    out = _default_out(args, "fit")
    with open(out, "w", newline="") as f:
        f.write("name,value,std_error\n")
        for name, (value, err) in report.items():
            err_text = f"{err:.17g}" if err is not None else ""
            f.write(f"{name},{value:.17g},{err_text}\n")
    _say(args, f"wrote {out}")
    _say(args, f"phi_M = {fit.coefficients.phi_M:.9g} Wb")
    _say(args, f"residual rms = {fit.residual_rms:.3e} A")
    _say(args, f"condition number = {fit.condition_number:.3e}")
    if cfg.identify["refine_phi_M"]:
        state = "converged" if fit.converged else "DID NOT CONVERGE"
        _say(args, f"refinement {state} after {fit.iterations} iteration(s)")
    return EXIT_OK if fit.converged else EXIT_NUMERIC


def cmd_ripple(cfg: MotorConfig, args) -> int:
    spec = cfg.ripple
    theta = np.linspace(spec["theta_min"], spec["theta_max"], spec["n_points"])
    phi = np.array(spec["phi"]) if spec["phi"] is not None else cfg.initial.phi
    if phi.shape != (cfg.model.flux_dim,):
        raise ConfigError(f"ripple.phi: expected {cfg.model.flux_dim} components")
    t = ripple_torque(cfg.model, theta, spec["rho"], phi)
    out = _default_out(args, "ripple")
    rows = np.stack([theta, np.broadcast_to(t, theta.shape)], axis=-1)
    Trajectory(("theta", "torque"), rows).write_csv(out)
    _say(args, f"wrote {out} ({theta.size} points)")
    _say(
        args,
        f"torque mean {float(np.mean(t)):.6g} N*m, peak-to-peak {float(np.ptp(t)):.6g} N*m",
    )
    return EXIT_OK


def cmd_flux_map(cfg: MotorConfig, args) -> int:
    if cfg.model.flux_dim != 2:
        raise ConfigError("flux_map: needs a two-component flux model")
    d_lo, d_hi, d_n = cfg.flux_map["phi_d"]
    q_lo, q_hi, q_n = cfg.flux_map["phi_q"]
    phi_d = np.linspace(d_lo, d_hi, d_n)
    phi_q = np.linspace(q_lo, q_hi, q_n)
    dd, qq = np.meshgrid(phi_d, phi_q, indexing="ij")
    phi = np.stack([dd.ravel(), qq.ravel()], axis=-1)
    i = np.asarray(cfg.model.d_flux(0.0, 0.0, phi))
    h = np.asarray(cfg.model.evaluate(0.0, 0.0, phi))
    rows = np.column_stack([phi, i, h])
    out = _default_out(args, "fluxmap")
    Trajectory(("phi_d", "phi_q", "i_d", "i_q", "energy"), rows).write_csv(out)
    _say(args, f"wrote {out} ({rows.shape[0]} grid points)")
    return EXIT_OK


def cmd_validate(cfg: MotorConfig, args) -> int:
    from .validate import checks_for
    seed = args.seed if args.seed is not None else cfg.seed
    n, tol = cfg.validate["n_samples"], cfg.validate["tol"]
    reports = [check(cfg.model, n_samples=n, tol=tol, seed=seed) for check in checks_for(cfg.model)]
    for report in reports:
        _say(args, report.summary())
    failed = sum(not r.passed for r in reports)
    if not failed:
        _say(args, f"all {len(reports)} checks passed")
        return EXIT_OK
    print(f"{failed} check(s) failed", file=sys.stderr)
    return EXIT_NUMERIC


def _override_key(raw: dict, dotted: str, value) -> dict:
    d = copy.deepcopy(raw)
    parts = dotted.split(".")
    node = d
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"sweep.parameter: {dotted}: {part!r} is not a section")
        node = nxt
    node[parts[-1]] = value
    return d


def _sweep_worker(payload):
    cfg, out_path = payload
    traj = simulate(cfg.model, cfg.initial, cfg.drive, cfg.sim)
    traj.write_csv(out_path)
    return out_path, len(traj)


def cmd_sweep(cfg: MotorConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep: section required for the sweep verb")
    parameter = cfg.sweep["parameter"]
    values = cfg.sweep["values"]
    workers = cfg.sweep["workers"]
    out_dir, stem = _out_dir(args.out), Path(args.config).stem

    # validate all points before launching anything; a pool worker gets its point pickled
    points = [MotorConfig(_override_key(cfg.raw, parameter, value)) for value in values]
    payloads = [(point, str(out_dir / f"{stem}_sweep_{k:03d}.csv")) for k, point in enumerate(points)]

    if workers == 1:
        results = [_sweep_worker(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    for (path, n), value in zip(results, values):
        _say(args, f"{parameter}={value!r}: wrote {path} ({n} samples)")
    _say(args, f"sweep complete: {len(results)} runs")
    return EXIT_OK


_VERBS = {
    "simulate": (cmd_run, "integrate a PMSM/SynRM run"),
    "im-sim": (cmd_run, "integrate an induction machine run"),
    "identify": (cmd_identify, "fit saturation parameters"),
    "ripple": (cmd_ripple, "torque over a rotor angle grid"),
    "validate": (cmd_validate, "run the model self-checks"),
    "flux-map": (cmd_flux_map, "currents over a flux grid"),
    "sweep": (cmd_sweep, "fan out simulate over a parameter list"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config file")
    common.add_argument("--out", help="output file (directory for sweep)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--quiet", action="store_true", help="suppress the summary output")

    parser = argparse.ArgumentParser(
        prog="enermach",
        description="Energy-based machine models: simulate, identify, analyze.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, help_text) in _VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_text)
        if verb == "identify":
            p.add_argument("--samples", required=True, help="flux/current sample CSV")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(load_config(args.config), args)
    except (ValueError, OSError, SimulationError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        from .identify import RankDeficiencyError  # only an error loads it
        # numeric errors first: a RankDeficiencyError is a ValueError too
        if isinstance(e, (RankDeficiencyError, SimulationError)):
            return EXIT_NUMERIC
        return EXIT_IO if isinstance(e, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
