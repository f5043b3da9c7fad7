"""Command-line front end.

Verbs: simulate, im-sim, identify, ripple, validate, flux-map, sweep.  Every
verb reads one YAML config (--config), writes CSV output (--out or a
default under $ENERMACH_OUT_DIR), and prints a short summary unless
--quiet.  Exit codes: 0 success, 1 config/input validation error, 2
numerical failure (simulation abort, rank deficiency, failed checks), 3
file I/O error.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional

import numpy as np

from .config import ConfigError, MotorConfig, load_config
from .dynamics import SimulationError, Trajectory, power_balance, simulate
from .harmonics import ripple_torque
from .identify import (
    RankDeficiencyError,
    fit_saturation,
    read_samples_csv,
    report_scaled,
)
from .validate import (
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

OUT_DIR_ENV = "ENERMACH_OUT_DIR"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _default_out(args, suffix: str) -> Path:
    if args.out:
        return Path(args.out)
    out_dir = Path(os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem
    return out_dir / f"{stem}_{suffix}.csv"


def cmd_run(args) -> int:
    """The simulate and im-sim verbs."""
    cfg = load_config(args.config)
    if args.verb == "simulate" and cfg.model.flux_dim != 2:
        raise ConfigError("model.kind: linear_im runs under the im-sim verb")
    if args.verb == "im-sim" and cfg.model.flux_dim != 4:
        raise ConfigError("model.kind: im-sim needs a linear_im model")
    traj = simulate(cfg.model, cfg.initial, cfg.drive, cfg.sim)
    out = _default_out(args, "traj")
    traj.write_csv(out)
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


def cmd_identify(args) -> int:
    cfg = load_config(args.config)
    samples = read_samples_csv(args.samples)
    if len(samples) < 7:
        raise ConfigError(f"insufficient samples: need at least 7, got {len(samples)}")
    phi_M = cfg.identify["phi_M"]
    if phi_M is None:
        phi_M = float(getattr(cfg.model.params, "phi_M", 0.0))
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


def cmd_ripple(args) -> int:
    cfg = load_config(args.config)
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


def cmd_flux_map(args) -> int:
    cfg = load_config(args.config)
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


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    n = cfg.validate["n_samples"]
    tol = cfg.validate["tol"]
    seed = args.seed if args.seed is not None else cfg.seed
    if cfg.model.flux_dim == 4:
        reports = [
            check_reciprocity(cfg.model, n_samples=n, tol=tol, seed=seed),
            check_im_rotation(cfg.model, n_samples=n, tol=tol, seed=seed),
        ]
    else:
        reports = [
            check_reciprocity(cfg.model, n_samples=n, tol=tol, seed=seed),
            check_period(cfg.model, n_samples=n, tol=tol, seed=seed),
            check_parity(cfg.model, n_samples=n, tol=tol, seed=seed),
        ]
        if cfg.model_kind == "synrm":
            reports.append(check_synrm_evenness(cfg.model, n_samples=n, tol=tol, seed=seed))
    for report in reports:
        _say(args, report.summary())
    if all(r.passed for r in reports):
        _say(args, f"all {len(reports)} checks passed")
        return EXIT_OK
    failed = sum(1 for r in reports if not r.passed)
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
    raw, out_path = payload
    cfg = MotorConfig(raw)
    traj = simulate(cfg.model, cfg.initial, cfg.drive, cfg.sim)
    traj.write_csv(out_path)
    return out_path, len(traj)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep: section required for the sweep verb")
    parameter = cfg.sweep["parameter"]
    values = cfg.sweep["values"]
    workers = cfg.sweep["workers"]

    if args.out:
        out_dir = Path(args.out)
    else:
        out_dir = Path(os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.config).stem

    # validate all points before launching anything
    payloads = []
    for k, value in enumerate(values):
        raw = _override_key(cfg.raw, parameter, value)
        MotorConfig(raw)
        payloads.append((raw, str(out_dir / f"{stem}_sweep_{k:03d}.csv")))

    if workers == 1:
        results = [_sweep_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, payloads))
    for (path, n), value in zip(results, values):
        _say(args, f"{parameter}={value!r}: wrote {path} ({n} samples)")
    _say(args, f"sweep complete: {len(results)} runs")
    return EXIT_OK


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

    sub.add_parser("simulate", parents=[common], help="integrate a PMSM/SynRM run").set_defaults(
        func=cmd_run
    )
    sub.add_parser("im-sim", parents=[common], help="integrate an induction machine run").set_defaults(
        func=cmd_run
    )
    p_id = sub.add_parser("identify", parents=[common], help="fit saturation parameters")
    p_id.add_argument("--samples", required=True, help="flux/current sample CSV")
    p_id.set_defaults(func=cmd_identify)
    sub.add_parser("ripple", parents=[common], help="torque over a rotor angle grid").set_defaults(
        func=cmd_ripple
    )
    sub.add_parser("validate", parents=[common], help="run the model self-checks").set_defaults(
        func=cmd_validate
    )
    sub.add_parser("flux-map", parents=[common], help="currents over a flux grid").set_defaults(
        func=cmd_flux_map
    )
    sub.add_parser("sweep", parents=[common], help="fan out simulate over a parameter list").set_defaults(
        func=cmd_sweep
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (RankDeficiencyError, SimulationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
