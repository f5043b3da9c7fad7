"""Seeded inputs for the benchmark workloads.

Every config is derived from a shipped ``configs/*.yaml`` file: the raw
mapping is copied, a few keys are changed, the result is validated through
``MotorConfig(raw)`` and written as a temporary YAML file in the run's work
directory.  The shipped files are never written.  Identify sample CSVs come
from ``generate_synthetic``.  The same seed gives the same files byte for
byte; the program only ever sees these generated files.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np
import yaml

from enermach.config import MotorConfig
from enermach.identify import generate_synthetic, write_samples_csv

SHIPPED = ("harmonic_ipm", "im_2kw", "linear_ipm", "saturated_ipm", "saturated_spm", "synrm")

# drive amplitudes are scaled by a factor drawn from 1 +- AMP_SPREAD; this
# range keeps every shipped machine inside its stable operating region
AMP_SPREAD = 0.1
_VOLTAGE_KEYS = ("amp_d", "amp_q", "u_d", "u_q")
MIN_RECORD_INTERVALS = 15


def shipped_raw(root: Path, name: str) -> dict:
    with open(root / "configs" / f"{name}.yaml") as f:
        return yaml.safe_load(f)


def perturbed(raw: dict, rng: np.random.Generator, t_scale: float) -> dict:
    """Copy of ``raw`` with seeded drive amplitude and initial angle.

    ``t_scale`` shortens ``sim.t_end``; the step count stays a whole number
    and the record keeps at least MIN_RECORD_INTERVALS intervals, below
    which power_balance's quadrature of the record is not meaningful.
    """
    out = copy.deepcopy(raw)
    voltage = out.setdefault("drive", {}).setdefault("voltage", {"kind": "constant"})
    factor = 1.0 + AMP_SPREAD * rng.uniform(-1.0, 1.0)
    for key in _VOLTAGE_KEYS:
        if key in voltage:
            voltage[key] = float(voltage[key]) * factor
    out.setdefault("initial", {})["theta"] = float(rng.uniform(0.0, 2.0 * math.pi))
    sim = out.setdefault("sim", {})
    dt = float(sim.get("dt", 1.0e-5))
    stride = int(sim.get("record_stride", 1))
    steps = max(MIN_RECORD_INTERVALS * stride, round(float(sim.get("t_end", 0.1)) * t_scale / dt))
    sim["t_end"] = steps * dt
    return out


def write_config(raw: dict, path: Path) -> Path:
    """Validate ``raw`` through the library's own schema, then write it."""
    MotorConfig(raw)
    with open(path, "w") as f:
        yaml.safe_dump(raw, f, sort_keys=False)
    return path


def identify_samples(coefficients, path: Path, seed: int, noise: float, n_grid: int):
    """Write a flux/current sample CSV on a grid spanning the trust box."""
    m = coefficients.phi_M
    samples = generate_synthetic(
        coefficients,
        np.linspace(0.2 * m, 1.8 * m, n_grid),
        np.linspace(-0.9 * m, 0.9 * m, n_grid),
        noise=noise,
        seed=seed,
    )
    write_samples_csv(path, samples)
    return samples
