"""Least-squares identification of the saturation model from flux/current data.

With phi_M held fixed the quartic model is linear in its seven magnetic
parameters, so a weighted linear least-squares solve recovers them from
measured (phi, i) pairs; both current components of a sample enter as rows
of one stacked system.  The design column of a parameter is the current of
its monomial at unit parameter: the columns come from the parameter table
of :mod:`enermach.saturation`, evaluated by one compiled table kernel.
phi_M itself can optionally be refined by a scalar Gauss-Newton iteration
wrapped around the linear solve (the inner solve is repeated at each trial
phi_M, i.e. variable projection).

Standard errors come from the usual linear-model estimate: residual
variance times the diagonal of the inverse normal matrix.  They are
conditional on phi_M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import Trajectory, _data_lines
from .energy import _compile, _d_flux_table, _require_finite, _require_flux_range, _table
from .saturation import _QUARTIC, SaturationCoefficients, _phi_M_powers, saturated_currents

__all__ = [
    "PARAM_NAMES",
    "FluxSample",
    "FitResult",
    "RankDeficiencyError",
    "fit_saturation",
    "generate_synthetic",
    "report_scaled",
    "read_samples_csv",
    "write_samples_csv",
]

PARAM_NAMES = tuple(name for name, _, _, _, _ in _QUARTIC)

_GN_MAX_ITER = 50
_GN_REL_TOL = 1.0e-10


@dataclass(frozen=True)
class FluxSample:
    """One operating point: flux linkage pair, measured currents, weight."""

    phi_d: float
    phi_q: float
    i_d: float
    i_q: float
    weight: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.weight <= 0.0:
            raise ValueError(f"sample weight must be positive, got {self.weight}")


class RankDeficiencyError(ValueError):
    """The sample layout leaves parameter directions unobservable."""

    def __init__(self, rank: int, directions: List[str]):
        self.rank = rank
        self.directions = directions
        listing = "; ".join(directions) if directions else "unknown"
        super().__init__(
            f"design matrix rank {rank} < {len(PARAM_NAMES)}; "
            f"unobservable directions: {listing}"
        )


@dataclass
class FitResult:
    """Outcome of :func:`fit_saturation`.

    ``std_errors`` is None when there are no degrees of freedom left.
    ``condition_number`` refers to the normal-equation system.  When phi_M
    refinement was requested, ``converged`` and ``iterations`` describe the
    Gauss-Newton loop; without refinement they are trivially True / 0.
    """

    coefficients: SaturationCoefficients
    residual_rms: float
    std_errors: Optional[Dict[str, float]]
    condition_number: float
    converged: bool = True
    iterations: int = 0


@functools.cache
def _monomial_currents():
    """Kernel of the design columns: the currents of each quartic monomial at unit parameter.

    Its outputs are the i_d columns in PARAM_NAMES order, then the i_q columns.
    """
    units = [_table([(0, {ij: factor}, {})]) for _, _, ij, factor, _ in _QUARTIC]
    return _compile([_d_flux_table(t, axis) for axis in (0, 1) for t in units])


def _solve(a_w: np.ndarray, b_w: np.ndarray):
    """Weighted LS solve via SVD; returns beta, residual vector, singular values, Vh."""
    u, s, vh = np.linalg.svd(a_w, full_matrices=False)
    eps = np.finfo(float).eps
    cutoff = s[0] * max(a_w.shape) * eps if s.size and s[0] > 0.0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank < len(PARAM_NAMES):
        directions = []
        for v in vh[rank:]:
            parts = [
                f"{v[k]:+.2f}*{PARAM_NAMES[k]}" for k in range(v.size) if abs(v[k]) > 0.25
            ]
            directions.append(" ".join(parts) if parts else "mixed direction")
        raise RankDeficiencyError(rank, directions)
    beta = vh.T @ ((u.T @ b_w) / s)
    return beta, a_w @ beta - b_w, s, vh


def _assemble(samples: Sequence[FluxSample]):
    phi_d = np.array([s.phi_d for s in samples])
    phi_q = np.array([s.phi_q for s in samples])
    b = np.empty(2 * len(samples))
    b[0::2] = [s.i_d for s in samples]
    b[1::2] = [s.i_q for s in samples]
    w = np.empty(2 * len(samples))
    w[0::2] = [s.weight for s in samples]
    w[1::2] = w[0::2]
    return phi_d, phi_q, b, np.sqrt(w)


def fit_saturation(samples: Sequence[FluxSample], phi_M: float, refine_phi_M: bool = False) -> FitResult:
    """Fit the seven saturation parameters, optionally refining phi_M.

    Needs at least 7 samples spanning both flux axes; a layout that cannot
    see all parameter directions raises :class:`RankDeficiencyError` naming
    the blind combinations.  The fit is magnetic only: the returned
    coefficients keep the mechanical defaults of :class:`SaturationCoefficients`.
    """
    if len(samples) < len(PARAM_NAMES):
        raise ValueError(f"insufficient samples: need at least {len(PARAM_NAMES)}, got {len(samples)}")
    phi_d, phi_q, b, sqrt_w = _assemble(samples)

    def solve_at(m: float):
        x = phi_d - m
        columns = _monomial_currents()(0.0, x, phi_q, np.zeros_like(x))
        # samples interleave as (i_d row, i_q row) pairs
        a = np.stack(columns, axis=-1).reshape(-1, len(PARAM_NAMES))
        return _solve(a * sqrt_w[:, None], b * sqrt_w)

    m = float(phi_M)
    if not math.isfinite(m):
        raise ValueError(f"phi_M must be finite, got {phi_M}")
    _require_flux_range(m)
    converged = True
    iterations = 0
    if refine_phi_M:
        converged = False
        for iterations in range(1, _GN_MAX_ITER + 1):
            _, r, _, _ = solve_at(m)
            h = 1.0e-6 * max(1.0, abs(m))
            _, r_plus, _, _ = solve_at(m + h)
            _, r_minus, _, _ = solve_at(m - h)
            jac = (r_plus - r_minus) / (2.0 * h)
            denom = float(jac @ jac)
            if denom == 0.0:
                converged = True
                break
            delta = -float(jac @ r) / denom
            m += delta
            if abs(delta) <= _GN_REL_TOL * max(1.0, abs(m)):
                converged = True
                break

    beta, resid, s, vh = solve_at(m)
    n_rows = b.size
    n_par = len(PARAM_NAMES) + (1 if refine_phi_M else 0)
    dof = n_rows - n_par
    std_errors = None
    if dof > 0:
        sigma2 = float(resid @ resid) / dof
        cov_diag = np.einsum("ij,j,ij->i", vh.T, 1.0 / s**2, vh.T) * sigma2
        std_errors = dict(zip(PARAM_NAMES, np.sqrt(cov_diag)))

    try:
        coefficients = SaturationCoefficients(
            phi_M=m, **{name: float(value) for name, value in zip(PARAM_NAMES, beta)}
        )
    except ValueError as e:
        raise ValueError(f"fit produced invalid coefficients: {e}") from e

    return FitResult(
        coefficients=coefficients,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        std_errors=std_errors,
        condition_number=float((s[0] / s[-1]) ** 2),
        converged=converged,
        iterations=iterations,
    )


def generate_synthetic(
    c: SaturationCoefficients,
    phi_d_values,
    phi_q_values,
    noise: float = 0.0,
    seed: int = 0,
) -> List[FluxSample]:
    """Model currents on a cartesian flux grid, optionally with relative noise.

    ``noise`` is the standard deviation of multiplicative Gaussian noise per
    current component: i -> i * (1 + noise * g), g ~ N(0, 1), seeded.
    """
    if not 0.0 <= noise < math.inf:  # a NaN noise would compare False and add none
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    phi_d_values = np.asarray(phi_d_values, dtype=float)
    phi_q_values = np.asarray(phi_q_values, dtype=float)
    dd, qq = np.meshgrid(phi_d_values, phi_q_values, indexing="ij")
    phi = np.stack([dd.ravel(), qq.ravel()], axis=-1)
    i = saturated_currents(c, phi)
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        i = i * (1.0 + noise * rng.standard_normal(i.shape))
    return [
        FluxSample(float(p[0]), float(p[1]), float(ii[0]), float(ii[1]))
        for p, ii in zip(phi, i)
    ]


def report_scaled(r: FitResult) -> Dict[str, Tuple[float, Optional[float]]]:
    """Scaled coefficient table {name: (value, std_error)} in publication form.

    Values are the fitted parameters premultiplied by powers of phi_M; the
    std errors are scaled by the same powers (phi_M treated as exact).
    """
    scaled, errors = r.coefficients.scaled_values(), r.std_errors
    powers = _phi_M_powers(r.coefficients.phi_M, "scaled form needs phi_M > 0")
    return {
        key: (scaled[key], None if errors is None else errors[name] * m_p)
        for (name, key, *_), m_p in zip(_QUARTIC, powers)
    }


# ---------------------------------------------------------------------------
# sample CSV I/O: header phi_d,phi_q,i_d,i_q with optional trailing weight


_CSV_BASE = ("phi_d", "phi_q", "i_d", "i_q")


def read_samples_csv(path) -> List[FluxSample]:
    """Read samples from a :class:`Trajectory` CSV; malformed content is reported with its line number."""

    def check_header(columns):
        if not columns:
            raise ValueError(f"{path}: empty sample file")
        if columns not in (_CSV_BASE, _CSV_BASE + ("weight",)):
            raise ValueError(f"{path}: line 1: header must be {','.join(_CSV_BASE)}[,weight], got {','.join(columns)}")

    traj = Trajectory.read_csv(path, check_header)
    samples: List[FluxSample] = []
    for row, values in enumerate(traj.data.tolist()):
        try:
            samples.append(FluxSample(*values))
        except ValueError as e:
            raise ValueError(f"{path}: line {_data_lines(path)[row][0]}: {e}") from None
    return samples


def write_samples_csv(path, samples: Sequence[FluxSample], with_weight: bool = False) -> None:
    """Write samples as a :class:`Trajectory` CSV, so they read back bit-identical."""
    cols = _CSV_BASE + (("weight",) if with_weight else ())
    rows = np.array([[getattr(s, c) for c in cols] for s in samples], dtype=float)
    Trajectory(cols, rows.reshape(-1, len(cols))).write_csv(path)
