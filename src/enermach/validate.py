"""Self-consistency checks for energy models.

Every check samples its claim at random points in an operating box and
reports the worst violation, absolute and relative to the natural scale of
the quantity compared (the largest energy or Jacobian entry among the
samples), so tolerances transfer between machines of different size.
Checks are pure functions of (model, box, n_samples, seed); the checks of
one set share one draw and H at it (``_last``).  The four H identities are
the images of the table :data:`enermach.frames.DQ_IDENTITIES`, compared on
the magnetic energy H(theta, 0, phi).  A sample's numbers take the same
operations in any block and maxima are order-free, so a report is the same
whatever the blocks: every check works on blocks of ``_BLOCK`` samples, the
block of the energy kernels, and only the draw, H at it and the per-sample
violations are full size.  Numpy loops run over the sample axis, as an
operation broadcast or reduced over a trailing axis of length 2 or 4 costs
several times more per element; the reciprocity check holds one
flux_dim**2 * _BLOCK Jacobian at a time, and a table model takes its
probes column by column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .energy import _BLOCK, EnergyModel, _block_keys, _magnet_box, _require_whole, _shared
from .frames import DQ_IDENTITIES
from .induction import ImEnergy, ImParams
from .saturation import SaturationRangeWarning

__all__ = [
    "CheckReport",
    "SampleBox",
    "default_box",
    "check_reciprocity",
    "check_period",
    "check_parity",
    "check_synrm_evenness",
    "check_im_rotation",
    "checks_for",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: pass iff max_rel < tolerance."""

    name: str
    samples: int
    tolerance: float
    max_abs: float
    scale: float
    max_rel: float
    passed: bool
    worst_point: Dict[str, float]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max_rel={self.max_rel:.3e} "
            f"(abs={self.max_abs:.3e}, scale={self.scale:.3e}, "
            f"tol={self.tolerance:.1e}, n={self.samples})"
        )


@dataclass(frozen=True)
class SampleBox:
    """Sampling region: flux box (center +- half), angle and momentum ranges."""

    phi_center: np.ndarray
    phi_half: np.ndarray
    theta_half: float
    rho_half: float

    def __post_init__(self):
        object.__setattr__(self, "phi_center", np.asarray(self.phi_center, dtype=float))
        object.__setattr__(self, "phi_half", np.asarray(self.phi_half, dtype=float))
        if self.phi_center.shape != self.phi_half.shape:
            raise ValueError("phi_center and phi_half must have the same shape")
        for name in ("phi_center", "phi_half", "theta_half", "rho_half"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.phi_half <= 0.0) or self.theta_half <= 0.0 or self.rho_half <= 0.0:
            raise ValueError("box half-widths must be positive")

    def draw(self, rng: np.random.Generator, n: int):
        n = _samples(n)
        phi = rng.uniform(-1.0, 1.0, (n, self.phi_center.size))
        for col, center, half in zip(phi.T, self.phi_center.flat, self.phi_half.flat):
            col *= half
            col += center
        theta = rng.uniform(-self.theta_half, self.theta_half, n)
        rho = rng.uniform(-self.rho_half, self.rho_half, n)
        return theta, rho, phi


def default_box(m: EnergyModel) -> SampleBox:
    """Operating box derived from the model parameters.

    For magnet machines the flux box is centered on the magnet working
    point with half-width phi_M (the trust region of the saturation
    polynomial); machines without a magnet get a generic 0.25 Wb box.  The
    momentum range corresponds to about 1000 rad/s electrical, bounded at
    1e150 so that rho * rho stays finite when kappa is tiny.
    """
    kappa = float(getattr(getattr(m, "params", None), "kinetic_coeff", 1.0))
    rho_half = min(1000.0 / kappa, 1.0e150)
    if m.flux_dim == 4:
        return SampleBox(np.zeros(4), np.full(4, 0.5), _TWO_PI, rho_half)
    phi_M, half = _magnet_box(m)
    return SampleBox(np.array([phi_M, 0.0]), np.full(2, half), _TWO_PI, rho_half)


def _samples(n) -> int:
    _require_whole(n, 1, f"n_samples must be a positive integer, got {n!r}")
    return int(n)


# the latest draw of an int seed, read-only, kept until a draw of another box,
# seed or count (keyed by their exact bits), and H(theta, 0, phi) at it for one
# model (by identity): (key, theta, rho, phi, generator state after the draw,
# model, H), swapped whole
_last = (None,) * 7


def _draw(m: EnergyModel, box: Optional[SampleBox], seed: int, n_samples: int):
    """``(rng, theta, rho, phi)``: the check's generator after drawing its samples from ``box``."""
    global _last
    box = box or default_box(m)
    rng = np.random.default_rng(seed)
    if type(seed) is not int:
        return (rng, *box.draw(rng, n_samples))
    key = (box.phi_center.tobytes(), box.phi_half.tobytes(), box.theta_half, box.rho_half, seed, _samples(n_samples))
    last = _last
    if last[0] != key:
        drawn = box.draw(rng, n_samples)
        for a in drawn:
            a.flags.writeable = False
        last = _last = (key, *drawn, rng.bit_generator.state, None, None)
    else:
        rng.bit_generator.state = last[4]
    return (rng, *last[1:4])


def _report(name, tol, theta, rho, phi, per_point, scale) -> CheckReport:
    """The report of the sample with the largest ``per_point`` violation, relative to ``scale``."""
    worst = int(np.argmax(per_point))
    max_abs = float(per_point[worst])
    scale = max(scale, 1.0e-30)
    max_rel = max_abs / scale
    point = {"theta": float(theta[worst]), "rho": float(rho[worst])}
    point.update({f"phi_{k}": float(phi[worst, k]) for k in range(phi.shape[1])})
    return CheckReport(name, int(theta.size), tol, max_abs, scale, max_rel, bool(max_rel < tol), point)


def _identity(name, m: EnergyModel, n_samples, tol, seed, box) -> CheckReport:
    """The magnetic energy H(theta, 0, phi) at the samples against H at their images under ``DQ_IDENTITIES[name]``.

    Both sides are at rho = 0, and the scale is the largest of their values:
    the kinetic part kappa*rho**2/2 is the same on both sides of every
    identity, so it would add nothing to a difference and all to the scale,
    where a heavy rotor would hide a broken symmetry.  H at the samples is
    evaluated once per set; the images are made, evaluated and compared
    ``_BLOCK`` samples at a time, with the flux box warnings off: H at the
    samples has warned.
    """
    global _last
    identity = DQ_IDENTITIES[name]
    rng, theta, _, phi = _draw(m, box, seed, n_samples)
    eta = identity.draw(rng, theta.size) if identity.draw else None
    rho = np.broadcast_to(0.0, theta.shape)
    h = _last[6] if _last[1] is theta and _last[5] is m else np.asarray(m.evaluate(theta, rho, phi), dtype=float)
    if _last[1] is theta:
        _last = (*_last[:5], m, h)
    diff, tops = np.empty(theta.size), []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        for (b,) in _block_keys(theta.shape):
            image = identity.image(theta[b], rho[b], phi[b], None if eta is None else eta[b])
            h_image = np.asarray(m.evaluate(*image), dtype=float)
            np.abs(np.subtract(h[b], h_image, out=diff[b]), out=diff[b])
            tops.append((np.max(np.abs(h[b])), np.max(np.abs(h_image))))
    top, top_image = np.max(tops, axis=0)
    return _report(name, tol, theta, rho, phi, diff, max(float(top), float(top_image)))


def check_reciprocity(
    m: EnergyModel,
    n_samples: int = 10_000,
    tol: float = 1.0e-10,
    seed: int = 0,
    box: Optional[SampleBox] = None,
    fd_step: float = 1.0e-5,
) -> CheckReport:
    """Symmetry of the current Jacobian di/dphi.

    Currents that derive from one energy function must satisfy
    d(i_j)/d(phi_k) = d(i_k)/d(phi_j).  The Jacobian is sampled by
    Richardson-extrapolated central differences of d_flux (exact through
    quartic flux dependence), so the check also catches hand-written
    current maps that drifted away from any energy function.  Steps are
    h = fd_step * max(1, |phi|) and 2h.  One d_flux call per block of
    samples takes all its probes (2 signs x 2 steps x flux_dim directions),
    and the Jacobian is held and reduced ``_BLOCK`` samples at a time.
    """
    if fd_step == 0.0 or not math.isfinite(fd_step):
        raise ValueError(f"fd_step must be finite and nonzero, got {fd_step!r}")
    _, theta, rho, phi = _draw(m, box, seed, n_samples)
    dim = phi.shape[1]
    per_point, tops = np.zeros(theta.size), []
    # the probe steps straddle the box edge by 2h; that is intended here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        for (b,) in _block_keys(theta.shape):
            jac = _jacobian(m, theta[b], rho[b], phi[b], fd_step)
            # |J_jk - J_kj| is |J_kj - J_jk|; the diagonal keeps a non-finite J_jj as
            # nan.  max |J| is max(max J, -min J), with no |J| array
            worst, diff = per_point[b], np.empty(jac.shape[2])
            for j in range(dim):
                for k in range(j, dim):
                    np.maximum(worst, np.abs(np.subtract(jac[j, k], jac[k, j], out=diff), out=diff), out=worst)
            tops.append(np.maximum(jac.max(), -jac.min()))
    return _report("reciprocity", tol, theta, rho, phi, per_point, float(np.max(tops)))


def _jacobian(m: EnergyModel, theta, rho, phi, fd_step: float) -> np.ndarray:
    """The Jacobian ``[j, k, sample] = di_k/dphi_j`` at the samples, one d_flux call per ``_BLOCK // flux_dim**2``."""
    dim = phi.shape[1]
    norm2 = phi[:, 0] * phi[:, 0]
    for k in range(1, dim):
        norm2 += phi[:, k] * phi[:, k]
    h = fd_step * np.maximum(1.0, np.sqrt(norm2))
    steps = np.stack([h, 2.0 * h])
    block = _BLOCK // dim**2  # 4 * _BLOCK probe flux vectors per call
    jac = np.empty((dim, dim, theta.size))
    for lo in range(0, theta.size, block):
        blk = slice(lo, lo + block)
        step = steps[:, blk]
        # probes[k, sign, r, j]: component k of phi +/- step[r] along j, +/- 0.0 along the others
        probes = np.empty((dim, 2, 2, dim, step.shape[1]))
        for k in range(dim):
            np.add(phi[blk, k], 0.0, out=probes[k, 0])
            probes[k, 1] = phi[blk, k]
            np.add(phi[blk, k], step, out=probes[k, 0, :, k])
            np.subtract(phi[blk, k], step, out=probes[k, 1, :, k])
        den = 2.0 * step[:, None]
        for k, i in enumerate(m._d_flux_columns(theta[blk], rho[blk], probes)):
            c = (i[0] - i[1]) / den
            jac[:, k, blk] = (4.0 * c[0] - c[1]) / 3.0
    return jac


def check_period(
    m: EnergyModel, n_samples: int = 10_000, tol: float = 1.0e-10, seed: int = 0, box: Optional[SampleBox] = None
) -> CheckReport:
    """H(theta + pi/3) == H(theta) at random states: the ripple period of every magnet model."""
    return _identity("period", m, n_samples, tol, seed, box)


def check_parity(
    m: EnergyModel, n_samples: int = 10_000, tol: float = 1.0e-10, seed: int = 0, box: Optional[SampleBox] = None
) -> CheckReport:
    """H(theta, rho, phi_d, phi_q) == H(-theta, -rho, phi_d, -phi_q).

    The contract's H is kappa*rho**2/2 plus a part free of rho (the table
    models' ``d_rho`` is kappa*rho), which rho -> -rho keeps; so, as every
    identity, it is compared on the magnetic energy, at rho = 0.
    """
    if m.flux_dim != 2:
        raise ValueError("parity check applies to two-component flux models")
    return _identity("parity", m, n_samples, tol, seed, box)


def check_synrm_evenness(
    m: EnergyModel, n_samples: int = 10_000, tol: float = 1.0e-10, seed: int = 0, box: Optional[SampleBox] = None
) -> CheckReport:
    """H(theta, rho, phi) == H(theta, rho, -phi): no magnet, no odd terms."""
    if m.flux_dim != 2:
        raise ValueError("evenness check applies to two-component flux models")
    return _identity("synrm_evenness", m, n_samples, tol, seed, box)


def check_im_rotation(
    machine, n_samples: int = 10_000, tol: float = 1.0e-10, seed: int = 0, box: Optional[SampleBox] = None
) -> CheckReport:
    """Induction machine energy is invariant under a common rotation of both fluxes.

    Accepts either :class:`ImParams` or any model with a stacked
    stator/rotor flux vector.
    """
    m = _shared(ImEnergy, machine) if isinstance(machine, ImParams) else machine
    if m.flux_dim != 4:
        raise ValueError("rotation check applies to stacked stator/rotor flux models")
    return _identity("im_rotation", m, n_samples, tol, seed, box)


def checks_for(m: EnergyModel) -> list:
    """The checks machine ``m`` owes by how it is built, in report order; any without a magnet owes evenness."""
    if m.flux_dim == 4:
        return [check_reciprocity, check_im_rotation]
    owed = [check_reciprocity, check_period, check_parity]
    return owed + [check_synrm_evenness] if _magnet_box(m)[0] == 0.0 else owed
