"""Three-phase reference frame transformations and the constant matrices behind them.

Everything here uses the power-invariant (orthonormal) scaling, so all the
transform matrices are orthogonal and instantaneous power is the same number
in every frame.  Conventions:

* ``clarke`` maps phase quantities (a, b, c) to the stationary frame
  (alpha, beta, 0).
* ``park`` rotates stationary-frame quantities into a frame aligned with
  angle ``theta`` (electrical radians); the zero component passes through.
* ``k_transform`` is the composition of the two, phase frame straight to
  the rotating frame.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PhaseTriple",
    "OrthTriple",
    "RotTriple",
    "CLARKE",
    "PERMUTE",
    "SWAP_BC",
    "REFLECT_Q",
    "J2",
    "J3",
    "rotation",
    "rotation2",
    "k_matrix",
    "clarke",
    "inv_clarke",
    "park",
    "inv_park",
    "k_transform",
    "conjugated_permutation",
    "conjugated_swap",
    "DQ_IDENTITIES",
]

_SQRT_2_3 = math.sqrt(2.0 / 3.0)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_HALF_SQRT_3 = math.sqrt(3.0) / 2.0

#: Orthonormal Clarke matrix; maps (a, b, c) to (alpha, beta, 0).
CLARKE = _SQRT_2_3 * np.array(
    [
        [1.0, -0.5, -0.5],
        [0.0, _HALF_SQRT_3, -_HALF_SQRT_3],
        [_INV_SQRT_2, _INV_SQRT_2, _INV_SQRT_2],
    ]
)

#: Cyclic phase permutation, (a, b, c) -> (b, c, a).
PERMUTE = np.array(
    [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ]
)

#: Swap of phases b and c.
SWAP_BC = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ]
)

#: Reflection of the second (q / beta) axis.
REFLECT_Q = np.array([[1.0, 0.0], [0.0, -1.0]])

#: Planar 90-degree rotation generator, J2 @ (x, y) = (-y, x).
J2 = np.array([[0.0, -1.0], [1.0, 0.0]])

#: Same generator embedded in 3x3 with a dead zero axis.
J3 = np.array(
    [
        [0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
)


class _Triple:
    """Three components, the first three dataclass fields, as an array and back.

    A field after them, the frame angle of :class:`RotTriple`, is a tag
    that ``from_array`` takes after the array.
    """

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)[:3]])

    @classmethod
    def from_array(cls, x, *tag):
        first, second, third = np.asarray(x, dtype=float)
        return cls(float(first), float(second), float(third), *map(float, tag))


@dataclass(frozen=True)
class PhaseTriple(_Triple):
    """Quantity expressed per phase, (a, b, c)."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class OrthTriple(_Triple):
    """Stationary-frame quantity, (alpha, beta, zero)."""

    alpha: float
    beta: float
    zero: float


@dataclass(frozen=True)
class RotTriple(_Triple):
    """Rotating-frame quantity, (d, q, zero), tagged with the frame angle."""

    d: float
    q: float
    zero: float
    theta: float


def rotation(theta: float) -> np.ndarray:
    """3x3 rotation about the zero axis by ``theta``: :func:`rotation2` on the first two axes."""
    r = np.eye(3)
    r[:2, :2] = rotation2(theta)
    return r


def rotation2(theta: float) -> np.ndarray:
    """Planar 2x2 rotation by a finite ``theta``; every frame transform takes its angle here."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def k_matrix(theta: float) -> np.ndarray:
    """Combined phase-to-rotating-frame matrix: the composition rotation(theta).T @ CLARKE."""
    return rotation(theta).T @ CLARKE


def clarke(x: PhaseTriple) -> OrthTriple:
    """Phase frame to stationary orthonormal frame."""
    return OrthTriple.from_array(CLARKE @ x.as_array())


def inv_clarke(y: OrthTriple) -> PhaseTriple:
    """Stationary orthonormal frame back to phases (CLARKE is orthogonal)."""
    return PhaseTriple.from_array(CLARKE.T @ y.as_array())


def park(y: OrthTriple, theta: float) -> RotTriple:
    """Stationary frame into the rotating frame at angle ``theta``."""
    return RotTriple.from_array(rotation(theta).T @ y.as_array(), theta)


def inv_park(z: RotTriple, theta: float) -> OrthTriple:
    """Rotating frame at angle ``theta`` back to the stationary frame."""
    return OrthTriple.from_array(rotation(theta) @ z.as_array())


def k_transform(x: PhaseTriple, theta: float) -> RotTriple:
    """Phase frame straight into the rotating frame; same as park(clarke(x), theta)."""
    return RotTriple.from_array(k_matrix(theta) @ x.as_array(), theta)


def conjugated_permutation() -> np.ndarray:
    """CLARKE @ PERMUTE @ CLARKE.T: block-diagonal, planar rotation by -2*pi/3."""
    return CLARKE @ PERMUTE @ CLARKE.T


def conjugated_swap() -> np.ndarray:
    """CLARKE @ SWAP_BC @ CLARKE.T: block-diagonal, planar reflection."""
    return CLARKE @ SWAP_BC @ CLARKE.T


# H(image(theta, rho, phi, eta)) == H(theta, rho, phi) for a block of states, flux
# (n, flux_dim); eta is the block's part of the angles draw(rng, n), or None
_DqIdentity = namedtuple("_DqIdentity", "image draw", defaults=(None,))


def _swap(theta, rho, phi, eta):
    flipped = phi.copy()
    flipped[:, 1] *= -1.0
    return -theta, -rho, flipped


def _turn(theta, rho, phi, eta):
    c, s, rot = np.cos(eta), np.sin(eta), np.empty_like(phi)
    for k in (0, 2):
        rot[:, k] = c * phi[:, k] - s * phi[:, k + 1]
        rot[:, k + 1] = s * phi[:, k] + c * phi[:, k + 1]
    return theta, rho, rot


#: The identities the construction symmetries give the energy in the rotating frame.
#: ``period``: -PERMUTE, the phase-pitch turn 2 pi/3 after the pole-pitch turn pi that
#: reverses every current, turns the frame by pi/3 and keeps the dq flux.  ``parity``:
#: SWAP_BC mirrors the machine, so theta, rho and phi_q change sign.  ``synrm_evenness``:
#: with no magnet, reversing every current reverses every flux.  ``im_rotation``: with
#: no rotor saliency, one angle turns the stator and rotor flux pairs alike.
DQ_IDENTITIES = {
    "period": _DqIdentity(lambda theta, rho, phi, eta: (theta + math.pi / 3.0, rho, phi)),
    "parity": _DqIdentity(_swap),
    "synrm_evenness": _DqIdentity(lambda theta, rho, phi, eta: (theta, rho, -phi)),
    "im_rotation": _DqIdentity(_turn, lambda rng, n: rng.uniform(-math.pi, math.pi, n)),
}
