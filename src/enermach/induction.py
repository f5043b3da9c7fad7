"""Induction machine energy model in a common rotating frame.

Stator and rotor flux linkages both live in the same dq frame, so the
magnetic energy has no angle dependence at all; torque comes entirely from
the cross coupling between the two windings.  The model is the quadratic
table of :class:`~enermach.energy.PolynomialEnergy` over the four flux
components, with phi_M = 0:

    H = kappa*rho**2/2
      + L_r/(2 D) * (phi_sd**2 + phi_sq**2)
      + L_s/(2 D) * (phi_rd**2 + phi_rq**2)
      - L_m/D * (phi_sd*phi_rd + phi_sq*phi_rq)

with D = L_s*L_r - L_m**2 (= L_s*L_r*sigma, sigma the leakage factor).
The gradient reproduces the familiar current relations

    D * i_s = L_r*phi_s - L_m*phi_r
    D * i_r = L_s*phi_r - L_m*phi_s

whose inverse is phi_s = L_s*i_s + L_m*i_r, phi_r = L_m*i_s + L_r*i_r.
Each current is the table's sum of two monomials, e.g. i_sd =
(L_r/D)*phi_sd + (-L_m/D)*phi_rd, not one quotient by D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .energy import PolynomialEnergy, _require_finite, _require_machine, _shared, torque

__all__ = [
    "ImParams",
    "ImFlux",
    "ImEnergy",
    "im_energy",
    "im_currents",
    "invert_currents",
    "im_torque",
]


@dataclass(frozen=True)
class ImParams:
    """Induction machine parameters.

    ``L_s``, ``L_r`` and ``L_m`` are stator, rotor and mutual inductance (H).
    The leakage factor sigma is always derived from them; a parameter set
    whose D = L_s*L_r - L_m**2 is not finite and positive describes no
    physical machine and is rejected outright.
    """

    L_s: float
    L_r: float
    L_m: float
    R_s: float
    R_r: float
    kinetic_coeff: float
    n_p: int

    def __post_init__(self):
        _require_finite(self)
        if self.L_s <= 0.0 or self.L_r <= 0.0 or self.L_m <= 0.0:
            raise ValueError("inductances must be positive")
        try:  # D must be finite too: at D = inf every coefficient of H's flux table is 0
            det = self.det
        except OverflowError:  # L_m**2 beyond the floats
            det = math.inf
        if not 0.0 < det < math.inf:
            raise ValueError("degenerate inductance matrix: L_s*L_r - L_m**2 must be positive")
        if self.R_s < 0.0 or self.R_r < 0.0:
            raise ValueError("resistances must be non-negative")
        _require_machine(self)

    @property
    def det(self) -> float:
        """Determinant D = L_s*L_r - L_m**2 of the inductance matrix."""
        return self.L_s * self.L_r - self.L_m**2

    @property
    def sigma(self) -> float:
        """Leakage factor, D / (L_s * L_r)."""
        return self.det / (self.L_s * self.L_r)


@dataclass(frozen=True)
class ImFlux:
    """Stator and rotor flux linkage pair in the common frame."""

    phi_s: np.ndarray
    phi_r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi_s", np.asarray(self.phi_s, dtype=float).copy())
        object.__setattr__(self, "phi_r", np.asarray(self.phi_r, dtype=float).copy())
        if self.phi_s.shape[-1:] != (2,) or self.phi_r.shape[-1:] != (2,):
            raise ValueError("flux vectors must have two components")

    def as_vector(self) -> np.ndarray:
        """Concatenated (phi_sd, phi_sq, phi_rd, phi_rq)."""
        return np.concatenate([self.phi_s, self.phi_r], axis=-1)

    @staticmethod
    def from_vector(v) -> "ImFlux":
        v = np.asarray(v, dtype=float)
        return ImFlux(v[..., 0:2], v[..., 2:4])


def im_currents(p: ImParams, f: ImFlux) -> Tuple[np.ndarray, np.ndarray]:
    """Stator and rotor currents from the flux pair."""
    i = _shared(ImEnergy, p).d_flux(0.0, 0.0, f.as_vector())
    return i[..., 0:2], i[..., 2:4]


def invert_currents(p: ImParams, i_s, i_r) -> ImFlux:
    """Flux pair from the currents (exact inverse of im_currents)."""
    i_s = np.asarray(i_s, dtype=float)
    i_r = np.asarray(i_r, dtype=float)
    return ImFlux(p.L_s * i_s + p.L_m * i_r, p.L_m * i_s + p.L_r * i_r)


def im_torque(p: ImParams, f: ImFlux) -> float:
    """Electromagnetic torque n_p * (i_sq*phi_sd - i_sd*phi_sq): :func:`torque` of the model."""
    return torque(_shared(ImEnergy, p), 0.0, 0.0, f.as_vector())


class ImEnergy(PolynomialEnergy):
    """Quadratic table over the stacked flux (phi_sd, phi_sq, phi_rd, phi_rq); no flux box."""

    flux_dim = 4

    def __init__(self, params: ImParams):
        self.params = params
        d = params.det
        s, r, m = params.L_r / (2.0 * d), params.L_s / (2.0 * d), -params.L_m / d
        # squares before cross terms: dH/dphi_sd = (L_r/D) phi_sd + (-L_m/D) phi_rd
        terms = {(2, 0, 0, 0): s, (0, 2, 0, 0): s, (0, 0, 2, 0): r, (0, 0, 0, 2): r}
        terms.update({(1, 0, 1, 0): m, (0, 1, 0, 1): m})
        super().__init__([(0, terms, {})], 0.0, params.kinetic_coeff, params.n_p)


def im_energy(p: ImParams) -> ImEnergy:
    """Build the induction machine model."""
    return ImEnergy(p)
