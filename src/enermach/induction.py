"""Induction machine energy model in a common rotating frame.

Stator and rotor flux linkages both live in the same dq frame, so the
magnetic energy has no angle dependence at all; torque comes entirely from
the cross coupling between the two windings.

    H = kappa*rho**2/2
      + L_m/(2 D) * ||phi_s - phi_r||**2
      + (L_r - L_m)/(2 D) * ||phi_s||**2
      + (L_s - L_m)/(2 D) * ||phi_r||**2

with D = L_s*L_r - L_m**2 (= L_s*L_r*sigma, sigma the leakage factor).
The gradient reproduces the familiar current relations

    D * i_s = L_r*phi_s - L_m*phi_r
    D * i_r = L_s*phi_r - L_m*phi_s

whose inverse is phi_s = L_s*i_s + L_m*i_r, phi_r = L_m*i_s + L_r*i_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .energy import EnergyModel, _components, _num, _vector, _zeros, torque

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
    with L_s*L_r - L_m**2 <= 0 describes no physical machine and is
    rejected outright.
    """

    L_s: float
    L_r: float
    L_m: float
    R_s: float
    R_r: float
    kinetic_coeff: float
    n_p: int

    def __post_init__(self):
        if self.L_s <= 0.0 or self.L_r <= 0.0 or self.L_m <= 0.0:
            raise ValueError("inductances must be positive")
        if self.L_s * self.L_r - self.L_m**2 <= 0.0:
            raise ValueError(
                "degenerate inductance matrix: L_s*L_r - L_m**2 must be positive"
            )
        if self.R_s < 0.0 or self.R_r < 0.0:
            raise ValueError("resistances must be non-negative")
        if self.kinetic_coeff <= 0.0:
            raise ValueError("kinetic_coeff must be positive")
        if int(self.n_p) != self.n_p or self.n_p < 1:
            raise ValueError("n_p must be a positive integer")

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
    i = ImEnergy(p).d_flux(0.0, 0.0, f.as_vector())
    return i[..., 0:2], i[..., 2:4]


def invert_currents(p: ImParams, i_s, i_r) -> ImFlux:
    """Flux pair from the currents (exact inverse of im_currents)."""
    i_s = np.asarray(i_s, dtype=float)
    i_r = np.asarray(i_r, dtype=float)
    return ImFlux(p.L_s * i_s + p.L_m * i_r, p.L_m * i_s + p.L_r * i_r)


def im_torque(p: ImParams, f: ImFlux) -> float:
    """Electromagnetic torque n_p * (i_sq*phi_sd - i_sd*phi_sq): :func:`torque` of the model."""
    return torque(ImEnergy(p), 0.0, 0.0, f.as_vector())


class ImEnergy(EnergyModel):
    """Energy model over the stacked flux vector (phi_sd, phi_sq, phi_rd, phi_rq)."""

    flux_dim = 4

    def __init__(self, params: ImParams):
        self.params = params
        self.pole_pairs = int(params.n_p)
        self._det = params.det

    def evaluate(self, theta, rho, phi):
        p = self.params
        phi = np.asarray(phi, dtype=float)
        rho = np.asarray(rho, dtype=float)
        phi_s = phi[..., 0:2]
        phi_r = phi[..., 2:4]
        d = p.det
        diff2 = np.sum((phi_s - phi_r) ** 2, axis=-1)
        s2 = np.sum(phi_s**2, axis=-1)
        r2 = np.sum(phi_r**2, axis=-1)
        return (
            0.5 * p.kinetic_coeff * rho**2
            + p.L_m / (2.0 * d) * diff2
            + (p.L_r - p.L_m) / (2.0 * d) * s2
            + (p.L_s - p.L_m) / (2.0 * d) * r2
        )

    def d_flux(self, theta, rho, phi):
        return _vector(self._currents(phi))

    def d_theta(self, theta, rho, phi):
        return self.gradient(theta, rho, phi)[2]

    def d_rho(self, theta, rho, phi):
        return self.params.kinetic_coeff * _num(rho)

    def gradient(self, theta, rho, phi):
        i = self._currents(phi)
        return _vector(i), self.params.kinetic_coeff * _num(rho), _zeros(theta, rho, i[0])

    def _currents(self, phi):
        # D*i_s = L_r*phi_s - L_m*phi_r, D*i_r = L_s*phi_r - L_m*phi_s; one
        # state stays in Python floats, which keeps the simulator step cheap
        p = self.params
        s_d, s_q, r_d, r_q = _components(phi)
        return (
            (p.L_r * s_d - p.L_m * r_d) / self._det,
            (p.L_r * s_q - p.L_m * r_q) / self._det,
            (p.L_s * r_d - p.L_m * s_d) / self._det,
            (p.L_s * r_q - p.L_m * s_q) / self._det,
        )


def im_energy(p: ImParams) -> ImEnergy:
    """Build the induction machine model."""
    return ImEnergy(p)
