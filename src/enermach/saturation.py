"""Polynomial saturation model for magnet machines.

The magnetic energy is a quartic polynomial in the flux deviation from the
magnet working point, x = phi_d - phi_M and y = phi_q:

    H_mag = inv_L_d*x**2/2 + inv_L_q*y**2/2
          + alpha_30*x**3 + alpha_12*x*y**2
          + alpha_40*x**4 + alpha_22*x**2*y**2 + alpha_04*y**4

Only even powers of y appear, which keeps the d-axis a symmetry axis of the
magnetics.  Coefficients are routinely published in dimensionless form,
premultiplied by powers of phi_M; ``from_scaled`` and ``scaled_values``
convert between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    PolynomialEnergy,
    SaturationRangeWarning,
    _components,
    _d_flux_table,
    _kernel,
    _table,
    _vector,
    _zeros,
)

__all__ = [
    "SaturationCoefficients",
    "SaturatedPmsmEnergy",
    "SaturationRangeWarning",
    "saturated_energy",
    "saturated_currents",
    "incremental_inductance",
    "SCALED_KEYS",
]

#: Order of the scaled-coefficient table used by from_scaled / scaled_values.
SCALED_KEYS = (
    "phiM2_inv_Ld",
    "phiM2_inv_Lq",
    "phiM3_alpha_30",
    "phiM3_alpha_12",
    "phiM4_alpha_40",
    "phiM4_alpha_22",
    "phiM4_alpha_04",
)


@dataclass(frozen=True)
class SaturationCoefficients:
    """Quartic saturation model parameters.

    ``inv_L_d`` and ``inv_L_q`` are the inverse small-signal inductances at
    the magnet working point (1/H); the alphas are the cubic and quartic
    coefficients.  Mechanical parameters default to placeholders so a pure
    magnetics fit can live in this type on its own.
    """

    inv_L_d: float
    inv_L_q: float
    phi_M: float
    alpha_30: float = 0.0
    alpha_12: float = 0.0
    alpha_40: float = 0.0
    alpha_22: float = 0.0
    alpha_04: float = 0.0
    kinetic_coeff: float = 1.0
    n_p: int = 1
    R_s: float = 0.0

    def __post_init__(self):
        if self.inv_L_d <= 0.0 or self.inv_L_q <= 0.0:
            raise ValueError("inverse inductances must be positive")
        if self.phi_M < 0.0:
            raise ValueError("phi_M must be non-negative")
        if self.kinetic_coeff <= 0.0:
            raise ValueError("kinetic_coeff must be positive")
        if int(self.n_p) != self.n_p or self.n_p < 1:
            raise ValueError("n_p must be a positive integer")
        if self.R_s < 0.0:
            raise ValueError("R_s must be non-negative")

    @classmethod
    def from_scaled(
        cls,
        phi_M: float,
        phiM2_inv_Ld: float,
        phiM2_inv_Lq: float,
        phiM3_alpha_30: float = 0.0,
        phiM3_alpha_12: float = 0.0,
        phiM4_alpha_40: float = 0.0,
        phiM4_alpha_22: float = 0.0,
        phiM4_alpha_04: float = 0.0,
        kinetic_coeff: float = 1.0,
        n_p: int = 1,
        R_s: float = 0.0,
    ) -> "SaturationCoefficients":
        """Build from the dimensionless published form (A*Wb units)."""
        if phi_M <= 0.0:
            raise ValueError("scaled coefficients need phi_M > 0")
        return cls(
            inv_L_d=phiM2_inv_Ld / phi_M**2,
            inv_L_q=phiM2_inv_Lq / phi_M**2,
            phi_M=phi_M,
            alpha_30=phiM3_alpha_30 / phi_M**3,
            alpha_12=phiM3_alpha_12 / phi_M**3,
            alpha_40=phiM4_alpha_40 / phi_M**4,
            alpha_22=phiM4_alpha_22 / phi_M**4,
            alpha_04=phiM4_alpha_04 / phi_M**4,
            kinetic_coeff=kinetic_coeff,
            n_p=n_p,
            R_s=R_s,
        )

    def scaled_values(self) -> dict:
        """Coefficients premultiplied by powers of phi_M, keyed by SCALED_KEYS."""
        if self.phi_M <= 0.0:
            raise ValueError("scaled form needs phi_M > 0")
        m = self.phi_M
        return {
            "phiM2_inv_Ld": m**2 * self.inv_L_d,
            "phiM2_inv_Lq": m**2 * self.inv_L_q,
            "phiM3_alpha_30": m**3 * self.alpha_30,
            "phiM3_alpha_12": m**3 * self.alpha_12,
            "phiM4_alpha_40": m**4 * self.alpha_40,
            "phiM4_alpha_22": m**4 * self.alpha_22,
            "phiM4_alpha_04": m**4 * self.alpha_04,
        }


def _quartic_terms(c: SaturationCoefficients) -> dict:
    """Coefficients of x**i y**j in H_mag, keyed by (i, j)."""
    return {
        (2, 0): 0.5 * c.inv_L_d,
        (0, 2): 0.5 * c.inv_L_q,
        (3, 0): c.alpha_30,
        (1, 2): c.alpha_12,
        (4, 0): c.alpha_40,
        (2, 2): c.alpha_22,
        (0, 4): c.alpha_04,
    }


def saturated_currents(c: SaturationCoefficients, phi):
    """Currents (i_d, i_q) = dH_mag/dphi of the quartic model, shape (..., 2)."""
    return SaturatedPmsmEnergy(c).d_flux(0.0, 0.0, phi)


def incremental_inductance(c: SaturationCoefficients, phi):
    """Jacobian di/dphi of the quartic model, symmetric, shape (..., 2, 2), 1/H."""
    phi_d, y = _components(phi)
    x = phi_d - c.phi_M
    h = _table([(0, _quartic_terms(c), {})])
    h_x, h_y = _d_flux_table(h, 0), _d_flux_table(h, 1)
    hessian = (_d_flux_table(h_x, 0), _d_flux_table(h_x, 1), _d_flux_table(h_y, 1))
    dd, dq, qq = _kernel(hessian, 2, 0.0, x, y, _zeros(x))
    return np.stack([_vector((dd, dq)), _vector((dq, qq))], axis=-2)


class SaturatedPmsmEnergy(PolynomialEnergy):
    """Energy model built on :class:`SaturationCoefficients`."""

    def __init__(self, coefficients: SaturationCoefficients):
        self.params = c = coefficients
        box = c.phi_M if c.phi_M > 0.0 else None
        super().__init__([(0, _quartic_terms(c), {})], c.phi_M, c.kinetic_coeff, c.n_p, box)


def saturated_energy(c: SaturationCoefficients) -> SaturatedPmsmEnergy:
    """Build the saturated magnet machine model."""
    return SaturatedPmsmEnergy(c)
