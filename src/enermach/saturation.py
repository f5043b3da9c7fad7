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

This parameterisation is written down once, in the module-private table
``_QUARTIC``: per parameter its scaled key, its monomial x**i y**j, its
factor in H_mag and its power of phi_M.  The model's energy table, the
scaled form, the config's coefficient keys and the design matrix of
:mod:`enermach.identify` are all derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    PolynomialEnergy,
    SaturationRangeWarning,
    _require_finite,
    _require_flux_range,
    _require_machine,
    _shared,
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

# The quartic's parameterisation, one row per parameter in field order:
# field name, scaled key, exponents (i, j) of x**i y**j, factor of the
# parameter in H_mag, and the power of phi_M in the scaled form.
_QUARTIC = (
    ("inv_L_d", "phiM2_inv_Ld", (2, 0), 0.5, 2),
    ("inv_L_q", "phiM2_inv_Lq", (0, 2), 0.5, 2),
    ("alpha_30", "phiM3_alpha_30", (3, 0), 1.0, 3),
    ("alpha_12", "phiM3_alpha_12", (1, 2), 1.0, 3),
    ("alpha_40", "phiM4_alpha_40", (4, 0), 1.0, 4),
    ("alpha_22", "phiM4_alpha_22", (2, 2), 1.0, 4),
    ("alpha_04", "phiM4_alpha_04", (0, 4), 1.0, 4),
)

#: Order of the scaled-coefficient table used by from_scaled / scaled_values.
SCALED_KEYS = tuple(key for _, key, _, _, _ in _QUARTIC)


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
        _require_finite(self)
        if self.inv_L_d <= 0.0 or self.inv_L_q <= 0.0:
            raise ValueError("inverse inductances must be positive")
        _require_machine(self)

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
        scaled = locals()  # the arguments by name, before any other local is bound
        powers = _phi_M_powers(phi_M, "scaled coefficients need phi_M > 0")
        return cls(
            phi_M=phi_M,
            kinetic_coeff=kinetic_coeff,
            n_p=n_p,
            R_s=R_s,
            **{name: scaled[key] / m_p for (name, key, *_), m_p in zip(_QUARTIC, powers)},
        )

    def scaled_values(self) -> dict:
        """Coefficients premultiplied by powers of phi_M, keyed by SCALED_KEYS."""
        powers = _phi_M_powers(self.phi_M, "scaled form needs phi_M > 0")
        return {key: m_p * getattr(self, name) for (name, key, *_), m_p in zip(_QUARTIC, powers)}


def _phi_M_powers(phi_M: float, message: str) -> list:
    """phi_M**p of each row of _QUARTIC; ValueError(``message``) unless phi_M > 0, and one naming a phi_M out of range."""
    if phi_M <= 0.0:
        raise ValueError(message)
    _require_flux_range(phi_M)
    return [phi_M**p for *_, p in _QUARTIC]


def _quartic_terms(c: SaturationCoefficients) -> dict:
    """Coefficients of x**i y**j in H_mag, keyed by (i, j)."""
    return {ij: factor * getattr(c, name) for name, _, ij, factor, _ in _QUARTIC}


def _magnet_table(c: SaturationCoefficients, rows=()) -> tuple:
    """The :class:`PolynomialEnergy` arguments of the quartic of ``c`` plus angle ``rows``.

    The coefficients are trusted in the box |x|, |y| <= phi_M, and nowhere
    without a magnet.
    """
    box = c.phi_M if c.phi_M > 0.0 else None
    return [(0, _quartic_terms(c), {}), *rows], c.phi_M, c.kinetic_coeff, c.n_p, box


def saturated_currents(c: SaturationCoefficients, phi):
    """Currents (i_d, i_q) = dH_mag/dphi of the quartic model, shape (..., 2)."""
    return _shared(SaturatedPmsmEnergy, c).d_flux(0.0, 0.0, phi)


def incremental_inductance(c: SaturationCoefficients, phi):
    """Jacobian di/dphi of the quartic model, symmetric, shape (..., 2, 2), 1/H; warns outside the fitted box."""
    m = _shared(SaturatedPmsmEnergy, c)
    (h,) = m._run(m._hessian_kernel, 0.0, 0.0, phi, stacked=3)  # d2H/dx2, d2H/dxdy, d2H/dy2
    return np.take(h, [0, 1, 1, 2], axis=-1).reshape(*h.shape[:-1], 2, 2)


class SaturatedPmsmEnergy(PolynomialEnergy):
    """Energy model built on :class:`SaturationCoefficients`."""

    def __init__(self, coefficients: SaturationCoefficients):
        self.params = coefficients
        super().__init__(*_magnet_table(coefficients))


def saturated_energy(c: SaturationCoefficients) -> SaturatedPmsmEnergy:
    """Build the saturated magnet machine model."""
    return SaturatedPmsmEnergy(c)
