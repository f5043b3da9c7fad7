"""Rotor-angle harmonics on top of the saturation model.

Slotting and winding distribution make the energy depend on rotor angle.
In rotating coordinates that dependence collapses onto multiples of six
electrical degrees per period... more precisely onto cos(6k*theta) and
sin(6k*theta), with flux-dependent amplitudes:

    H = H_sat(rho, phi) + sum_k [ a_6k(x, y) cos(6k theta) + b_6k(x, y) sin(6k theta) ]

where x = phi_d - phi_M, y = phi_q.  Amplitude polynomials obey a parity
rule: cos amplitudes are even in y, sin amplitudes odd in y.  That rule is
what makes torque and currents pi/3-periodic in theta and keeps the
spectrum of the ripple on multiples of six.

The zero axis gets its own periodic flux map phi0(theta) with fundamental
period 2*pi/3; its time derivative sets the neutral-point voltage of a
star-connected winding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .energy import EnergyModel, PolynomialEnergy, _d_flux_table, _kernel, _table, _zeros, torque
from .saturation import SaturationCoefficients, _quartic_terms

__all__ = [
    "FluxPolynomial",
    "HarmonicTerm",
    "ZeroAxisSeries",
    "HarmonicModel",
    "HarmonicPmsmEnergy",
    "harmonic_energy",
    "ripple_torque",
    "neutral_voltage",
]

_MAX_DEGREE = 4
_SQRT_3 = np.sqrt(3.0)


@dataclass(frozen=True)
class FluxPolynomial:
    """Polynomial in (x, y) = (phi_d - phi_M, phi_q), capped at total degree 4.

    ``coeffs`` maps exponent pairs (i, j) to coefficients.
    """

    coeffs: Mapping[Tuple[int, int], float]

    def __post_init__(self):
        clean = {}
        for key, c in dict(self.coeffs).items():
            i, j = key
            if i < 0 or j < 0 or int(i) != i or int(j) != j:
                raise ValueError(f"coefficient ({i},{j}): exponents must be non-negative integers")
            if i + j > _MAX_DEGREE:
                raise ValueError(
                    f"coefficient ({i},{j}): total degree {i + j} exceeds the cap {_MAX_DEGREE}"
                )
            if not np.isfinite(c):
                raise ValueError(f"coefficient ({i},{j}) is not finite")
            clean[(int(i), int(j))] = float(c)
        object.__setattr__(self, "coeffs", clean)

    def value(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        table = _table([(0, self.coeffs, {})])
        return _kernel((table,), _MAX_DEGREE, 0.0, x, y, _zeros(x, y))[0]

    def grad(self, x, y):
        """(d/dx, d/dy), each broadcast like the inputs."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        table = _table([(0, self.coeffs, {})])
        gx, gy = _kernel(
            (_d_flux_table(table, 0), _d_flux_table(table, 1)), _MAX_DEGREE, 0.0, x, y, _zeros(x, y)
        )
        return gx, gy

    def even_in_y(self) -> bool:
        return all(j % 2 == 0 for (_, j), c in self.coeffs.items() if c != 0.0)

    def odd_in_y(self) -> bool:
        return all(j % 2 == 1 for (_, j), c in self.coeffs.items() if c != 0.0)


@dataclass(frozen=True)
class HarmonicTerm:
    """One angle harmonic of order 6k with its amplitude polynomials.

    ``a_poly`` multiplies cos(6k theta) and must be even in y; ``b_poly``
    multiplies sin(6k theta) and must be odd in y.
    """

    k: int
    a_poly: FluxPolynomial = field(default_factory=lambda: FluxPolynomial({}))
    b_poly: FluxPolynomial = field(default_factory=lambda: FluxPolynomial({}))

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("harmonic index k must be a positive integer")
        for (i, j), c in self.a_poly.coeffs.items():
            if c != 0.0 and j % 2 != 0:
                raise ValueError(
                    f"a_poly[{i},{j}] of harmonic k={self.k}: cos amplitudes must "
                    "have even powers of phi_q"
                )
        for (i, j), c in self.b_poly.coeffs.items():
            if c != 0.0 and j % 2 != 1:
                raise ValueError(
                    f"b_poly[{i},{j}] of harmonic k={self.k}: sin amplitudes must "
                    "have odd powers of phi_q"
                )


@dataclass(frozen=True)
class ZeroAxisSeries:
    """Fourier series of the zero-axis flux over theta, period 2*pi/3.

    phi0(theta) = sum_m cos_coeffs[m-1]*cos(3m theta) + sin_coeffs[m-1]*sin(3m theta)
    """

    cos_coeffs: Tuple[float, ...] = ()
    sin_coeffs: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape)
        for m, c in enumerate(self.cos_coeffs, start=1):
            out = out + c * np.cos(3.0 * m * theta)
        for m, s in enumerate(self.sin_coeffs, start=1):
            out = out + s * np.sin(3.0 * m * theta)
        return out

    def d_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape)
        for m, c in enumerate(self.cos_coeffs, start=1):
            out = out - 3.0 * m * c * np.sin(3.0 * m * theta)
        for m, s in enumerate(self.sin_coeffs, start=1):
            out = out + 3.0 * m * s * np.cos(3.0 * m * theta)
        return out


@dataclass(frozen=True)
class HarmonicModel:
    """Saturation base plus harmonic terms plus the optional zero-axis map."""

    base: SaturationCoefficients
    terms: Tuple[HarmonicTerm, ...] = ()
    zero_axis: Optional[ZeroAxisSeries] = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        orders = [t.k for t in self.terms]
        if len(set(orders)) != len(orders):
            raise ValueError("duplicate harmonic order k; merge the amplitude polynomials")


class HarmonicPmsmEnergy(PolynomialEnergy):
    """Energy model with explicit rotor-angle dependence."""

    def __init__(self, model: HarmonicModel):
        self.harmonic_model = model
        self.params = c = model.base
        orders = [(0, _quartic_terms(c), {})]
        orders += [(6.0 * t.k, t.a_poly.coeffs, t.b_poly.coeffs) for t in model.terms]
        box = c.phi_M if c.phi_M > 0.0 else None
        super().__init__(orders, c.phi_M, c.kinetic_coeff, c.n_p, box)


def harmonic_energy(m: HarmonicModel) -> HarmonicPmsmEnergy:
    """Build the harmonic machine model."""
    return HarmonicPmsmEnergy(m)


def ripple_torque(model: EnergyModel, theta_grid, rho, phi):
    """Torque sampled over a rotor-angle grid at frozen (rho, phi).

    The grid must span at least one ripple period pi/3 so periodicity and
    spectral claims can actually be checked on the result.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size < 2 or theta_grid.max() - theta_grid.min() < np.pi / 3.0 - 1e-12:
        raise ValueError("theta grid must span at least pi/3")
    return torque(model, theta_grid, rho, np.asarray(phi, dtype=float))


def neutral_voltage(model: HarmonicPmsmEnergy, t, theta, rho, phi=None, v_s0=0.0):
    """Neutral-point voltage of a star-connected winding along a trajectory.

    The zero-axis flux is a function of rotor angle only, so its time
    derivative comes from the chain rule dphi0/dt = phi0'(theta) * omega,
    never from differencing samples.  The zero-axis circuit imposes
    dphi0/dt = v_s0 - sqrt(3)*v_N, so the star point floats at

        v_N = (v_s0 - dphi0/dt) / sqrt(3)

    Parameters are trajectory arrays: strictly increasing times ``t``,
    rotor angles ``theta`` and momenta ``rho`` (``phi`` optional, used only
    to evaluate the speed map).  ``v_s0`` is the zero-axis source voltage,
    scalar or per-sample.
    """
    series = model.harmonic_model.zero_axis
    if series is None:
        raise ValueError("model has no zero-axis flux map")
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if t.size >= 2 and np.any(np.diff(t) <= 0.0):
        raise ValueError("trajectory times must be strictly increasing")
    if phi is None:
        phi = np.zeros(theta.shape + (2,))
    omega = model.d_rho(theta, rho, np.asarray(phi, dtype=float))
    dphi0_dt = series.d_theta(theta) * omega
    return (np.asarray(v_s0, dtype=float) - dphi0_dt) / _SQRT_3
