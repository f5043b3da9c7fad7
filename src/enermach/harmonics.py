"""Rotor-angle harmonics on top of the saturation model.

Slotting and winding distribution make the energy depend on rotor angle.
In rotating coordinates the energy repeats every pi/3 electrical radians,
so that dependence has only the angle orders 6k: cos(6k*theta) and
sin(6k*theta), with flux-dependent amplitudes:

    H = H_sat(rho, phi) + sum_k [ a_6k(x, y) cos(6k theta) + b_6k(x, y) sin(6k theta) ]

where x = phi_d - phi_M, y = phi_q.  The mirror symmetry of the winding
adds a parity rule: cos amplitudes are even in y, sin amplitudes odd in y.
Both rules are the ``admits`` of the ``period`` and ``parity`` entries of
:data:`enermach.frames.DQ_IDENTITIES`.

The zero axis gets its own periodic flux map phi0(theta) with fundamental
period 2*pi/3; its time derivative sets the neutral-point voltage of a
star-connected winding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Tuple

import numpy as np

from .energy import (
    _COUNT_MAX,
    EnergyModel,
    PolynomialEnergy,
    _compile,
    _d_flux_table,
    _d_theta_table,
    _finite_array,
    _require_finite,
    _require_whole,
    _state_without_kernels,
    _table,
    _time_steps,
    _zeros,
    torque,
)
from .frames import DQ_IDENTITIES
from .saturation import SaturationCoefficients, _magnet_table

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
        for (i, j), c in dict(self.coeffs).items():
            for e in (i, j):
                _require_whole(e, 0, f"coefficient ({i},{j}): exponents must be non-negative integers")
            if i + j > _MAX_DEGREE:
                raise ValueError(
                    f"coefficient ({i},{j}): total degree {i + j} exceeds the cap {_MAX_DEGREE}"
                )
            if not np.isfinite(c):
                raise ValueError(f"coefficient ({i},{j}) is not finite")
            clean[(int(i), int(j))] = float(c)
        object.__setattr__(self, "coeffs", clean)

    __getstate__ = _state_without_kernels

    @cached_property
    def _value_kernel(self):
        return _compile((_table([(0, self.coeffs, {})]),))

    @cached_property
    def _grad_kernel(self):
        table = _table([(0, self.coeffs, {})])
        return _compile((_d_flux_table(table, 0), _d_flux_table(table, 1)))

    def value(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self._value_kernel(0.0, x, y, _zeros(x, y))[0]

    def grad(self, x, y):
        """(d/dx, d/dy), each broadcast like the inputs."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self._grad_kernel(0.0, x, y, _zeros(x, y))


@dataclass(frozen=True)
class HarmonicTerm:
    """One angle harmonic of order 6k, 1 <= k <= 2**53, with its amplitude polynomials.

    ``a_poly`` multiplies cos(6k theta), ``b_poly`` sin(6k theta); the ``parity`` entry of
    :data:`enermach.frames.DQ_IDENTITIES` admits cos rows even in y and sin rows odd in y.
    """

    k: int
    a_poly: FluxPolynomial = field(default_factory=lambda: FluxPolynomial({}))
    b_poly: FluxPolynomial = field(default_factory=lambda: FluxPolynomial({}))

    def __post_init__(self):
        _require_whole(self.k, 1, "harmonic index k must be a positive integer")
        if self.k > _COUNT_MAX:
            raise ValueError(f"harmonic index k must be at most 2**53, got {self.k}")
        for name, trig, power in (("a_poly", "cos", "even"), ("b_poly", "sin", "odd")):
            for (i, j), c in getattr(self, name).coeffs.items():
                if c != 0.0 and not DQ_IDENTITIES["parity"].admits(6 * self.k, trig, (i, j)):
                    raise ValueError(
                        f"{name}[{i},{j}] of harmonic k={self.k}: {trig} amplitudes must "
                        f"have {power} powers of phi_q"
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
        _require_finite(self)

    __getstate__ = _state_without_kernels

    @cached_property
    def _series_kernel(self):
        # (phi0, dphi0/dtheta) over no flux variable; cos rows before sin rows sum the terms in coefficient order
        cos_rows = [(3 * m, {(): c}, {}) for m, c in enumerate(self.cos_coeffs, start=1)]
        table = _table([*cos_rows, *((3 * m, {}, {(): s}) for m, s in enumerate(self.sin_coeffs, start=1))])
        return _compile((table, _d_theta_table(table)), 0)

    def value(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._series_kernel(theta, _zeros(theta))[0]

    def d_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._series_kernel(theta, _zeros(theta))[1]


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
        self.params = model.base
        rows = [(6.0 * t.k, t.a_poly.coeffs, t.b_poly.coeffs) for t in model.terms]
        super().__init__(*_magnet_table(model.base, rows))


def harmonic_energy(m: HarmonicModel) -> HarmonicPmsmEnergy:
    """Build the harmonic machine model."""
    return HarmonicPmsmEnergy(m)


def ripple_torque(model: EnergyModel, theta_grid, rho, phi):
    """Torque sampled over a rotor-angle grid at frozen (rho, phi).

    The grid must span at least one ripple period pi/3 so periodicity and
    spectral claims can actually be checked on the result.
    """
    theta_grid = _finite_array(theta_grid, "theta_grid")
    if theta_grid.size < 2 or theta_grid.max() - theta_grid.min() < DQ_IDENTITIES["period"].shift - 1e-12:
        raise ValueError("theta grid must span at least pi/3")
    return torque(model, theta_grid, rho, np.asarray(phi, dtype=float))


def neutral_voltage(model: HarmonicPmsmEnergy, t, theta, rho, v_s0=0.0):
    """Neutral-point voltage of a star-connected winding along a trajectory.

    The zero-axis flux is a function of rotor angle only, so its time
    derivative comes from the chain rule dphi0/dt = phi0'(theta) * omega,
    never from differencing samples.  The zero-axis circuit imposes
    dphi0/dt = v_s0 - sqrt(3)*v_N, so the star point floats at

        v_N = (v_s0 - dphi0/dt) / sqrt(3)

    Parameters are trajectory arrays: strictly increasing times ``t``,
    rotor angles ``theta`` and momenta ``rho``; the speed dH/drho does not
    read the flux.  ``v_s0`` is the zero-axis source voltage, scalar or
    per-sample.  ``t`` keeps the time-grid rule (``_time_steps``), ``theta``,
    ``rho``, ``v_s0`` the finite-array rule, and a sample overflowing v_N is named.
    """
    series = model.harmonic_model.zero_axis
    if series is None:
        raise ValueError("model has no zero-axis flux map")
    _time_steps(t, "t", "trajectory times must be strictly increasing")
    theta = _finite_array(theta, "theta")
    rho = _finite_array(rho, "rho")
    v_s0 = _finite_array(v_s0, "v_s0")
    with np.errstate(over="ignore", invalid="ignore"):  # dphi0/dt = phi0'(theta) * omega may overflow
        v_n = (v_s0 - series.d_theta(theta) * model.d_rho(theta, rho, np.zeros(2))) / _SQRT_3
    if not np.all(np.isfinite(v_n)):
        raise ValueError(f"theta or rho overflows v_N at sample {np.argmin(np.isfinite(v_n))}")
    return v_n
