"""Energy model contract and the polynomial magnet machine models.

A machine is described by one scalar function H(theta, rho, phi): rotor
electrical angle, a momentum-like mechanical state, and the flux linkage
vector in rotating coordinates.  Everything observable is a derivative:

* currents           i = dH/dphi
* electrical speed   omega = dH/drho
* torque             T = -n_p * dH/dtheta + n_p * i^T J phi

The linear, reluctance, saturated and harmonic magnet machines are one
model, :class:`PolynomialEnergy`: a polynomial in the flux deviation from
the magnet working point times cos/sin of multiples of the rotor angle.
They differ only in the coefficient table their constructors build.
Each set of tables a method needs is compiled once, on first use, into one
straight-line Python function (:func:`_compile`).

All shipped models broadcast: ``phi`` may carry leading batch dimensions
(shape ``(..., flux_dim)``) with ``theta`` and ``rho`` broadcastable
against them.  One state (a one-dimensional ``phi``) is evaluated in
Python floats by the same code.  The simulator reaches a model only
through ``EnergyModel._step_gradient``, which takes and returns Python
floats; the shipped models override it to skip numpy altogether.
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "EnergyModel",
    "PolynomialEnergy",
    "SaturationRangeWarning",
    "LinearPmsmParams",
    "LinearPmsmEnergy",
    "SynrmEnergy",
    "MachineState",
    "linear_energy",
    "synrm_energy",
    "currents",
    "torque",
    "speed",
    "numeric_gradient",
    "kinetic_coefficient",
]


class EnergyModel(abc.ABC):
    """Scalar energy function of (theta, rho, phi) plus its analytic derivatives.

    Concrete models set ``flux_dim`` (2 for single-winding machines in dq,
    4 for machines with a rotor winding) and ``pole_pairs``.
    """

    flux_dim: int = 2
    pole_pairs: int = 1

    @abc.abstractmethod
    def evaluate(self, theta, rho, phi):
        """Energy in joules."""

    @abc.abstractmethod
    def d_flux(self, theta, rho, phi):
        """Gradient with respect to phi: the current vector, shape (..., flux_dim)."""

    @abc.abstractmethod
    def d_theta(self, theta, rho, phi):
        """Partial derivative with respect to rotor electrical angle."""

    @abc.abstractmethod
    def d_rho(self, theta, rho, phi):
        """Partial derivative with respect to rho: the electrical speed."""

    def gradient(self, theta, rho, phi):
        """``(d_flux, d_rho, d_theta)`` in one call.

        Models override it to share the work of the three derivatives.
        """
        return (
            self.d_flux(theta, rho, phi),
            self.d_rho(theta, rho, phi),
            self.d_theta(theta, rho, phi),
        )

    def _step_gradient(self, theta: float, rho: float, phi: list):
        """:meth:`gradient` at one state in Python floats: ``(list, float, float)``.

        The simulator calls only this, once per stage.  Models override it
        to skip the round trip through numpy; the values stay the same.
        """
        i, omega, h_theta = self.gradient(theta, rho, np.array(phi))
        return np.asarray(i, dtype=float).tolist(), float(omega), float(h_theta)


class SaturationRangeWarning(UserWarning):
    """Polynomial evaluated outside the flux box it was fitted on."""


def _num(v):
    """Python floats pass through; anything else becomes a float array."""
    return v if isinstance(v, float) else np.asarray(v, dtype=float)


def _components(phi):
    """Flux components: Python floats for one state, arrays for a batch."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        return phi.tolist()
    return [phi[..., k] for k in range(phi.shape[-1])]


def _vector(parts):
    """Stack per-component results (all floats, or arrays of one shape) on a last axis."""
    if isinstance(parts[0], float):
        return np.array(parts)
    return np.stack(parts, axis=-1)


def _zeros(*values):
    """0.0 when every value is a Python float, else zeros of their broadcast shape."""
    for v in values:
        if not isinstance(v, float):
            return np.zeros(np.broadcast_shapes(*(np.shape(v) for v in values)))
    return 0.0


# ---------------------------------------------------------------------------
# monomial tables and the kernel that evaluates them
#
# A table is a tuple of rows (w, a, b), one per angle order w, standing for
# sum_w [sum a_ij x**i y**j] cos(w theta) + [sum b_ij x**i y**j] sin(w theta);
# a and b map exponent pairs (i, j) to nonzero coefficients.


def _table(rows) -> tuple:
    table = []
    for w, a, b in rows:
        a = {ij: float(c) for ij, c in a.items() if c != 0.0}
        b = {ij: float(c) for ij, c in b.items() if c != 0.0} if w else {}
        if a or b:
            table.append((float(w), a, b))
    return tuple(table)


def _d_flux_table(table: tuple, axis: int) -> tuple:
    """Table of the derivative along x (axis 0) or y (axis 1)."""

    def derive(terms):
        return {
            (i - (axis == 0), j - (axis == 1)): (i, j)[axis] * c
            for (i, j), c in terms.items()
            if (i, j)[axis]
        }

    return _table((w, derive(a), derive(b)) for w, a, b in table)


def _d_theta_table(table: tuple) -> tuple:
    """Table of the derivative along theta: a cos + b sin -> w (b cos - a sin)."""
    return _table(
        (w, {ij: w * c for ij, c in b.items()}, {ij: -w * c for ij, c in a.items()})
        for w, a, b in table
    )


def _cos_sin(w: float, theta):
    if isinstance(theta, float):
        a = w * theta
        if math.isfinite(a):
            return math.cos(a), math.sin(a)
    a = w * np.asarray(theta, dtype=float)
    return np.cos(a), np.sin(a)


def _compile(tables: Sequence[tuple]):
    """Compile tables into one function ``(theta, x, y, zero) -> tuple`` of their values.

    The generated code is straight-line.  Powers of x and y are built by
    repeated multiplication, up to the highest exponent the tables use.
    Each polynomial is summed left to right from 0.0 in table order as
    c * x**i * y**j (a zeroth power is 1.0, and multiplying by it is exact,
    so it is left out).  cos/sin are taken once per angle order, at its
    first use, and each total starts from ``zero``.  Coefficients and angle
    orders are names bound in the function's namespace; only exponents
    appear in the source.  Only arithmetic operators touch x, y and theta,
    so Python floats (one state) and arrays (a batch) run the same code.
    """
    env = {"_cos_sin": _cos_sin}

    def bind(prefix, value):
        name = f"{prefix}{len(env)}"
        env[name] = value
        return name

    def poly(terms):
        out = "0.0"
        for (i, j), c in terms.items():
            out += " + " + " * ".join([bind("c", c)] + [f"X{i}"] * (i > 0) + [f"Y{j}"] * (j > 0))
        return f"({out})"

    exponents = [ij for t in tables for _, a, b in t for ij in (*a, *b)]
    lines = ["X1 = x", "Y1 = y"]
    for axis, v in enumerate("XY"):
        for n in range(2, max((ij[axis] for ij in exponents), default=0) + 1):
            lines.append(f"{v}{n} = {v}{n - 1} * {v.lower()}")
    trig = {}
    for k, table in enumerate(tables):
        lines.append(f"t{k} = zero")
        for w, a, b in table:
            value = poly(a)
            if w:
                if w not in trig:
                    trig[w] = n = len(trig)
                    lines.append(f"C{n}, S{n} = _cos_sin({bind('w', w)}, theta)")
                value = f"{value} * C{trig[w]} + {poly(b)} * S{trig[w]}"
            lines.append(f"t{k} = t{k} + ({value})")
    lines.append(f"return ({', '.join(f't{k}' for k in range(len(tables)))},)")
    source = "def kernel(theta, x, y, zero):\n" + "".join(f"    {line}\n" for line in lines)
    exec(compile(source, "<enermach kernel>", "exec"), env)
    return env["kernel"]


@dataclass(frozen=True)
class LinearPmsmParams:
    """Parameters of the linear (unsaturated) magnet machine in dq coordinates.

    Parameters
    ----------
    L_d, L_q : float
        Direct and quadrature axis inductances (H).
    phi_M : float
        Magnet flux linkage (Wb).  Zero gives a pure reluctance machine.
    kinetic_coeff : float
        Coefficient kappa of rho**2/2 in the energy; omega = kappa*rho.
        See :func:`kinetic_coefficient` for the two inertia conventions.
    n_p : int
        Pole pair count.
    R_s : float
        Stator resistance (ohm).  Not part of the energy; the simulator
        and the power bookkeeping use it.
    """

    L_d: float
    L_q: float
    phi_M: float
    kinetic_coeff: float
    n_p: int
    R_s: float = 0.0

    def __post_init__(self):
        if self.L_d <= 0.0 or self.L_q <= 0.0:
            raise ValueError("inductances must be positive")
        if self.phi_M < 0.0:
            raise ValueError("phi_M must be non-negative")
        if self.kinetic_coeff <= 0.0:
            raise ValueError("kinetic_coeff must be positive")
        if int(self.n_p) != self.n_p or self.n_p < 1:
            raise ValueError("n_p must be a positive integer")
        if self.R_s < 0.0:
            raise ValueError("R_s must be non-negative")


class PolynomialEnergy(EnergyModel):
    """Magnet machine whose magnetic energy is a polynomial with angle harmonics.

        H = kappa*rho**2/2 + sum_w [A_w(x, y) cos(w theta) + B_w(x, y) sin(w theta)]

    with x = phi_d - phi_M, y = phi_q and angle orders w = 0 or 6k.
    ``orders`` lists ``(w, a, b)``: a and b map exponent pairs (i, j) to the
    coefficients of x**i y**j in A_w and B_w.  The constructor builds the
    monomial tables of H, dH/dx, dH/dy and dH/dtheta; each method runs one
    function compiled from the tables it needs (:func:`_compile`), on first
    use, so building a model to validate a config compiles nothing.

    ``box`` is the half-width of the flux box |x|, |y| <= box the
    coefficients are trusted in; outside it the model warns
    (:class:`SaturationRangeWarning`) and still evaluates.  ``None`` never
    warns.
    """

    flux_dim = 2

    def __init__(self, orders, phi_M: float, kinetic_coeff: float, n_p: int, box=None):
        self.pole_pairs = int(n_p)
        self._phi_M = float(phi_M)
        self._kappa = float(kinetic_coeff)
        self._box = box
        self._h = _table(orders)
        self._h_x = _d_flux_table(self._h, 0)
        self._h_y = _d_flux_table(self._h, 1)
        self._h_theta = _d_theta_table(self._h)

    @cached_property
    def _energy_kernel(self):
        return _compile((self._h,))

    @cached_property
    def _current_kernel(self):
        return _compile((self._h_x, self._h_y))

    @cached_property
    def _angle_kernel(self):
        return _compile((self._h_theta,))

    @cached_property
    def _gradient_kernel(self):
        return _compile((self._h_x, self._h_y, self._h_theta))

    def __getstate__(self):
        # compiled kernels do not pickle; they are compiled again on first use
        return {k: v for k, v in self.__dict__.items() if not k.endswith("_kernel")}

    def _check_box(self, x, y, stacklevel):
        # stacklevel points the warning at the caller of the public method,
        # or at the simulator line that evaluates the model; one state is
        # checked in floats, and only a batch pays for reductions
        if self._box is None:
            return
        if isinstance(x, float):
            worst = max(abs(x), abs(y))
        else:
            worst = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
        if worst > self._box:
            warnings.warn(
                f"flux deviation {worst:.4g} Wb exceeds the saturation model's "
                f"fitted range |x|,|y| <= {self._box:.4g} Wb",
                SaturationRangeWarning,
                stacklevel=stacklevel,
            )

    def _deviation(self, theta, rho, phi):
        phi_d, y = _components(phi)
        x = phi_d - self._phi_M
        self._check_box(x, y, 4)
        return x, y, _zeros(theta, rho, x)

    def evaluate(self, theta, rho, phi):
        (h,) = self._energy_kernel(theta, *self._deviation(theta, rho, phi))
        rho = _num(rho)
        return 0.5 * self._kappa * (rho * rho) + h

    def d_flux(self, theta, rho, phi):
        return _vector(self._current_kernel(theta, *self._deviation(theta, rho, phi)))

    def d_theta(self, theta, rho, phi):
        return self._angle_kernel(theta, *self._deviation(theta, rho, phi))[0]

    def d_rho(self, theta, rho, phi):
        return self._kappa * _num(rho)

    def gradient(self, theta, rho, phi):
        i_d, i_q, h_theta = self._gradient_kernel(theta, *self._deviation(theta, rho, phi))
        return _vector((i_d, i_q)), self._kappa * _num(rho), h_theta

    def _step_gradient(self, theta, rho, phi):
        x = phi[0] - self._phi_M
        y = phi[1]
        self._check_box(x, y, 3)
        i_d, i_q, h_theta = self._gradient_kernel(theta, x, y, 0.0)
        return [i_d, i_q], self._kappa * rho, h_theta


class LinearPmsmEnergy(PolynomialEnergy):
    """Quadratic energy: kinetic term plus one quadratic well per axis.

    H = kappa*rho**2/2 + (phi_d - phi_M)**2/(2 L_d) + phi_q**2/(2 L_q)
    """

    def __init__(self, params: LinearPmsmParams):
        self.params = params
        wells = {(2, 0): 0.5 / params.L_d, (0, 2): 0.5 / params.L_q}
        super().__init__([(0, wells, {})], params.phi_M, params.kinetic_coeff, params.n_p)


class SynrmEnergy(LinearPmsmEnergy):
    """Pure reluctance machine: the linear model with no magnet flux."""


def linear_energy(p: LinearPmsmParams) -> LinearPmsmEnergy:
    """Build the linear magnet machine model."""
    return LinearPmsmEnergy(p)


def synrm_energy(p: LinearPmsmParams) -> SynrmEnergy:
    """Build the reluctance machine model; requires phi_M == 0."""
    if p.phi_M != 0.0:
        raise ValueError("reluctance model requires phi_M = 0")
    return SynrmEnergy(p)


def currents(m: EnergyModel, theta, rho, phi):
    """Current vector i = dH/dphi, shape (..., flux_dim)."""
    return m.d_flux(theta, rho, phi)


def speed(m: EnergyModel, theta, rho, phi):
    """Electrical angular speed omega = dH/drho."""
    return m.d_rho(theta, rho, phi)


def torque(m: EnergyModel, theta, rho, phi):
    """Electromagnetic torque, T = -n_p * dH/dtheta + n_p * (i_q*phi_d - i_d*phi_q).

    The cross product is taken on the first (stator) flux pair for every
    model; with it the power balance of a simulated run closes.
    """
    phi = np.asarray(phi, dtype=float)
    i, _, h_theta = m.gradient(theta, rho, phi)
    i = np.asarray(i, dtype=float)
    return _torque(m.pole_pairs, h_theta, i[..., 0], i[..., 1], phi[..., 0], phi[..., 1])


def _torque(n_p, h_theta, i_d, i_q, phi_d, phi_q):
    # the one torque expression: torque(), the simulator and its record use it
    return -n_p * h_theta + n_p * (i_q * phi_d - i_d * phi_q)


def numeric_gradient(f, x, scale: float = 1.0e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function at the point ``x``.

    The step is ``scale * max(1, ||x||)`` applied per coordinate.  Meant as
    an independent cross-check of analytic derivatives, so it deliberately
    knows nothing about the function it probes.
    """
    x = np.asarray(x, dtype=float)
    h = scale * max(1.0, float(np.linalg.norm(x)))
    g = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step.flat[k] = h
        g.flat[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def kinetic_coefficient(inertia: float, pole_pairs: int, convention: str = "mechanical") -> float:
    """Kinetic coefficient kappa from rotor inertia.

    ``mechanical`` stores the true rotational energy (kappa = n_p**2 / J, so
    kappa*rho**2/2 equals J*omega_mech**2/2 with omega = kappa*rho).  The
    ``reciprocal`` convention kappa = 1 / (J * n_p**2) also circulates; it is
    accepted for interoperability.
    """
    if inertia <= 0.0:
        raise ValueError("inertia must be positive")
    if convention == "mechanical":
        return pole_pairs**2 / inertia
    if convention == "reciprocal":
        return 1.0 / (inertia * pole_pairs**2)
    raise ValueError(f"unknown kinetic convention {convention!r}")


@dataclass(frozen=True)
class MachineState:
    """Instantaneous state (theta, rho, phi) of a machine."""

    theta: float
    rho: float
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float).copy())
