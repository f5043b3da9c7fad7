"""Energy model contract and the polynomial table model of every machine kind.

A machine is described by one scalar function H(theta, rho, phi): rotor
electrical angle, a momentum-like mechanical state, and the flux linkage
vector in rotating coordinates.  Everything observable is a derivative:

* currents           i = dH/dphi
* electrical speed   omega = dH/drho
* torque             T = -n_p * dH/dtheta + n_p * i^T J phi

The linear, reluctance, saturated and harmonic magnet machines and the
induction machine are one model, :class:`PolynomialEnergy`: a polynomial
in the flux_dim flux variables times cos/sin of multiples of the rotor
angle.  The five kinds differ only in the coefficient table their
constructors build.  Each set of tables a method needs is compiled once,
on first use, into one straight-line Python function (:func:`_compile`).

All shipped models broadcast: ``phi`` may carry leading batch dimensions
(shape ``(..., flux_dim)``) with ``theta`` and ``rho`` broadcastable
against them.  One state (a one-dimensional ``phi``) is evaluated in
Python floats by the same code, and a batch of more than ``_BLOCK``
states block by block (:func:`_blockwise`), so that the temporaries of
one kernel call stay a fixed size; :func:`torque` holds the whole
batch's gradient before its own blocked pass.  The simulator reaches a model only through
``EnergyModel._stage_source``: the source lines of one evaluation in
Python floats, which it writes into the generated code of a whole
integrator step.  The five shipped kinds emit their table kernel inline;
any other model emits a call to ``EnergyModel._step_gradient``.
"""

from __future__ import annotations

import abc
import math
import os
import sys
import types
import warnings
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
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
        """Gradient with respect to phi: the current vector, shape (..., flux_dim).

        ``phi`` may carry leading batch axes; ``theta`` and ``rho`` broadcast against them.
        """

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

    def _d_flux_columns(self, theta, rho, columns):
        """The currents at the flux ``np.moveaxis(columns, 0, -1)``, one array per component."""
        return np.moveaxis(self.d_flux(theta, rho, np.moveaxis(columns, 0, -1)), -1, 0)

    def _step_gradient(self, theta: float, rho: float, phi: list):
        """:meth:`gradient` at one state in Python floats: ``(list, float, float)``."""
        i, omega, h_theta = self.gradient(theta, rho, np.array(phi))
        return np.asarray(i, dtype=float).tolist(), float(omega), float(h_theta)

    def _stage_source(self, env: dict) -> list:
        """Source lines of one evaluation inside the simulator's generated step.

        The lines read the Python floats ``theta``, ``rho``, the flux_dim
        components ``phi_d``, ``phi_q`` (``phi_rd``, ``phi_rq``) and the
        stage time ``ts``.  They set ``i_d``, ``i_q`` (``i_rd``, ``i_rq``),
        ``omega`` and ``h_theta`` to the values of :meth:`_step_gradient`,
        bit for bit; a model whose energy has no angle dependence may leave
        ``h_theta`` out, and the simulator then drops the torque's angle
        part.  A fitted model reports each evaluation outside its box by
        calling ``outside(ts, x, y, box)`` (see :class:`_Excursions`).
        Values the lines use are bound in ``env`` (:func:`_bind`), never
        printed, so models of one structure share the source.  This default
        calls :meth:`_step_gradient`; the five shipped kinds, all
        :class:`PolynomialEnergy`, inline their n-variable table kernel.
        """
        currents = ", ".join(_CURRENT_NAMES[: self.flux_dim])
        phi = ", ".join(_FLUX_NAMES[: self.flux_dim])
        return [f"({currents},), omega, h_theta = {_bind(env, 'g', self._step_gradient)}(theta, rho, [{phi}])"]

    # the simulator's compiled programs of this model, by drive kinds and
    # integrator (see enermach.dynamics); None keeps none
    _programs = None


# names of the flux and current components in generated simulator code
_FLUX_NAMES = ("phi_d", "phi_q", "phi_rd", "phi_rq")
_CURRENT_NAMES = ("i_d", "i_q", "i_rd", "i_rq")


class SaturationRangeWarning(UserWarning):
    """Polynomial evaluated outside the flux box it was fitted on."""


# the file name of generated code, and the directory of the library's modules
_GENERATED = "<enermach generated>"
_LIBRARY = os.path.dirname(__file__) + os.sep


def _caller_level() -> int:
    """The ``stacklevel`` that makes a warning its caller raises name the library's caller.

    That is the first frame outside the library's modules and generated
    code; the command line, though in the package, is a caller.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and _in_library(frame.f_code.co_filename):
        frame, level = frame.f_back, level + 1
    return level


def _in_library(filename: str) -> bool:
    return filename == _GENERATED or (filename.startswith(_LIBRARY) and os.path.basename(filename) != "cli.py")


class _Excursions:
    """Evaluations outside a fitted flux box during one run, reported in one warning.

    Generated simulator code calls the instance as ``outside(t, x, y, box)``
    for every evaluation (each integrator stage and each recorded row) at
    which |x| or |y| exceeds ``box``.
    """

    def __init__(self):
        self.count = 0
        self.first_t = self.box = None
        self.worst_x = self.worst_y = 0.0

    def __call__(self, t, x, y, box):
        if not self.count:
            self.first_t, self.box = t, box
        self.count += 1
        self.worst_x = max(self.worst_x, abs(x))
        self.worst_y = max(self.worst_y, abs(y))

    def warn(self, stacklevel: int) -> None:
        if self.count:
            warnings.warn(
                f"{self.count} evaluations outside the saturation model's fitted range "
                f"|x|,|y| <= {self.box:.4g} Wb, the first at t={self.first_t:.9g} s; "
                f"worst |x| {self.worst_x:.4g} Wb, worst |y| {self.worst_y:.4g} Wb",
                SaturationRangeWarning,
                stacklevel=stacklevel + 1,
            )


_SEQUENCES = (tuple, list, np.ndarray)
_COUNT_MAX = 2**53  # the largest count (n_p, a harmonic index k): a float holds every whole number up to it


def _require_finite(record) -> None:
    """Raise ValueError naming the first field of a dataclass that is not finite.

    A field holding a sequence is checked entry by entry, and the entry is named.
    """
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, _SEQUENCES):
            for k, v in enumerate(value):
                if not math.isfinite(v):
                    raise ValueError(f"{f.name}[{k}] must be finite, got {v}")
        elif not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _finite_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; the first non-finite entry raises ValueError naming ``name[k]``."""
    a = np.asarray(values, dtype=float)
    finite = np.isfinite(a)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"{name}[{k}] must be finite, got {float(a.flat[k])}")
    return a


def _time_steps(t, name: str, message: str, min_size: int = 0) -> np.ndarray:
    """The steps ``np.diff(t)`` of a time grid of finite, strictly increasing times.

    A non-finite time is named as ``name[k]`` first: a NaN passes the order
    check, as it compares False.  Fewer than ``min_size`` times or a step
    <= 0 raises ValueError(``message``).
    """
    t = _finite_array(t, name)
    steps = np.diff(t) if t.ndim else np.empty(0)
    if t.size < min_size or np.any(steps <= 0.0):
        raise ValueError(message)
    return steps


def _require_whole(value, least: int, message: str) -> None:
    """The count rule: a whole number >= ``least``, so not NaN, +-inf or 2.5, else ValueError(``message``)."""
    if not (value >= least and value % 1 == 0):
        raise ValueError(message)


def _require_machine(p) -> None:
    """The rules every machine record keeps after its own, checked in this order."""
    if getattr(p, "phi_M", 0.0) < 0.0:
        raise ValueError("phi_M must be non-negative")
    if p.kinetic_coeff <= 0.0:
        raise ValueError("kinetic_coeff must be positive")
    _require_whole(p.n_p, 1, "n_p must be a positive integer")
    if p.R_s < 0.0:
        raise ValueError("R_s must be non-negative")


def _require_flux_range(phi_M: float) -> None:
    """The range rule of a magnet flux: phi_M is 0, or phi_M**4, the highest power a quartic takes of it, is a nonzero float."""
    try:
        if phi_M == 0.0 or phi_M**4 != 0.0:
            return
    except OverflowError:
        pass
    raise ValueError(f"phi_M = {phi_M!r} is out of range: phi_M**4 must be a nonzero float")


def _magnet_box(m) -> tuple:
    """A model's magnet flux phi_M and the half-width of its flux box: phi_M, or 0.25 Wb without a magnet."""
    phi_M = float(getattr(getattr(m, "params", None), "phi_M", 0.0))
    return phi_M, phi_M if phi_M > 0.0 else 0.25


def _shared(cls, params):
    """The model ``cls(params)`` the one-call front ends share, so its code compiles once.

    Parameter sets share a model when they are equal with every zero of
    the same sign: 0.0 == -0.0, yet a run with R_s = -0.0 may record zeros
    of other signs than one with R_s = 0.0.
    """
    return _shared_model(cls, params, tuple(math.copysign(1.0, v) for v in vars(params).values()))


@lru_cache(maxsize=16)
def _shared_model(cls, params, signs: tuple):
    return cls(params)


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
            return np.zeros(np.broadcast(*values).shape)
    return 0.0


# the most states one pass of the array path holds temporaries for
_BLOCK = 8192


def _block_keys(shape: tuple):
    """Index tuples that cut ``shape`` along its trailing axes into blocks of at most ``_BLOCK`` states.

    A one-axis shape is cut in order.  An argument of lower rank, which
    numpy aligns with the trailing axes, is cut with the states, so each of
    its values falls in one block: the angle terms of a theta that runs
    along the last axis, as reciprocity's probes take it, are taken once.
    """
    outer = math.prod(shape[:-1])
    if outer > _BLOCK:
        for key in _block_keys(shape[:-1]):
            for k in range(shape[-1]):
                yield (*key, slice(k, k + 1))
    else:
        step = _BLOCK // outer
        for lo in range(0, shape[-1], step):
            yield (*(slice(None),) * (len(shape) - 1), slice(lo, lo + step))


def _part(a, key: tuple, shape: tuple):
    """The block ``key`` of the states ``shape``, of an argument broadcast against them."""
    if isinstance(a, float) or not a.ndim:
        return a
    if a.shape == shape:
        return a[key]
    return a[tuple(k if n > 1 else slice(None) for k, n in zip(key[len(shape) - a.ndim :], a.shape))]


def _blockwise(f, args, stacked: int = 0) -> tuple:
    """``f(*args)``, a tuple of results over the states ``args`` broadcast to, the first ``stacked`` as one array.

    ``args`` are Python floats, passed whole, and arrays.  Up to ``_BLOCK``
    states take one call.  A larger batch is cut along its trailing axes
    (:func:`_block_keys`), an array argument is sliced with each block, and
    each block's results are written into full-size arrays.  A state's
    numbers take the same operations in any block, so the results are the
    same bit for bit.  The first ``stacked`` results come as one
    ``(..., stacked)`` array, as :func:`_vector` stacks them.
    """
    shape = np.broadcast(*args).shape
    if math.prod(shape) <= _BLOCK:
        out = f(*args)
        return (_vector(out[:stacked]), *out[stacked:]) if stacked else out
    args = [a if isinstance(a, float) else np.asarray(a, dtype=float) for a in args]
    out = None
    for key in _block_keys(shape):
        parts = f(*(_part(a, key, shape) for a in args))
        if out is None:
            vector = np.empty((*shape, stacked))
            out = [vector[..., k] for k in range(stacked)] + [np.empty(shape) for _ in parts[stacked:]]
        for whole, part in zip(out, parts):
            whole[key] = part
    return (vector, *out[stacked:]) if stacked else tuple(out)


# ---------------------------------------------------------------------------
# monomial tables and the kernel that evaluates them
#
# A table is a tuple of rows (w, a, b), one per angle order w, standing for
# sum_w [sum a_e v**e] cos(w theta) + [sum b_e v**e] sin(w theta) over the
# variables v = (x, y, ...) of _VARIABLES; a and b map exponent tuples e,
# one exponent per variable, to nonzero coefficients.
_VARIABLES = ("x", "y", "z", "v")


def _table(rows) -> tuple:
    table = []
    for w, a, b in rows:
        a = {ij: float(c) for ij, c in a.items() if c != 0.0}
        b = {ij: float(c) for ij, c in b.items() if c != 0.0} if w else {}
        if a or b:
            table.append((float(w), a, b))
    return tuple(table)


def _d_flux_table(table: tuple, axis: int) -> tuple:
    """Table of the derivative along variable ``axis`` (0 for x, 1 for y, ...)."""

    def derive(terms):
        return {
            tuple(n - (k == axis) for k, n in enumerate(e)): e[axis] * c
            for e, c in terms.items()
            if e[axis]
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


# code of generated functions by source text; coefficients are bound names,
# never printed, so every model of one structure shares one entry
_CODES: dict = {}


def _def(signature: str, lines) -> str:
    """The text of ``def signature:`` with the body ``lines``: every generated function is written by it."""
    return f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)


def _factory(source: str, names) -> types.CodeType:
    """The code of a factory that takes ``names`` and returns the functions ``source`` defines.

    It is compiled once per process for each distinct text.
    """
    factory = _def(f"factory({', '.join(names)})", [*source.splitlines(), "return locals()"])
    code = _CODES.get(factory)
    if code is None:
        namespace: dict = {}
        exec(compile(factory, _GENERATED, "exec"), namespace)
        code = _CODES[factory] = namespace["factory"].__code__
    return code


def _made(code: types.CodeType, env: dict) -> dict:
    """The functions the factory ``code`` makes from the values in ``env``, by name.

    The functions read those values from closure cells, not from their
    globals: code shared by functions with different globals would keep
    losing its specialised global lookups.  ``env`` is kept as their
    ``__globals__`` for inspection.
    """
    made = types.FunctionType(code, env)(**env)
    return {name: f for name, f in made.items() if name not in env}


def _bind(env: dict, prefix: str, value) -> str:
    """Bind ``value`` in ``env`` under a fresh name and return the name."""
    name = f"{prefix}{len(env)}"
    env[name] = value
    return name


def _kernel_lines(tables: Sequence[tuple], env: dict, outputs, zero: str, one_state: bool, variables) -> list:
    """Straight-line source that sets ``outputs[k]`` to the value of ``tables[k]``.

    The lines read theta and the table variables, named by ``variables``.
    Powers are built by repeated multiplication (X2 = x * x, X3 = X2 * x),
    up to the highest exponent the tables use.  Each output is one sum, left
    to right from ``zero``, of its rows in table order; a row's polynomials
    are summed from 0.0 as c * x**i * y**j ... (a zeroth power is 1.0, and
    multiplying by it is exact, so it is left out), and an empty one is
    left out with its cos/sin factor.  cos/sin are taken once per angle
    order, before its first output.  Coefficients and angle orders are
    names bound in ``env``; only exponents appear in the source.
    Without ``one_state`` only arithmetic operators touch the variables and
    theta, so Python floats and arrays run the same code; with it the lines
    take Python floats only, call math.cos/sin themselves at a finite
    angle, which is what :func:`_cos_sin` does for a float, and start a sum
    from 0.0 at its leading constant.
    """

    def power(v, n):
        return v if n == 1 else f"{v.upper()}{n}"

    def total(start, coeffs):
        # the terms c * x**i * y**j ... summed left to right from ``start``; a
        # one-state sum from 0.0 starts from a leading constant c instead, as
        # 0.0 + c is c for the nonzero c a table keeps
        terms = [
            " * ".join([_bind(env, "c", c), *(power(v, n) for v, n in zip(variables, e) if n)])
            for e, c in coeffs.items()
        ]
        if one_state and start == "0.0" and not any(next(iter(coeffs))):
            start = terms.pop(0)
        return " + ".join([start, *terms])

    exponents = [e for t in tables for _, a, b in t for e in (*a, *b)]
    lines = []
    for v, top in zip(variables, map(max, zip(*exponents))):
        for n in range(2, top + 1):
            lines.append(f"{power(v, n)} = {power(v, n - 1)} * {v}")
    trig = {}
    for out, table in zip(outputs, tables):
        line = zero
        for w, a, b in table:
            if not w:
                # a first angle-free row goes straight onto ``zero``: its own sum
                # from 0.0 is never -0.0, so adding that to 0.0 changes no bit
                line = total(zero, a) if line == zero else f"{line} + ({total('0.0', a)})"
                continue
            if w not in trig:
                trig[w] = n = len(trig)
                env.update(_cos_sin=_cos_sin, cos=math.cos, sin=math.sin)
                w_n = _bind(env, "w", w)
                if one_state:
                    lines += [
                        f"A{n} = {w_n} * theta",
                        f"if A{n} - A{n} == 0.0:",
                        f"    C{n} = cos(A{n})",
                        f"    S{n} = sin(A{n})",
                        "else:",
                        f"    C{n}, S{n} = _cos_sin({w_n}, theta)",
                    ]
                else:
                    lines.append(f"C{n}, S{n} = _cos_sin({w_n}, theta)")
            # an empty polynomial's product 0.0 * C or 0.0 * S is left out: it is a
            # zero, or a NaN the other product repeats, and no output sum from
            # +0.0 is ever -0.0, so no bit changes
            products = [f"({total('0.0', p)}) * {f}{trig[w]}" for p, f in ((a, "C"), (b, "S")) if p]
            line += f" + ({' + '.join(products)})"
        lines.append(f"{out} = {line}")
    return lines


def _state_without_kernels(self) -> dict:
    """``__getstate__`` of a class whose compiled ``*_kernel`` properties and ``_programs`` do not pickle.

    They are compiled again on first use after unpickling.
    """
    return {k: v for k, v in self.__dict__.items() if not k.endswith("_kernel") and k != "_programs"}


def _compile(tables: Sequence[tuple], n_vars: int = 2):
    """Compile tables over ``n_vars`` variables, none or more, into ``(theta, x, y, ..., zero) -> tuple``.

    The body is :func:`_kernel_lines` for floats and arrays alike.
    """
    env: dict = {}
    variables = _VARIABLES[:n_vars]
    outputs = [f"t{k}" for k in range(len(tables))]
    lines = _kernel_lines(tables, env, outputs, "zero", one_state=False, variables=variables)
    lines.append(f"return ({', '.join(outputs)},)")
    source = _def(f"kernel({', '.join(['theta', *variables, 'zero'])})", lines)
    return _made(_factory(source, env), env)["kernel"]


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
        _require_finite(self)
        if self.L_d <= 0.0 or self.L_q <= 0.0:
            raise ValueError("inductances must be positive")
        _require_machine(self)
        _require_flux_range(self.phi_M)


class PolynomialEnergy(EnergyModel):
    """Machine whose magnetic energy is a polynomial in its flux with angle harmonics.

        H = kappa*rho**2/2 + sum_w [A_w(v) cos(w theta) + B_w(v) sin(w theta)]

    over ``flux_dim`` variables: x = phi_d - phi_M, then the other flux
    components as they are.  Angle orders are w = 0 or 6k.  ``orders``
    lists ``(w, a, b)``: a and b map exponent tuples (i, j, ...) to the
    coefficients of x**i y**j ... in A_w and B_w.  The constructor builds
    the monomial tables of H, of dH along each variable (the currents) and
    of dH/dtheta.  Each method, the Hessian d2H/dv_j dv_k (j <= k) included,
    runs one function compiled on first use from the tables it needs
    (:func:`_compile`), block by block (:meth:`_run`), so building a model
    to validate a config compiles nothing.  The simulator inlines the
    gradient tables into its generated step (:meth:`_stage_source`).

    ``box`` is the half-width of the flux box |x|, |y| <= box the
    coefficients are trusted in; outside it the public methods warn
    (:class:`SaturationRangeWarning`) at every call and still evaluate, and
    a simulation counts its evaluations outside the box and warns once per
    run.  ``None`` never warns.
    """

    flux_dim = 2

    def __init__(self, orders, phi_M: float, kinetic_coeff: float, n_p: int, box=None):
        self.pole_pairs = int(n_p)
        self._phi_M = float(phi_M)
        self._kappa = float(kinetic_coeff)
        self._box = box
        self._h = _table(orders)
        self._h_flux = tuple(_d_flux_table(self._h, k) for k in range(self.flux_dim))
        self._h_x, self._h_y = self._h_flux[:2]
        self._h_theta = _d_theta_table(self._h)

    @cached_property
    def _energy_kernel(self):
        return _compile((self._h,), self.flux_dim)

    @cached_property
    def _current_kernel(self):
        return _compile(self._h_flux, self.flux_dim)

    @cached_property
    def _angle_kernel(self):
        return _compile((self._h_theta,), self.flux_dim)

    @cached_property
    def _gradient_kernel(self):
        return _compile((*self._h_flux, self._h_theta), self.flux_dim)

    @cached_property
    def _hessian_kernel(self):
        # d2H/dv_j dv_k for j <= k, row by row: d2H/dx2, d2H/dxdy, d2H/dy2 at two variables
        dim = self.flux_dim
        return _compile([_d_flux_table(self._h_flux[j], k) for j in range(dim) for k in range(j, dim)], dim)

    @cached_property
    def _programs(self):
        return {}

    __getstate__ = _state_without_kernels

    def _check_box(self, extremes):
        # warns once for all states, from the (max x, -min x, max y, -min y)
        # of each block, or the (|x|, |y|) of one state: max |x| is max(max x,
        # -min x), with no |x| array; NaN in x never warns, and max() skips
        # it in y.  One state or block is checked with no array reduction
        if self._box is None:
            return
        worst = float(max(*(extremes[0] if len(extremes) == 1 else np.max(extremes, axis=0))))
        if worst > self._box:
            warnings.warn(
                f"flux deviation {worst:.4g} Wb exceeds the saturation model's "
                f"fitted range |x|,|y| <= {self._box:.4g} Wb",
                SaturationRangeWarning,
                stacklevel=_caller_level(),
            )

    def _arguments(self, theta, rho, columns, extremes: list):
        # the kernel arguments from the flux components: theta, x, y, ... and a
        # zero of the result's shape; a model with a box appends the extremes
        # of x and y to ``extremes`` (see _check_box)
        phi_d, *others = columns
        x = phi_d - self._phi_M
        if self._box is not None:
            y = others[0]
            extremes.append((abs(x), abs(y)) if isinstance(x, float) else (x.max(), -x.min(), y.max(), -y.min()))
        return theta, x, *others, _zeros(theta, rho, x)

    def _run(self, kernel, theta, rho, phi, finish=None, stacked=0):
        """The outputs of ``kernel`` at the states, block by block (:func:`_blockwise`).

        The flux box is checked once for all states.  ``finish(rho, outputs)``
        maps a block's outputs to the results; ``stacked`` is that of
        :func:`_blockwise`.
        """
        extremes: list = []

        def block(theta, rho, *columns):
            out = kernel(*self._arguments(theta, rho, columns, extremes))
            return out if finish is None else finish(rho, out)

        out = _blockwise(block, (theta, rho, *_components(phi)), stacked)
        self._check_box(extremes)
        return out

    def evaluate(self, theta, rho, phi):
        (h,) = self._run(self._energy_kernel, theta, rho, phi, self._with_kinetic)
        return h

    def _with_kinetic(self, rho, out):
        rho = _num(rho)
        return (0.5 * self._kappa * (rho * rho) + out[0],)

    def d_flux(self, theta, rho, phi):
        return self._run(self._current_kernel, theta, rho, phi, stacked=self.flux_dim)[0]

    def _d_flux_columns(self, theta, rho, columns):
        # the current kernel reads the columns with no stack, unless a subclass has its own d_flux
        if type(self).d_flux is not PolynomialEnergy.d_flux:
            return super()._d_flux_columns(theta, rho, columns)
        extremes: list = []
        args = self._arguments(theta, rho, columns, extremes)
        self._check_box(extremes)
        return self._current_kernel(*args)

    def d_theta(self, theta, rho, phi):
        return self._run(self._angle_kernel, theta, rho, phi)[0]

    def d_rho(self, theta, rho, phi):
        return self._kappa * _num(rho)

    def gradient(self, theta, rho, phi):
        i, h_theta = self._run(self._gradient_kernel, theta, rho, phi, stacked=self.flux_dim)
        return i, self._kappa * _num(rho), h_theta

    def _stage_source(self, env):
        # the fused gradient kernel inline, with the box check counting
        # excursions instead of warning at every stage.  phi_d - 0.0 is phi_d
        # for every float, so at phi_M = +0.0 the kernel reads phi_d as x;
        # x < -box is -x > box; an energy without angle rows leaves out its
        # h_theta = 0.0
        dim = self.flux_dim
        if self._phi_M == 0.0 and math.copysign(1.0, self._phi_M) > 0.0:
            x, lines = "phi_d", []
        else:
            x, lines = "x", [f"x = phi_d - {_bind(env, 'phi_M', self._phi_M)}"]
        if self._box is not None:
            box, nbox = _bind(env, "box", self._box), _bind(env, "nbox", -self._box)
            lines.append(f"if {x} > {box} or {x} < {nbox} or phi_q > {box} or phi_q < {nbox}:")
            lines.append(f"    outside(ts, {x}, phi_q, {box})")
        tables = (*self._h_flux, self._h_theta) if self._h_theta else self._h_flux
        outputs = (*_CURRENT_NAMES[:dim], "h_theta")
        lines += _kernel_lines(tables, env, outputs, "0.0", one_state=True, variables=(x, *_FLUX_NAMES[1:dim]))
        lines.append(f"omega = {_bind(env, 'kappa', self._kappa)} * rho")
        return lines


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
    n_p = m.pole_pairs
    return _blockwise(lambda *a: (_torque(n_p, *a),), (h_theta, i[..., 0], i[..., 1], phi[..., 0], phi[..., 1]))[0]


# the one torque expression, as source, in its angle and cross parts:
# torque() evaluates it through _torque, and the simulator's generated code
# inlines it, without the angle part -n_p * 0.0 = -0.0 for a model that
# leaves h_theta out (adding -0.0 changes no bit)
_TORQUE_ANGLE = "-n_p * h_theta"
_TORQUE_CROSS = "n_p * (i_q * phi_d - i_d * phi_q)"
_TORQUE = f"{_TORQUE_ANGLE} + {_TORQUE_CROSS}"
_torque = _made(_factory(_def("torque(n_p, h_theta, i_d, i_q, phi_d, phi_q)", [f"return {_TORQUE}"]), {}), {})["torque"]


def numeric_gradient(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function at the point ``x``.

    The step is ``1e-6 * max(1, ||x||)`` applied per coordinate.  Meant as
    an independent cross-check of analytic derivatives, so it deliberately
    knows nothing about the function it probes.
    """
    x = np.asarray(x, dtype=float)
    h = 1.0e-6 * max(1.0, float(np.linalg.norm(x)))
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
    accepted for interoperability.  ``pole_pairs`` is a count <= 2**53.
    """
    if not math.isfinite(inertia):
        raise ValueError(f"inertia must be finite, got {inertia}")
    if inertia <= 0.0:
        raise ValueError("inertia must be positive")
    _require_whole(pole_pairs, 1, "n_p must be a positive integer")
    if pole_pairs > _COUNT_MAX:
        raise ValueError(f"n_p must be at most 2**53, got {pole_pairs}")
    if convention not in ("mechanical", "reciprocal"):
        raise ValueError(f"unknown kinetic convention {convention!r}")
    kappa = pole_pairs**2 / inertia if convention == "mechanical" else 1.0 / (inertia * pole_pairs**2)
    if not math.isfinite(kappa):
        raise ValueError(f"inertia {inertia} with n_p = {pole_pairs} overflows kappa to {kappa}")
    return kappa


@dataclass(frozen=True, eq=False)
class MachineState:
    """Instantaneous state (theta, rho, phi) of a machine.

    ``phi`` is a read-only copy of the flux given; a non-finite field is named.  States
    compare field by field, the flux by value (:func:`numpy.array_equal`), and hash alike.
    """

    theta: float
    rho: float
    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        _require_finite(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.theta == other.theta and self.rho == other.rho and np.array_equal(self.phi, other.phi)

    def __hash__(self):
        return hash((self.theta, self.rho, self.phi.shape, *self.phi.flat))
