"""Fixed-step simulation of the machine state equations.

The state equations and the port powers are written once, in the table
``_EQUATIONS``.  For single-winding machines the frame rotates with the
rotor; for the induction machine the frame angle theta_s advances at a
constant chosen speed omega_s.

Integrators are fixed-step (classic fourth-order Runge-Kutta and explicit
Euler), so a run is a pure function of its inputs; repeating one bit for
bit is the baseline determinism guarantee.  Each model, drive and
integrator gets generated Python code (:func:`_functions`): a whole run
with its time loop, its record rows and its finiteness test, and from the
same lines one function for a single step.  The model's evaluation, the
torque, the state equations and the stage updates are written out, and so
are the drive kinds that are plain arithmetic (constant and sinusoid
voltages, constant and linear loads), whose calls run the same lines; a
table drive or any other callable is called at every stage.  The code
depends on the model's structure and the drive kinds, not on their
parameters, and is compiled once per process.
It holds only the arithmetic the structure needs, by identities that change
no bit: no angle term and no stage update of theta for an angle-free model,
phi_d itself where phi_M = 0, no stage time where nothing reads it
(:func:`_compile_functions` lists them all).

The drive's parameters, omega_s and dt are bound afresh for each run, so
a model can keep the compiled code of its drive kinds and integrators
together with its own coefficients: a repeat simulation or step of the
same model object writes no source, whatever those values.  This rests
on a model not changing once built, which its compiled kernels already
assume.

Energy bookkeeping: along an exact trajectory dH/dt is the table's
p_in - p_diss - p_mech, and :func:`power_balance` measures how far a
recorded trajectory is from that identity.  The zero axis never enters
here; a star-connected winding keeps it decoupled, and its flux is
handled entirely in :mod:`enermach.harmonics`.
"""

from __future__ import annotations

import bisect
import math
import re
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Tuple

import numpy as np

from .energy import (
    _FLUX_NAMES,
    _TORQUE,
    _TORQUE_CROSS,
    EnergyModel,
    MachineState,
    SaturationRangeWarning,
    _Excursions,
    _bind,
    _def,
    _factory,
    _made,
    _require_finite,
    _require_whole,
    _shared,
    _time_steps,
)
from .induction import ImEnergy, ImParams

__all__ = [
    "SimConfig",
    "ConstantVoltage",
    "SinusoidVoltage",
    "TableVoltage",
    "ConstantLoad",
    "LinearLoad",
    "TableLoad",
    "Drive",
    "Trajectory",
    "SimulationError",
    "step_pmsm",
    "simulate_pmsm",
    "simulate_im",
    "power_balance",
    "PMSM_COLUMNS",
    "IM_COLUMNS",
]

PMSM_COLUMNS = (
    "t",
    "theta",
    "rho",
    "omega",
    "phi_d",
    "phi_q",
    "i_d",
    "i_q",
    "u_d",
    "u_q",
    "torque",
    "load",
)

IM_COLUMNS = PMSM_COLUMNS + ("phi_rd", "phi_rq", "i_rd", "i_rq", "theta_s")

_INTEGRATORS = ("rk4", "euler")


class SimulationError(RuntimeError):
    """Simulation aborted; carries the time of the failure."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.9g} s")
        self._message, self.t = message, t

    def __reduce__(self):  # a pool worker's failure reaches the parent intact
        return type(self), (self._message, self.t)


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    ``omega_s`` is the synchronous frame speed and only matters for the
    induction machine; single-winding machines rotate their frame with the
    rotor.  ``t_end / dt``, the step count before rounding, must be
    finite.
    """

    dt: float = 1.0e-5
    t_end: float = 0.1
    integrator: str = "rk4"
    record_stride: int = 1
    omega_s: float = 0.0

    def __post_init__(self):
        for key in ("dt", "t_end", "omega_s"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end / dt must be finite")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; use one of {_INTEGRATORS}")
        _require_whole(self.record_stride, 1, "record_stride must be a positive integer")


# ---------------------------------------------------------------------------
# drive sources: deterministic functions of time (and speed, for loads)


def _written(drive, signature: str, result: str):
    """The function of ``signature`` that runs ``drive._source`` and returns ``result``, compiled once per text."""
    env: dict = {}
    lines = [*drive._source(env), f"return {result}"]
    return _made(_factory(_def(f"drive({signature})", lines), env), env)["drive"]


class _WrittenVoltage:
    """A voltage kind that is plain arithmetic: its formula is the ``_source`` the simulator writes out."""

    def __call__(self, t: float) -> Tuple[float, float]:
        return _written(self, "ts", "u_d, u_q")(t)


class _WrittenLoad:
    """A load kind that is plain arithmetic: its formula is the ``_source`` the simulator writes out."""

    def __call__(self, t: float, omega: float) -> float:
        return _written(self, "ts, omega", "t_load")(t, omega)


@dataclass(frozen=True)
class ConstantVoltage(_WrittenVoltage):
    u_d: float = 0.0
    u_q: float = 0.0

    __post_init__ = _require_finite

    def _source(self, env: dict) -> list:
        return [f"u_d = {_bind(env, 'u_d', self.u_d)}", f"u_q = {_bind(env, 'u_q', self.u_q)}"]


@dataclass(frozen=True)
class SinusoidVoltage(_WrittenVoltage):
    """Per-axis sinusoids, u = amp * cos(2*pi*freq_hz*t + phase)."""

    amp_d: float = 0.0
    amp_q: float = 0.0
    freq_hz: float = 0.0
    phase_d: float = 0.0
    phase_q: float = 0.0

    __post_init__ = _require_finite

    def _source(self, env: dict) -> list:
        env["cos"] = math.cos
        w = _bind(env, "w", 2.0 * math.pi * self.freq_hz)
        return [
            f"wt = {w} * ts",
            f"u_d = {_bind(env, 'amp', self.amp_d)} * cos(wt + {_bind(env, 'phase', self.phase_d)})",
            f"u_q = {_bind(env, 'amp', self.amp_q)} * cos(wt + {_bind(env, 'phase', self.phase_q)})",
        ]


class _Table:
    """Piecewise-constant drive: field ``times``, then value fields of one entry per time.

    Every field becomes a tuple of floats, so the drive holds no caller's
    list: it stays as validated, and it hashes.
    """

    _mismatch = ""  # the error of a value field not as long as the time grid

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(float(v) for v in getattr(self, f.name)))
        _require_finite(self)
        _time_steps(self.times, "times", "times must be non-empty and strictly increasing", min_size=1)
        if any(len(getattr(self, f.name)) != len(self.times) for f in fields(self)[1:]):
            raise ValueError(self._mismatch)

    def _index(self, t: float) -> int:
        return max(bisect.bisect_right(self.times, t) - 1, 0)


@dataclass(frozen=True)
class TableVoltage(_Table):
    """Piecewise-constant voltage; value k holds from times[k] to times[k+1]."""

    times: Tuple[float, ...]
    u_d: Tuple[float, ...]
    u_q: Tuple[float, ...]

    _mismatch = "voltage tables must match the time grid"

    def __call__(self, t: float) -> Tuple[float, float]:
        k = self._index(t)
        return (self.u_d[k], self.u_q[k])


@dataclass(frozen=True)
class ConstantLoad(_WrittenLoad):
    torque: float = 0.0

    __post_init__ = _require_finite

    def _source(self, env: dict) -> list:
        return [f"t_load = {_bind(env, 'torque', self.torque)}"]


@dataclass(frozen=True)
class LinearLoad(_WrittenLoad):
    """Load torque affine in electrical speed: T = torque_0 + coeff * omega."""

    torque_0: float = 0.0
    coeff: float = 0.0

    __post_init__ = _require_finite

    def _source(self, env: dict) -> list:
        return [f"t_load = {_bind(env, 'torque', self.torque_0)} + {_bind(env, 'coeff', self.coeff)} * omega"]


@dataclass(frozen=True)
class TableLoad(_Table):
    """Piecewise-constant load torque over time."""

    times: Tuple[float, ...]
    torque: Tuple[float, ...]

    _mismatch = "torque table must match the time grid"

    def __call__(self, t: float, omega: float) -> float:
        return self.torque[self._index(t)]


@dataclass(frozen=True)
class Drive:
    """Voltage source plus load torque.

    A voltage pair becomes a :class:`ConstantVoltage` and a torque number a
    :class:`ConstantLoad`.
    """

    voltage: Callable[[float], Tuple[float, float]] = ConstantVoltage()
    load: Callable[[float, float], float] = ConstantLoad()

    def __post_init__(self):
        if not callable(self.voltage):
            u_d, u_q = (float(v) for v in self.voltage)
            object.__setattr__(self, "voltage", ConstantVoltage(u_d, u_q))
        if not callable(self.load):
            object.__setattr__(self, "load", ConstantLoad(float(self.load)))


def _drive_source(fn, env: dict, name: str, call: str) -> Tuple[list, bool]:
    """Source lines that evaluate one drive at the stage, and whether it is pure.

    The drive kinds that are plain arithmetic of their parameters (their
    own class defines ``_source``) are written out, with the parameters
    bound in ``env``; a subclass, a table or any other callable is bound
    as ``name`` and called as given, which is ``call``.
    """
    if "_source" in type(fn).__dict__:
        return fn._source(env), True
    env[name] = fn
    return [call], False


# ---------------------------------------------------------------------------
# trajectory record

_CSV_ROWS = 64  # rows formatted per write by Trajectory.write_csv


def _data_lines(path) -> list:
    """(number, text) of each line after the header that np.loadtxt reads as a row: it skips empty lines."""
    with open(path, "r", newline="") as f:  # like loadtxt, ends a line at \r, \n or \r\n
        return [(n, line) for n, line in enumerate(f, start=1) if n > 1 and line.strip("\r\n")]


class Trajectory:
    """Column-oriented record of a simulation, CSV-faithful.

    Floats are written with 17 significant digits so a written file reads
    back bit-identical.
    """

    def __init__(self, columns: Sequence[str], data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(columns):
            raise ValueError("data must be (n_samples, n_columns)")
        self.columns = tuple(columns)
        self.data = data

    def __len__(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return self.data[:, idx]

    @property
    def t(self) -> np.ndarray:
        return self.column("t")

    def flux(self) -> np.ndarray:
        """Flux vectors, shape (n, 2) or (n, 4) depending on the machine."""
        cols = _FLUX_NAMES[: 4 if "phi_rd" in self.columns else 2]
        return np.stack([self.column(c) for c in cols], axis=-1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(",".join(self.columns) + "\n")
            row = ",".join(["%.17g"] * len(self.columns)) + "\n"
            # _CSV_ROWS rows per write: a whole-array tolist() would hold
            # every value as a Python float at once
            for lo in range(0, len(self.data), _CSV_ROWS):
                block = self.data[lo : lo + _CSV_ROWS]
                f.write((row * len(block)) % tuple(block.ravel().tolist()))

    @classmethod
    def read_csv(cls, path, check_header=None) -> "Trajectory":
        """Read what :meth:`write_csv` writes, with no comments; a bad line is ``ValueError("{path}: line N: ...")``.

        ``check_header(columns)``, if given, sees the header before any row; empty lines alone are no rows.
        """
        with open(path, "r", newline="") as f:
            header = f.readline()
            columns = tuple(name.strip() for name in header.split(",")) if header else ()
            if check_header is not None:
                check_header(columns)
            start = f.tell()
            while (line := f.readline()) and not line.strip("\r\n"):
                start = f.tell()
            f.seek(start)
            try:  # cls rejects rows of another width than the header's
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2) if line else np.empty((0, len(columns)))
                return cls(columns, data)
            except ValueError:
                for n, line in _data_lines(path):
                    got = line.count(",") + 1
                    if got != len(columns):
                        raise ValueError(f"{path}: line {n}: expected {len(columns)} fields, got {got}") from None
                    try:
                        np.loadtxt([line], delimiter=",", comments=None)
                    except ValueError:
                        raise ValueError(f"{path}: line {n}: non-numeric field") from None
                raise


# ---------------------------------------------------------------------------
# the simulator: one generated run and step function


def _resistances(model: EnergyModel) -> Tuple[float, float]:
    """(R_s, R_r); R_r is read only for models with a rotor winding."""
    try:
        R_s = float(model.params.R_s)
        R_r = float(model.params.R_r) if model.flux_dim == 4 else 0.0
    except AttributeError:
        raise TypeError("model must expose params.R_s to be simulated") from None
    return R_s, R_r


# the generated code's expression of each record column that is not a name in it
_ROW = {"torque": "te", "load": "t_load", "theta_s": "omega_s * t"}

# The machine's equations, once, as source over the generated code's names:
# the slope of each state component and the port powers.  With the torque te
# of energy._TORQUE and grad H = (h_theta, omega, i) the slopes are
# (J - R) grad H + g u in port-Hamiltonian form, and along them
# dH/dt = p_in - p_diss - p_mech.  The stator pair's frame turns at "frame"
# by flux_dim, the rotor pair's at "slip"; p_diss has one term per pair.
_EQUATIONS = {
    "frame": {2: "omega", 4: "omega_s"},
    "slip": "omega_s - omega",
    "theta": "omega",
    "rho": "(te - t_load) / n_p",
    "phi_d": "u_d - R_s * i_d + {frame} * phi_q",
    "phi_q": "u_q - R_s * i_q - {frame} * phi_d",
    "phi_rd": "nR_r * i_rd + slip * phi_rq",
    "phi_rq": "nR_r * i_rq - slip * phi_rd",
    "p_in": "u_d * i_d + u_q * i_q",
    "p_diss": ("R_s * (i_d * i_d + i_q * i_q)", "R_r * (i_rd * i_rd + i_rq * i_rq)"),
    "p_mech": "t_load * omega / n_p",
}


def _equations(flux_dim: int, table: dict = _EQUATIONS) -> Tuple[list, list, dict]:
    """The ``table`` for ``flux_dim``: the slip line, the state slopes, and the powers by name."""
    slopes = [table[v].format(frame=table["frame"][flux_dim]) for v in ("theta", "rho", *_FLUX_NAMES[:flux_dim])]
    powers = {p: table[p] for p in ("p_in", "p_diss", "p_mech")}
    powers["p_diss"] = " + ".join(table["p_diss"][: flux_dim // 2])
    return [f"slip = {table['slip']}"] * (flux_dim == 4), slopes, powers


def _functions(model: EnergyModel, voltage, load, omega_s, dt, method: str, outside) -> dict:
    """The generated ``step`` and ``run`` of one model, drive and integrator.

    The state is theta, rho and the flux components, as Python floats.
    ``step(t, state) -> state`` advances a state list by one rk4 or Euler
    step of ``dt``.  ``run(state, ks, n, stride) -> (rows, k1)`` is a whole
    run of ``n`` steps, numbered ``(k, k + 1)`` by ``ks``, with the state
    in local floats and the rows of the start, of every ``stride``-th step
    and of the last one built inline.  It stops after the first step with a
    component ``v - v != 0.0`` (not finite) and returns that step's ``k1``,
    else ``None``.  Both report box excursions to ``outside``.

    Every value the functions use is a name bound in their namespace,
    never printed: the resistances, ``omega_s``, ``dt``, ``outside`` and
    the drive's parameters (:func:`_drive_source`) for each call, the
    model's coefficients when its code is written.  The code depends only
    on the model's structure, the drive kinds and the integrator, and it
    is compiled once per process for each (:func:`_compile_functions`).
    A model whose ``_programs`` is a dict keeps there its code and
    coefficients by drive kinds and integrator, so a repeat call writes no
    source; that rests on a model not changing once built, as its compiled
    kernels already assume.
    """
    R_s, R_r = _resistances(model)
    env = {
        "n_p": float(model.pole_pairs),
        "R_s": R_s,
        "nR_r": -R_r,
        "omega_s": omega_s,
        "dt": dt,
        "h": 0.5 * dt,
        "h6": dt / 6.0,
        "outside": outside,
    }
    voltage_lines, pure = _drive_source(voltage, env, "voltage", "u_d, u_q = voltage(ts)")
    load_lines, _ = _drive_source(load, env, "load", "t_load = load(ts, omega)")
    kept = model._programs
    key = (tuple(voltage_lines), tuple(load_lines), method)
    program = None if kept is None else kept.get(key)
    if program is None:
        program = _compile_functions(model, dict(env), voltage_lines, pure, load_lines, method)
        if kept is not None:
            kept[key] = program
    code, coefficients = program
    return _made(code, {**env, **coefficients})


def _names(lines) -> set:
    """The names the source ``lines`` mention."""
    return set(re.findall(r"\w+", "\n".join(lines)))


def _compile_functions(model: EnergyModel, env: dict, voltage_lines, pure: bool, load_lines, method: str):
    """The compiled factory of :func:`_functions` and the model's coefficients it takes.

    ``env`` holds the names :func:`_functions` binds for every call; the
    model's ``_stage_source`` binds its coefficients there too, and they
    are returned by name.  The functions are straight-line code written
    from the same stage lines: the model's evaluation, the torque, the
    drive and the state equations of ``_EQUATIONS``, with the operations
    and their order of a loop over stages.  Only the arithmetic the model's
    structure needs is written, and each identity it rests on is exact, so
    every value is the stage loop's, bit for bit:

    * a written-out voltage is pure, so the two rk4 stages at ``t + h``
      share one evaluation of it;
    * n_p is bound as a float (the int to float conversion is exact);
    * the torque leaves out its angle part for a model whose stage lines
      leave out ``h_theta``, which is then 0.0 (see ``energy._TORQUE``);
    * a stage updates only the state components that a stage reads (theta
      of an angle-free model is updated once per step), and the stage time
      ``ts`` is set only when a stage reads it (a box or a drive of time);
    * the slip speed is taken once per stage, and -R_r is bound as a name.
    """
    given = set(env)
    state = ("theta", "rho", *_FLUX_NAMES[: model.flux_dim])
    evaluation = model._stage_source(env)
    evaluation = [*evaluation, f"te = {_TORQUE if 'h_theta' in _names(evaluation) else _TORQUE_CROSS}"]
    stage = [*evaluation, *voltage_lines, *load_lines]
    slip, slopes, _ = _equations(model.flux_dim)
    read = _names([*stage, *slopes])
    moved = [v for v in state if v in read]
    clock = "ts" in read
    # (stage time, step from the start of the step to the stage state); a
    # stage time of None repeats the one before
    stages = [("t", None), ("t + h", "h"), (None, "h"), ("t + dt", "dt")]
    if method == "euler":
        stages = stages[:1]
        new_state = [f"{v}0 + dt * k0_{j}" for j, v in enumerate(state)]
    else:
        new_state = [f"{v}0 + h6 * (k0_{j} + 2.0 * k1_{j} + 2.0 * k2_{j} + k3_{j})" for j, v in enumerate(state)]
    advance = []
    for k, (ts, scale) in enumerate(stages):
        if scale:
            advance += [f"{v} = {v}0 + {scale} * k{k - 1}_{j}" for j, v in enumerate(state) if v in moved]
        if ts:
            advance += [*([f"ts = {ts}"] if clock else []), *stage]
        else:
            advance += [*evaluation, *([] if pure else voltage_lines), *load_lines]
        advance += [*slip, *(f"k{k}_{j} = {e}" for j, e in enumerate(slopes))]
    # the new state is also the start of the next step
    advance += [f"{v}0 = {v} = {e}" for v, e in zip(state, new_state)]
    columns = IM_COLUMNS if model.flux_dim == 4 else PMSM_COLUMNS
    row = f"[{', '.join(_ROW.get(c, c) for c in columns)}]"
    unpack = f"{', '.join(state)} = state"
    start = f"{', '.join(v + '0' for v in state)} = state"
    finite = " or ".join(f"{v} - {v} != 0.0" for v in state)
    now = "t = ts" if clock else "t"
    functions = {
        "step(t, state)": [unpack, start, *advance, f"return [{', '.join(state)}]"],
        "run(state, ks, n, stride)": [
            unpack,
            start,
            f"{now} = 0.0",
            *stage,
            f"rows = [{row}]",
            "for k, k1 in ks:",
            *(f"    {line}" for line in [*(["t = k * dt"] if clock else []), *advance]),
            f"    if {finite}:",
            "        return rows, k1",
            "    if not k1 % stride or k1 == n:",
            *(f"        {line}" for line in [f"{now} = k1 * dt", *stage, f"rows.append({row})"]),
            "return rows, None",
        ],
    }
    source = "".join(_def(signature, lines) for signature, lines in functions.items())
    return _factory(source, env), {name: v for name, v in env.items() if name not in given}


def _state_vector(s: MachineState) -> list:
    return [float(s.theta), float(s.rho), *s.phi.tolist()]


def _require_pmsm(m: EnergyModel, s: MachineState, caller: str) -> None:
    """The single-winding front ends' rule: a two-component flux in the model and the state."""
    if m.flux_dim != 2:
        raise ValueError(f"{caller} handles two-component flux models")
    if np.asarray(s.phi).shape != (2,):
        raise ValueError("initial flux must have two components")


def step_pmsm(
    m: EnergyModel,
    s: MachineState,
    u_dq,
    T_l,
    dt: float,
    t: float = 0.0,
    method: str = "rk4",
) -> MachineState:
    """One integrator step of the single-winding machine.

    ``u_dq`` is a voltage pair or a callable of time; ``T_l`` a torque or a
    callable (t, omega).  Callables let the stage evaluations of rk4 see
    the drive at the right instants.  ``dt`` and ``method`` keep the step
    rule of :class:`SimConfig`; a non-finite start time ``t`` is named.
    """
    cfg = SimConfig(dt=dt, t_end=dt, integrator=method)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _require_pmsm(m, s, "step_pmsm")
    drive = Drive(u_dq, T_l)
    outside = _Excursions()
    step = _functions(m, drive.voltage, drive.load, cfg.omega_s, cfg.dt, cfg.integrator, outside)["step"]
    y1 = step(t, _state_vector(s))
    outside.warn(stacklevel=2)
    if not all(map(math.isfinite, y1)):
        raise SimulationError("non-finite state", t + dt)
    return MachineState(y1[0], y1[1], y1[2:4])


def _n_steps(cfg: SimConfig) -> int:
    return max(1, int(round(cfg.t_end / cfg.dt)))


def simulate(m: EnergyModel, state0: MachineState, drive: Drive, cfg: SimConfig) -> Trajectory:
    """Integrate any energy model and record its trajectory.

    Records every ``record_stride``-th step plus the final one.  Columns
    are PMSM_COLUMNS, or IM_COLUMNS for models with a rotor winding, where
    the frame angle theta_s = omega_s * t is recorded alongside the state.
    Currents and torque in the record are evaluated from the model at the
    recorded states, so the file is self-consistent.  Evaluations outside a
    fitted model's flux box are counted over the run and reported in one
    :class:`SaturationRangeWarning`.  The initial flux must have
    ``m.flux_dim`` components; the public wrappers and the config loader
    check that.
    """
    outside = _Excursions()
    run = _functions(m, drive.voltage, drive.load, cfg.omega_s, cfg.dt, cfg.integrator, outside)["run"]
    n = _n_steps(cfg)
    try:
        rows, failed = run(_state_vector(state0), zip(range(n), range(1, n + 1)), n, cfg.record_stride)
    finally:
        outside.warn(stacklevel=2)
    if failed is not None:
        raise SimulationError("non-finite state", failed * cfg.dt)
    return Trajectory(IM_COLUMNS if m.flux_dim == 4 else PMSM_COLUMNS, np.array(rows))


def simulate_pmsm(
    m: EnergyModel,
    state0: MachineState,
    drive: Drive,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the single-winding machine and record the trajectory (see :func:`simulate`)."""
    _require_pmsm(m, state0, "simulate_pmsm")
    return simulate(m, state0, drive, cfg)


def simulate_im(
    p: ImParams,
    state0: MachineState,
    drive: Drive,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the induction machine in the synchronous frame (see :func:`simulate`).

    The frame speed cfg.omega_s is constant for the whole run.  The drive
    voltage is interpreted in this frame.
    """
    if np.asarray(state0.phi).shape != (4,):
        raise ValueError("initial flux must stack stator and rotor pairs (4 components)")
    return simulate(_shared(ImEnergy, p), state0, drive, cfg)


# ---------------------------------------------------------------------------
# energy bookkeeping


def _cumtrapz(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[0] = 0.0
    np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(t), out=out[1:])
    return out


def _simpson_pieces(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    # integral over [t_k, t_k+1] of the parabola through samples k, k+1, k+2
    # (Cartwright 2017, eqn 8); keep this operation order, reordering moves
    # the last bits of every reported residual
    x21 = h[:-1]
    x32 = h[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * p[:-2] + coeff2 * p[1:-1] + coeff3 * p[2:])


def _cumsimpson(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running Simpson integral of p over an increasing, possibly uneven t.

    Composite Simpson's 1/3 rule for unequal intervals (Cartwright 2017,
    eqn 8): each interval takes the parabola through itself and its right
    neighbour (even intervals) or its left neighbour (odd intervals and
    the last one).  Needs at least 3 samples.  The quadrature error must
    stay below the rk4 trajectory error, otherwise the residual of
    :func:`power_balance` measures this function instead of the integrator.
    """
    h = _time_steps(t, "t", "sample times must be strictly increasing")
    forward = _simpson_pieces(p, h)
    backward = _simpson_pieces(p[::-1], h[::-1])[::-1]
    pieces = np.empty(h.size)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    out = np.empty(p.size)
    out[0] = 0.0
    np.cumsum(pieces, out=out[1:])
    return out


def power_balance(m: EnergyModel, traj: Trajectory) -> float:
    """Worst relative violation of the energy bookkeeping identity.

    Integrates the port powers of ``_EQUATIONS`` over the recorded samples
    (composite Simpson for unequal intervals, Cartwright 2017, eqn 8) and
    compares the running total against H(t) - H(0).  The mismatch is
    normalized by the total energy exchanged (falling back to |H(0)| for
    conservative runs where nothing is exchanged).  The identity holds for
    the model's polynomial inside and outside its fitted flux box, so
    evaluating H here does not warn; a run reports its own excursions.
    """
    if len(traj) < 3:
        raise ValueError("power balance needs at least 3 recorded samples")
    t = traj.t
    theta = traj.column("theta")
    rho = traj.column("rho")
    phi = traj.flux()
    if phi.shape[1] != m.flux_dim:
        raise ValueError("trajectory flux layout does not match the model")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        H = np.asarray(m.evaluate(theta, rho, phi), dtype=float)

    # the table's powers on the recorded columns, n_p bound as a float like
    # the generated run's; their code is compiled once per text
    env = dict(zip(("R_s", "R_r", "n_p"), (*_resistances(m), float(m.pole_pairs))))
    powers = _equations(m.flux_dim)[2]
    column = {name: c for c, name in _ROW.items()}
    env.update({v: traj.column(column.get(v, v)) for v in sorted(_names(powers.values()) - set(env))})
    p_in, p_diss, p_mech = _made(_factory("\n".join(f"{p} = {e}" for p, e in powers.items()), env), env).values()

    lhs = H - H[0]
    rhs = _cumsimpson(p_in - p_diss - p_mech, t)
    residual = float(np.max(np.abs(lhs - rhs)))

    exchanged = _cumtrapz(np.abs(p_in) + p_diss + np.abs(p_mech), t)[-1]
    denom = max(exchanged, abs(float(H[0])), 1.0e-30)
    return residual / denom
