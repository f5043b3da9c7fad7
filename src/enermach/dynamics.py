"""Fixed-step simulation of the machine state equations.

The electrical state equation in rotating coordinates is

    dphi/dt = u - R_s * i - omega_frame * J * phi

coupled to the mechanical pair d(theta)/dt = omega, n_p * d(rho)/dt = T_e - T_l.
For single-winding machines the frame rotates with the rotor
(omega_frame = omega); for the induction machine the frame angle theta_s
advances at a constant chosen speed omega_s and the rotor winding sees the
slip speed omega_s - omega.

Integrators are fixed-step (classic fourth-order Runge-Kutta and explicit
Euler), so a run is a pure function of its inputs; repeating one bit for
bit is the baseline determinism guarantee.

Energy bookkeeping: along an exact trajectory

    dH/dt = u^T i - R_s ||i||^2 - T_l * omega / n_p      (- R_r ||i_r||^2 for IM)

and :func:`power_balance` measures how far a recorded trajectory is from
that identity.  The zero axis never enters here; a star-connected winding
keeps it decoupled, and its flux is handled entirely in
:mod:`enermach.harmonics`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .energy import EnergyModel, MachineState, _torque
from .induction import ImParams, im_energy

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
        self.t = t


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    ``omega_s`` is the synchronous frame speed and only matters for the
    induction machine; single-winding machines rotate their frame with the
    rotor.
    """

    dt: float = 1.0e-5
    t_end: float = 0.1
    integrator: str = "rk4"
    record_stride: int = 1
    omega_s: float = 0.0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; use one of {_INTEGRATORS}")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")


# ---------------------------------------------------------------------------
# drive sources: deterministic functions of time (and speed, for loads)


@dataclass(frozen=True)
class ConstantVoltage:
    u_d: float = 0.0
    u_q: float = 0.0

    def __call__(self, t: float) -> Tuple[float, float]:
        return (self.u_d, self.u_q)


@dataclass(frozen=True)
class SinusoidVoltage:
    """Per-axis sinusoids, u = amp * cos(2*pi*freq_hz*t + phase)."""

    amp_d: float = 0.0
    amp_q: float = 0.0
    freq_hz: float = 0.0
    phase_d: float = 0.0
    phase_q: float = 0.0

    def __call__(self, t: float) -> Tuple[float, float]:
        w = 2.0 * math.pi * self.freq_hz * t
        return (
            self.amp_d * math.cos(w + self.phase_d),
            self.amp_q * math.cos(w + self.phase_q),
        )


@dataclass(frozen=True)
class TableVoltage:
    """Piecewise-constant voltage; value k holds from times[k] to times[k+1]."""

    times: Tuple[float, ...]
    u_d: Tuple[float, ...]
    u_q: Tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size == 0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be non-empty and strictly increasing")
        if len(self.u_d) != t.size or len(self.u_q) != t.size:
            raise ValueError("voltage tables must match the time grid")

    def __call__(self, t: float) -> Tuple[float, float]:
        k = max(bisect.bisect_right(self.times, t) - 1, 0)
        return (self.u_d[k], self.u_q[k])


@dataclass(frozen=True)
class ConstantLoad:
    torque: float = 0.0

    def __call__(self, t: float, omega: float) -> float:
        return self.torque


@dataclass(frozen=True)
class LinearLoad:
    """Load torque affine in electrical speed: T = torque_0 + coeff * omega."""

    torque_0: float = 0.0
    coeff: float = 0.0

    def __call__(self, t: float, omega: float) -> float:
        return self.torque_0 + self.coeff * omega


@dataclass(frozen=True)
class TableLoad:
    """Piecewise-constant load torque over time."""

    times: Tuple[float, ...]
    torque: Tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size == 0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be non-empty and strictly increasing")
        if len(self.torque) != t.size:
            raise ValueError("torque table must match the time grid")

    def __call__(self, t: float, omega: float) -> float:
        return self.torque[max(bisect.bisect_right(self.times, t) - 1, 0)]


@dataclass(frozen=True)
class Drive:
    """Voltage source plus load torque."""

    voltage: Callable[[float], Tuple[float, float]] = ConstantVoltage()
    load: Callable[[float, float], float] = ConstantLoad()


def _as_voltage_fn(u) -> Callable[[float], Tuple[float, float]]:
    if callable(u):
        return u
    u_d, u_q = (float(v) for v in u)
    return lambda t: (u_d, u_q)


def _as_load_fn(load) -> Callable[[float, float], float]:
    if callable(load):
        return load
    value = float(load)
    return lambda t, omega: value


# ---------------------------------------------------------------------------
# trajectory record


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
        cols = ["phi_d", "phi_q"]
        if "phi_rd" in self.columns:
            cols += ["phi_rd", "phi_rq"]
        return np.stack([self.column(c) for c in cols], axis=-1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(",".join(self.columns) + "\n")
            for row in self.data:
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        with open(path, "r", newline="") as f:
            header = f.readline().strip()
            columns = tuple(header.split(","))
            data = np.loadtxt(f, delimiter=",", ndmin=2)
        return cls(columns, data)


# ---------------------------------------------------------------------------
# the simulator: one right-hand side, one record function


def _resistances(model: EnergyModel) -> Tuple[float, float]:
    """(R_s, R_r); R_r is read only for models with a rotor winding."""
    try:
        R_s = float(model.params.R_s)
        R_r = float(model.params.R_r) if model.flux_dim == 4 else 0.0
    except AttributeError:
        raise TypeError("model must expose params.R_s to be simulated") from None
    return R_s, R_r


def _machine(model: EnergyModel, voltage_fn, load_fn, omega_s: float):
    """The right-hand side and the record row of the state equations.

    The state is y = (theta, rho, phi).  The stator pair's frame turns at
    omega for single-winding machines and at omega_s for the induction
    machine; the rotor pair's frame turns at the slip speed omega_s - omega.
    Both functions evaluate the model once, through ``model.gradient``, in
    Python floats.
    """
    n_p = model.pole_pairs
    R_s, R_r = _resistances(model)
    rotor = model.flux_dim == 4
    gradient = model.gradient

    def observe(t: float, y: list):
        theta, rho, *phi = y
        i, omega, h_theta = gradient(theta, rho, np.array(phi))
        i = np.asarray(i, dtype=float).tolist()
        omega = float(omega)
        te = _torque(n_p, float(h_theta), i[0], i[1], phi[0], phi[1])
        u_d, u_q = voltage_fn(t)
        return theta, rho, phi, i, omega, te, u_d, u_q, load_fn(t, omega)

    def rhs(t: float, y: list) -> list:
        _, _, phi, i, omega, te, u_d, u_q, t_load = observe(t, y)
        w_s = omega_s if rotor else omega
        dy = [
            omega,
            (te - t_load) / n_p,
            u_d - R_s * i[0] + w_s * phi[1],
            u_q - R_s * i[1] - w_s * phi[0],
        ]
        if rotor:
            slip = omega_s - omega
            dy += [-R_r * i[2] + slip * phi[3], -R_r * i[3] - slip * phi[2]]
        return dy

    def record(t: float, y: list) -> list:
        theta, rho, phi, i, omega, te, u_d, u_q, t_load = observe(t, y)
        row = [t, theta, rho, omega, phi[0], phi[1], i[0], i[1], u_d, u_q, te, t_load]
        if rotor:
            row += [phi[2], phi[3], i[2], i[3], omega_s * t]
        return row

    return rhs, record


def _advance(rhs, t: float, y: list, dt: float, method: str) -> list:
    # the state is a list of Python floats: for 4 to 6 components this is
    # cheaper than numpy, and the operations and their order are the same
    if method == "euler":
        return [a + dt * b for a, b in zip(y, rhs(t, y))]
    h = 0.5 * dt
    k1 = rhs(t, y)
    k2 = rhs(t + h, [a + h * b for a, b in zip(y, k1)])
    k3 = rhs(t + h, [a + h * b for a, b in zip(y, k2)])
    k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
    h6 = dt / 6.0
    return [
        a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]


def _state_vector(s: MachineState) -> list:
    return [float(s.theta), float(s.rho), *s.phi.tolist()]


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
    the drive at the right instants.
    """
    if method not in _INTEGRATORS:
        raise ValueError(f"unknown integrator {method!r}")
    if m.flux_dim != 2:
        raise ValueError("step_pmsm handles two-component flux models")
    rhs, _ = _machine(m, _as_voltage_fn(u_dq), _as_load_fn(T_l), 0.0)
    y1 = _advance(rhs, t, _state_vector(s), dt, method)
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
    recorded states, so the file is self-consistent.  The initial flux must
    have ``m.flux_dim`` components; the public wrappers and the config
    loader check that.
    """
    rhs, record = _machine(m, _as_voltage_fn(drive.voltage), _as_load_fn(drive.load), cfg.omega_s)
    n = _n_steps(cfg)
    y = _state_vector(state0)
    rows = [record(0.0, y)]
    for k in range(n):
        y = _advance(rhs, k * cfg.dt, y, cfg.dt, cfg.integrator)
        if not all(map(math.isfinite, y)):
            raise SimulationError("non-finite state", (k + 1) * cfg.dt)
        if (k + 1) % cfg.record_stride == 0 or k + 1 == n:
            rows.append(record((k + 1) * cfg.dt, y))
    return Trajectory(IM_COLUMNS if m.flux_dim == 4 else PMSM_COLUMNS, np.array(rows))


def simulate_pmsm(
    m: EnergyModel,
    state0: MachineState,
    drive: Drive,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the single-winding machine and record the trajectory (see :func:`simulate`)."""
    if m.flux_dim != 2:
        raise ValueError("simulate_pmsm handles two-component flux models")
    if np.asarray(state0.phi).shape != (2,):
        raise ValueError("initial flux must have two components")
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
    return simulate(im_energy(p), state0, drive, cfg)


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
    h = np.diff(t)
    if np.any(h <= 0.0):
        raise ValueError("sample times must be strictly increasing")
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

    Integrates the electrical input power, the resistive losses and the
    mechanical load power over the recorded samples (composite Simpson for
    unequal intervals, Cartwright 2017, eqn 8) and compares
    the running total against H(t) - H(0).  The mismatch is normalized by
    the total energy exchanged (falling back to |H(0)| for conservative
    runs where nothing is exchanged).
    """
    if len(traj) < 3:
        raise ValueError("power balance needs at least 3 recorded samples")
    t = traj.t
    theta = traj.column("theta")
    rho = traj.column("rho")
    phi = traj.flux()
    if phi.shape[1] != m.flux_dim:
        raise ValueError("trajectory flux layout does not match the model")
    H = np.asarray(m.evaluate(theta, rho, phi), dtype=float)

    i_s = np.stack([traj.column("i_d"), traj.column("i_q")], axis=-1)
    u = np.stack([traj.column("u_d"), traj.column("u_q")], axis=-1)
    omega = traj.column("omega")
    load = traj.column("load")
    R_s, R_r = _resistances(m)

    p_in = np.sum(u * i_s, axis=-1)
    p_diss = R_s * np.sum(i_s**2, axis=-1)
    if m.flux_dim == 4:
        i_r = np.stack([traj.column("i_rd"), traj.column("i_rq")], axis=-1)
        p_diss = p_diss + R_r * np.sum(i_r**2, axis=-1)
    p_mech = load * omega / m.pole_pairs

    lhs = H - H[0]
    rhs = _cumsimpson(p_in - p_diss - p_mech, t)
    residual = float(np.max(np.abs(lhs - rhs)))

    exchanged = _cumtrapz(np.abs(p_in) + p_diss + np.abs(p_mech), t)[-1]
    denom = max(exchanged, abs(float(H[0])), 1.0e-30)
    return residual / denom
