"""The generated simulator step against the stage-by-stage reference loop, its code cache,
and the one-warning-per-run report of saturation-box excursions."""

import dataclasses
import io
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tokenize
import warnings

import numpy as np
import pytest
import yaml

from enermach import energy
from enermach.dynamics import (
    ConstantLoad,
    ConstantVoltage,
    Drive,
    LinearLoad,
    SimConfig,
    SimulationError,
    SinusoidVoltage,
    TableLoad,
    TableVoltage,
    _functions,
    simulate,
    simulate_im,
    step_pmsm,
)
from enermach.energy import MachineState, _Excursions, linear_energy, synrm_energy
from enermach.harmonics import harmonic_energy
from enermach.induction import ImParams, im_energy
from enermach.saturation import SaturationRangeWarning, saturated_energy
from helpers import (
    CONFIG_DIR,
    _Delegate,
    im_params,
    ipm_harmonic_model,
    ipm_linear_params,
    ipm_saturation,
    reference_simulate,
    spm_saturation,
    synrm_params,
)

MODELS = {
    "linear": lambda: linear_energy(ipm_linear_params()),
    "synrm": lambda: synrm_energy(synrm_params()),
    "saturated": lambda: saturated_energy(ipm_saturation()),
    "harmonic": lambda: harmonic_energy(ipm_harmonic_model()),
    "induction": lambda: im_energy(im_params()),
}

DRIVES = {
    "constant": Drive(ConstantVoltage(5.0, 20.0), ConstantLoad(0.1)),
    "sinusoid": Drive(SinusoidVoltage(amp_d=20.0, amp_q=40.0, freq_hz=50.0), LinearLoad(0.1, 1.0e-3)),
    "table": Drive(
        TableVoltage(times=(0.0, 5.0e-4, 1.0e-3), u_d=(0.0, 10.0, -5.0), u_q=(30.0, 20.0, 40.0)),
        TableLoad(times=(0.0, 7.0e-4), torque=(0.0, 0.3)),
    ),
}

SRC_DIR = CONFIG_DIR.parent / "src"


def _initial_state(m):
    kappa = m.params.kinetic_coeff
    if m.flux_dim == 4:
        return MachineState(0.2, 30.0 / kappa, [0.05, -0.02, 0.04, 0.01])
    return MachineState(0.2, 30.0 / kappa, [m.params.phi_M + 0.02, 0.01])


def _quietly(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        return fn(*args)


def _source_of(fn):
    """The generated source text a function's code was compiled from."""
    (source,) = [s for s, code in energy._CODES.items() if fn.__code__ in code.co_consts]
    return source


@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("wrap", [False, True], ids=["bare", "delegate"])
@pytest.mark.parametrize("kind", MODELS)
def test_generated_step_matches_the_reference_loop(kind, wrap, integrator, drive):
    m = MODELS[kind]()
    if wrap:
        m = _Delegate(m)
    state0 = _initial_state(m)
    cfg = SimConfig(
        dt=1.0e-5, t_end=1.5e-3, integrator=integrator, record_stride=7, omega_s=2.0 * math.pi * 50.0
    )
    got = _quietly(simulate, m, state0, DRIVES[drive], cfg)
    want = _quietly(reference_simulate, m, state0, DRIVES[drive], cfg)
    assert got.data.shape == want.shape == (23, len(got.columns))
    assert got.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("kind", MODELS)
def test_generated_run_records_every_step_as_the_reference_loop(kind, integrator, drive):
    m = MODELS[kind]()
    state0 = _initial_state(m)
    cfg = SimConfig(dt=1.0e-5, t_end=3.0e-4, integrator=integrator, record_stride=1, omega_s=100.0)
    got = _quietly(simulate, m, state0, DRIVES[drive], cfg)
    want = _quietly(reference_simulate, m, state0, DRIVES[drive], cfg)
    assert got.data.shape == want.shape == (31, len(got.columns))
    assert got.data.tobytes() == want.tobytes()


def test_written_out_drives_equal_their_calls_bit_for_bit():
    # long times and a high frequency make a reassociated 2*pi*f*t show in cos
    m = MODELS["linear"]()
    voltage = SinusoidVoltage(amp_d=20.0, amp_q=-40.0, freq_hz=173.3, phase_d=0.3, phase_q=-1.1)
    load = LinearLoad(0.1, 1.0e-3)
    cfg = SimConfig(dt=1.5e-3, t_end=3.0, record_stride=1)
    traj = _quietly(simulate, m, _initial_state(m), Drive(voltage, load), cfg)
    assert len(traj) == 2001
    for t, omega, u_d, u_q, t_load in traj.data[:, [0, 3, 8, 9, 11]].tolist():
        assert [u_d.hex(), u_q.hex()] == [v.hex() for v in voltage(t)]
        assert t_load.hex() == load(t, omega).hex()


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
def test_a_run_that_goes_non_finite_stops_at_the_first_such_step(integrator):
    m = MODELS["saturated"]()
    state0 = MachineState(0.0, 0.0, [6.0 * m.params.phi_M, 0.0])
    cfg = SimConfig(dt=1.0e-3, t_end=0.1, integrator=integrator, record_stride=1)
    drive = DRIVES["constant"]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _quietly(reference_simulate, m, state0, drive, cfg)
        with pytest.raises(SimulationError, match="non-finite state") as failure:
            _quietly(simulate, m, state0, drive, cfg)
    k1 = int(np.flatnonzero(~np.all(np.isfinite(rows[:, [1, 2, 4, 5]]), axis=1))[0])
    assert 1 < k1 < len(rows) - 1  # mid-run
    assert failure.value.t == k1 * cfg.dt


_CALLS = []


class _CountingSinusoid(SinusoidVoltage):
    """A subclass of a written-out drive kind: its own __call__ must be called."""

    def __call__(self, t):
        _CALLS.append(("voltage", t))
        return super().__call__(t)


def _counting_voltage(t):
    _CALLS.append(("voltage", t))
    return (20.0 * math.cos(300.0 * t), 40.0)


def _counting_load(t, omega):
    _CALLS.append(("load", t))
    return 0.1 + 1.0e-3 * omega


@pytest.mark.parametrize(
    "voltage", [_counting_voltage, _CountingSinusoid(amp_d=20.0, freq_hz=50.0)], ids=["function", "subclass"]
)
@pytest.mark.parametrize("integrator, stages", [("rk4", 4), ("euler", 1)])
def test_other_drives_are_called_at_every_stage_and_record(integrator, stages, voltage):
    m = MODELS["saturated"]()
    cfg = SimConfig(dt=1.0e-5, t_end=1.0e-4, integrator=integrator, record_stride=3)
    drive = Drive(voltage, _counting_load)
    _CALLS.clear()
    got = _quietly(simulate, m, _initial_state(m), drive, cfg)
    calls = list(_CALLS)
    _CALLS.clear()
    want = _quietly(reference_simulate, m, _initial_state(m), drive, cfg)
    assert got.data.tobytes() == want.tobytes()
    assert calls == _CALLS  # the same calls in the same order as the reference loop
    assert len(calls) == 2 * (stages * 10 + len(got))


def _run_source(m, drive):
    run = _functions(m, drive.voltage, drive.load, 0.0, 1.0e-5, "rk4", _Excursions())["run"]
    source = _source_of(run)
    return source[source.index("def run(") :]


def _time_loop(run_source):
    """The lines of one step in the generated run: its stages and state update."""
    return run_source[run_source.index("for k, k1 in ks:") : run_source.index("if not k1 % stride")]


@pytest.mark.parametrize("kind", MODELS)
def test_built_in_drives_are_written_out(kind):
    m = MODELS[kind]()
    for name in ("constant", "sinusoid"):
        run = _run_source(m, DRIVES[name])
        assert "voltage(" not in run and "load(" not in run
        # the two stages at t + h share one voltage
        assert _time_loop(run).count("u_d = ") == 3
    table = _time_loop(_run_source(m, DRIVES["table"]))
    assert table.count("voltage(ts)") == table.count("load(ts, omega)") == 4


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("kind", ["saturated", "harmonic"])
def test_generated_step_matches_the_reference_outside_the_box(kind, integrator):
    m = MODELS[kind]()
    state0 = MachineState(0.1, 0.0, [2.5 * m.params.phi_M, -0.3 * m.params.phi_M])
    cfg = SimConfig(dt=1.0e-5, t_end=1.0e-3, integrator=integrator, record_stride=10)
    drive = DRIVES["sinusoid"]
    got = _quietly(simulate, m, state0, drive, cfg)
    assert got.data.tobytes() == _quietly(reference_simulate, m, state0, drive, cfg).tobytes()


def test_models_of_one_structure_share_one_code_object():
    drive = DRIVES["sinusoid"]
    pairs = [
        (saturated_energy(ipm_saturation()), saturated_energy(spm_saturation())),
        (im_energy(im_params()), im_energy(ImParams(0.2, 0.21, 0.19, 1.0, 0.5, 40.0, 3))),
        (linear_energy(ipm_linear_params()), linear_energy(ipm_linear_params(R_s=0.5))),
    ]
    for a, b in pairs:
        for method in ("rk4", "euler"):
            made_a = _functions(a, drive.voltage, drive.load, 0.0, 1.0e-5, method, _Excursions())
            made_b = _functions(b, drive.voltage, drive.load, 7.0, 2.0e-5, method, _Excursions())
            for name in ("step", "run"):
                assert made_a[name].__code__ is made_b[name].__code__
                assert made_a[name].__closure__ != made_b[name].__closure__
                assert set(made_a[name].__code__.co_consts) <= {None, 0.0, 2.0}


@pytest.mark.parametrize("kind", MODELS)
def test_no_coefficient_is_printed_into_the_source(kind):
    m = MODELS[kind]()
    drive = DRIVES["constant"]
    step = _functions(m, drive.voltage, drive.load, 3.0, 1.0e-5, "rk4", _Excursions())["step"]
    source = _source_of(step)
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    numbers = {tok.string for tok in tokens if tok.type == tokenize.NUMBER}
    # the zero every total starts from and the rk4 weight, nothing else
    assert numbers <= {"0.0", "2.0"}


def test_each_simulate_im_call_reuses_the_code():
    drive = Drive(ConstantVoltage(10.0, 0.0), ConstantLoad(0.0))
    cfg = SimConfig(dt=1.0e-5, t_end=2.0e-4, omega_s=100.0)
    state0 = MachineState(0.0, 0.0, np.zeros(4))
    simulate_im(im_params(), state0, drive, cfg)
    size = len(energy._CODES)
    for L_m in (0.1, 0.105, 0.11):
        p = ImParams(0.12, 0.12, L_m, 2.0, 1.5, 40.0, 2)
        simulate_im(p, state0, drive, cfg)
    assert len(energy._CODES) == size


def test_step_pmsm_compiles_once_and_equals_the_first_step_of_simulate(monkeypatch):
    compiled = []

    def counting_compile(*args, **kwargs):
        compiled.append(args[0])
        return compile(*args, **kwargs)

    monkeypatch.setattr(energy, "_CODES", {})
    monkeypatch.setattr(energy, "compile", counting_compile, raising=False)
    m = MODELS["harmonic"]()
    s0 = _initial_state(m)
    drive = DRIVES["sinusoid"]
    dt = 1.0e-5
    first = simulate(m, s0, drive, SimConfig(dt=dt, t_end=dt, record_stride=1)).data[1]
    want = first[[1, 2, 4, 5]].tobytes()
    before = len(compiled)
    for _ in range(1000):
        s1 = step_pmsm(m, s0, drive.voltage, drive.load, dt)
        assert np.array([s1.theta, s1.rho, *s1.phi]).tobytes() == want
    assert len(compiled) == before == 1


def test_step_pmsm_takes_constant_drives():
    m = MODELS["saturated"]()
    s0 = _initial_state(m)
    dt = 2.0e-5
    s1 = step_pmsm(m, s0, (5.0, 20.0), 0.1, dt, t=1.0e-3, method="euler")
    cfg = SimConfig(dt=dt, t_end=dt, integrator="euler")
    row = simulate(m, s0, DRIVES["constant"], cfg).data[1]
    assert np.array([s1.theta, s1.rho, *s1.phi]).tobytes() == row[[1, 2, 4, 5]].tobytes()


def test_an_angle_whose_harmonics_overflow_ends_as_a_non_finite_state():
    # 6 * theta overflows: the step takes the array path of _cos_sin, as the
    # stage-by-stage loop did, and the run stops on the non-finite state
    m = MODELS["harmonic"]()
    s0 = MachineState(1.0e308, 0.0, [m.params.phi_M, 0.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationError, match="non-finite"):
        step_pmsm(m, s0, (0.0, 0.0), 0.0, 1.0e-5)


@pytest.mark.parametrize("kind", ["saturated", "harmonic"])
def test_a_run_outside_the_box_warns_once_with_the_count(kind):
    m = MODELS[kind]()
    state0 = MachineState(0.1, 0.0, [2.5 * m.params.phi_M, 0.0])
    drive = Drive(ConstantVoltage(-30.0, 10.0), ConstantLoad(0.0))
    cfg = SimConfig(dt=1.0e-5, t_end=2.0e-3, record_stride=10)
    # the reference warns at every evaluation outside the box
    with warnings.catch_warnings(record=True) as each:
        warnings.simplefilter("always")
        reference_simulate(m, state0, drive, cfg)
    count = sum(issubclass(w.category, SaturationRangeWarning) for w in each)
    assert 0 < count < 4 * 200 + 21  # the run leaves the box and comes back
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        simulate(m, state0, drive, cfg)
    (warning,) = caught
    assert warning.category is SaturationRangeWarning
    message = str(warning.message)
    assert f"{count} evaluations outside" in message
    assert "first at t=0 s" in message


def test_step_pmsm_outside_the_box_warns_once():
    m = MODELS["saturated"]()
    s0 = MachineState(0.1, 0.0, [2.5 * m.params.phi_M, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        step_pmsm(m, s0, (0.0, 0.0), 0.0, 1.0e-5, t=0.5)
    (warning,) = caught
    assert "4 evaluations outside" in str(warning.message)
    assert "first at t=0.5 s" in str(warning.message)


def test_cli_run_outside_the_box_prints_one_warning(tmp_path):
    with open(CONFIG_DIR / "saturated_ipm.yaml") as f:
        raw = yaml.safe_load(f)
    raw["initial"]["phi"] = [0.55, 0.0]
    cfg = tmp_path / "outside.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "enermach.cli", "simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert 1 <= len(lines) <= 2, lines[:6]
    assert "SaturationRangeWarning" in lines[0] and "evaluations outside" in lines[0]


# ---------------------------------------------------------------------------
# the lean generated step: only the arithmetic a model's structure needs, and
# a model's run kept for repeat simulations


def _linear_without_magnet():
    return linear_energy(dataclasses.replace(ipm_linear_params(), phi_M=0.0))


def _lean_case(name):
    """(model, initial state, drive, dt) of the cases the identities of the lean step touch."""
    if name == "negative_zero_flux":
        m = MODELS["synrm"]()
        return m, MachineState(0.0, 0.0, [-0.0, -0.0]), Drive(ConstantVoltage(-0.0, 0.0), ConstantLoad(-0.0)), 1.0e-5
    if name == "negative_zero_induction":
        m = MODELS["induction"]()
        return m, MachineState(-0.0, -0.0, [-0.0, -0.0, -0.0, -0.0]), DRIVES["constant"], 1.0e-5
    if name == "magnet_free_linear":
        m = _linear_without_magnet()
        return m, MachineState(0.3, 0.0, [-0.0, 0.02]), DRIVES["sinusoid"], 1.0e-5
    if name == "outside_the_box":
        m = MODELS["saturated"]()
        return m, MachineState(0.1, 0.0, [2.5 * m.params.phi_M, -0.3 * m.params.phi_M]), DRIVES["sinusoid"], 1.0e-5
    m = MODELS["saturated"]()  # goes non-finite mid-run
    return m, MachineState(0.0, 0.0, [6.0 * m.params.phi_M, 0.0]), DRIVES["constant"], 1.0e-3


LEAN_CASES = ["negative_zero_flux", "negative_zero_induction", "magnet_free_linear", "outside_the_box", "non_finite"]


@pytest.mark.parametrize("integrator", ["rk4", "euler"])
@pytest.mark.parametrize("case", LEAN_CASES)
def test_lean_run_records_every_step_as_the_reference_loop(case, integrator):
    m, state0, drive, dt = _lean_case(case)
    cfg = SimConfig(dt=dt, t_end=100 * dt, integrator=integrator, record_stride=1, omega_s=-0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _quietly(reference_simulate, m, state0, drive, cfg)
        run = _functions(m, drive.voltage, drive.load, cfg.omega_s, dt, integrator, _Excursions())["run"]
        state = [state0.theta, state0.rho, *state0.phi.tolist()]
        rows, failed = run(state, zip(range(100), range(1, 101)), 100, 1)
    if case == "non_finite":
        assert 1 < failed < 100  # the reference's rows up to the step that failed
        assert np.array(rows).tobytes() == want[:failed].tobytes()
        assert not np.all(np.isfinite(want[failed]))
        return
    assert failed is None
    assert np.array(rows).tobytes() == want.tobytes()
    assert _quietly(simulate, m, state0, drive, cfg).data.tobytes() == want.tobytes()


ANGLE_FREE = {**{k: MODELS[k] for k in ("linear", "synrm", "saturated", "induction")}, "magnet_free": _linear_without_magnet}


def _stage_lines(run_source):
    return [line.strip() for line in run_source.splitlines()]


@pytest.mark.parametrize("kind", ANGLE_FREE)
def test_angle_free_runs_neither_take_h_theta_nor_move_theta_in_a_stage(kind):
    for integrator in ("rk4", "euler"):
        run = _functions(ANGLE_FREE[kind](), DRIVES["sinusoid"].voltage, DRIVES["sinusoid"].load, 0.0, 1.0e-5, integrator, None)["run"]
        source = _source_of(run)
        lines = _stage_lines(source[source.index("def run(") :])
        assert not any("h_theta" in line for line in lines)
        assert not any(line.startswith("theta = theta0 +") for line in lines)
        assert sum(line.startswith("theta0 = theta = theta0 +") for line in lines) == 1
    harmonic = _stage_lines(_run_source(MODELS["harmonic"](), DRIVES["sinusoid"]))
    assert sum(line.startswith("theta = theta0 +") for line in harmonic) == 3
    assert any(line.startswith("h_theta = ") for line in harmonic)


@pytest.mark.parametrize("kind", ["synrm", "induction", "magnet_free"])
def test_magnet_free_runs_read_phi_d_itself(kind):
    source = _run_source({**MODELS, **ANGLE_FREE}[kind](), DRIVES["constant"])
    assert "x = phi_d" not in source and "phi_M" not in source
    assert "x = phi_d - phi_M" in _run_source(MODELS["linear"](), DRIVES["constant"])


def test_the_stage_time_is_set_only_where_a_stage_reads_it():
    constant = _run_source(MODELS["linear"](), DRIVES["constant"])
    assert not re.search(r"\bts\b", constant)
    assert "t = k * dt" not in constant
    for m, drive in ((MODELS["linear"](), DRIVES["sinusoid"]), (MODELS["saturated"](), DRIVES["constant"])):
        timed = _run_source(m, drive)  # a drive of time, or a box that reports the time
        assert "t = k * dt" in timed and "ts = t + dt" in timed


def _counting_kernel_lines(monkeypatch):
    calls = []
    kernel_lines = energy._kernel_lines

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel_lines(*args, **kwargs)

    monkeypatch.setattr(energy, "_kernel_lines", counting)
    return calls


@pytest.mark.parametrize("kind", MODELS)
def test_a_repeat_simulation_reuses_the_models_code(kind, monkeypatch):
    m = MODELS[kind]()
    cfg = SimConfig(dt=1.0e-5, t_end=5.0e-4, record_stride=7, omega_s=100.0)
    drive = DRIVES["sinusoid"]
    first = _quietly(simulate, m, _initial_state(m), drive, cfg)
    calls = _counting_kernel_lines(monkeypatch)
    again = _quietly(simulate, m, _initial_state(m), drive, cfg)
    equal = Drive(SinusoidVoltage(amp_d=20.0, amp_q=40.0, freq_hz=50.0), LinearLoad(0.1, 1.0e-3))
    twin = _quietly(simulate, m, _initial_state(m), equal, cfg)
    assert again.data.tobytes() == first.data.tobytes() == twin.data.tobytes()
    # other drive parameters, step and frame speed take the same code, and
    # record what a fresh model records
    other = Drive(SinusoidVoltage(amp_d=-7.0, amp_q=15.0, freq_hz=80.0, phase_q=0.3), LinearLoad(-0.2, 2.0e-3))
    other_cfg = dataclasses.replace(cfg, dt=2.0e-5, omega_s=-40.0)
    got = _quietly(simulate, m, _initial_state(m), other, other_cfg)
    assert calls == []
    assert got.data.tobytes() == _quietly(simulate, MODELS[kind](), _initial_state(m), other, other_cfg).data.tobytes()
    # another drive kind writes its code once
    calls.clear()
    for _ in range(2):
        _quietly(simulate, m, _initial_state(m), DRIVES["constant"], cfg)
    assert len(calls) == 1


def test_a_repeat_step_writes_no_source(monkeypatch):
    m = MODELS["saturated"]()
    s0 = _initial_state(m)
    first = step_pmsm(m, s0, (5.0, 20.0), 0.1, 1.0e-5)
    calls = _counting_kernel_lines(monkeypatch)
    again = step_pmsm(m, s0, (5.0, 20.0), 0.1, 1.0e-5)
    other = step_pmsm(m, s0, (-3.0, 12.0), 0.2, 2.0e-5, t=0.5)
    assert calls == []
    assert again == first
    assert other == step_pmsm(MODELS["saturated"](), s0, (-3.0, 12.0), 0.2, 2.0e-5, t=0.5)


def test_equal_induction_parameters_share_one_model_and_its_code(monkeypatch):
    drive = Drive(ConstantVoltage(10.0, 0.0), ConstantLoad(0.0))
    cfg = SimConfig(dt=1.0e-5, t_end=2.0e-4, omega_s=100.0)
    state0 = MachineState(0.0, 0.0, np.zeros(4))
    first = simulate_im(im_params(), state0, drive, cfg)
    calls = _counting_kernel_lines(monkeypatch)
    assert simulate_im(im_params(), state0, drive, cfg).data.tobytes() == first.data.tobytes()
    assert calls == []


def test_induction_resistances_of_either_zero_sign_keep_their_own_model():
    # at these zeros the recorded flux keeps the sign of R_s * i_d and R_r * i_rd
    drive = Drive(ConstantVoltage(-0.0, -0.0), ConstantLoad(0.0))
    cfg = SimConfig(dt=1.0e-5, t_end=5.0e-5, record_stride=1, omega_s=-0.0)
    state0 = MachineState(0.0, 0.0, [-0.0, 0.0, 0.0, 0.0])
    runs = []
    for R_s, R_r in ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)):
        p = dataclasses.replace(im_params(), R_s=R_s, R_r=R_r)
        got = simulate_im(p, state0, drive, cfg).data.tobytes()
        assert got == simulate(im_energy(p), state0, drive, cfg).data.tobytes()
        runs.append(got)
    assert runs[0] != runs[1] and runs[0] == runs[4]


def test_kept_code_records_zeros_of_either_sign():
    # 0.0 == -0.0, yet the recorded voltage, load and frame angle keep the sign
    m = MODELS["induction"]()
    state0 = MachineState(0.0, 0.0, [0.0, 0.0, 0.0, 0.0])
    for signs in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)):
        u, load, omega_s = signs
        drive = Drive(ConstantVoltage(u, u), ConstantLoad(load))
        table = Drive(TableVoltage((0.0,), (u,), (u,)), TableLoad((0.0,), (load,)))
        cfg = SimConfig(dt=1.0e-5, t_end=5.0e-5, record_stride=1, omega_s=omega_s)
        for d in (drive, table):
            assert simulate(m, state0, d, cfg).data.tobytes() == simulate(MODELS["induction"](), state0, d, cfg).data.tobytes()


class _DelayedSinusoid(SinusoidVoltage):
    """A sinusoid subclass with state of its own, which dataclass equality does not see."""

    def __init__(self, delay, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "delay", delay)

    def __call__(self, t):
        return super().__call__(t - self.delay)


def test_drives_that_compare_equal_each_drive_their_own_run():
    m = MODELS["linear"]()
    cfg = SimConfig(dt=1.0e-5, t_end=3.0e-4, record_stride=1)
    runs = []
    for delay in (0.0, 1.0e-3, 2.0e-3):
        voltage = _DelayedSinusoid(delay, amp_d=20.0, amp_q=40.0, freq_hz=50.0)
        drive = Drive(voltage, ConstantLoad(0.1))
        got = simulate(m, _initial_state(m), drive, cfg).data.tobytes()
        assert got == reference_simulate(m, _initial_state(m), drive, cfg).tobytes()
        runs.append(got)
    assert len(set(runs)) == 3
    # a callable drive is called itself, whichever equal one ran before
    calls = [[], []]
    for log in calls:
        simulate(m, _initial_state(m), Drive(lambda t, log=log: log.append(t) or (1.0, 2.0), 0.1), cfg)
    assert len(calls[0]) == len(calls[1]) > 0


@pytest.mark.parametrize("kind", ["saturated", "harmonic"])
def test_reused_runs_outside_the_box_each_warn_with_their_own_count(kind):
    drive = Drive(ConstantVoltage(-30.0, 10.0), ConstantLoad(0.0))
    cfg = SimConfig(dt=1.0e-5, t_end=2.0e-3, record_stride=10)
    messages = []
    m = MODELS[kind]()
    for model in (MODELS[kind](), m, m):
        state0 = MachineState(0.1, 0.0, [2.5 * model.params.phi_M, 0.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate(model, state0, drive, cfg)
        (warning,) = caught
        messages.append(str(warning.message))
    assert messages[0] == messages[1] == messages[2]
    assert "evaluations outside" in messages[0]


def test_a_model_pickles_after_it_ran_and_its_clone_runs_alike():
    m = MODELS["saturated"]()
    cfg = SimConfig(dt=1.0e-5, t_end=3.0e-4, record_stride=5)
    first = _quietly(simulate, m, _initial_state(m), DRIVES["sinusoid"], cfg)
    assert m._programs
    clone = pickle.loads(pickle.dumps(m))
    assert "_programs" not in vars(clone)
    assert _quietly(simulate, clone, _initial_state(m), DRIVES["sinusoid"], cfg).data.tobytes() == first.data.tobytes()


@dataclasses.dataclass
class _MutableVoltage:
    """A drive whose dataclass equality leaves it unhashable."""

    amp: float

    def __call__(self, t):
        return (self.amp, 2.0 * self.amp)


def test_an_unhashable_drive_runs_and_its_changes_are_seen():
    m = MODELS["linear"]()
    cfg = SimConfig(dt=1.0e-5, t_end=3.0e-4, record_stride=1)
    voltage = _MutableVoltage(10.0)
    drive = Drive(voltage, ConstantLoad(0.1))
    got = simulate(m, _initial_state(m), drive, cfg)
    assert got.data.tobytes() == reference_simulate(m, _initial_state(m), drive, cfg).tobytes()
    voltage.amp = 20.0  # the next run sees the change
    assert simulate(m, _initial_state(m), drive, cfg).data.tobytes() == reference_simulate(m, _initial_state(m), drive, cfg).tobytes()


def test_a_model_keeps_one_program_per_drive_kinds_and_integrator():
    m = MODELS["linear"]()
    for amp in range(20):
        for integrator in ("rk4", "euler"):
            cfg = SimConfig(dt=1.0e-5 * (1 + amp), t_end=1.0e-3, integrator=integrator)
            simulate(m, _initial_state(m), Drive(ConstantVoltage(float(amp), 0.0), ConstantLoad(0.0)), cfg)
    simulate(m, _initial_state(m), DRIVES["sinusoid"], SimConfig(dt=1.0e-5, t_end=1.0e-4))
    assert len(m._programs) == 3


def test_threads_running_one_model_each_record_their_own_run():
    m = MODELS["saturated"]()
    cfg = SimConfig(dt=1.0e-5, t_end=2.0e-4, record_stride=5)
    drives = [Drive(ConstantVoltage(5.0 + k, 20.0), ConstantLoad(0.1)) for k in range(6)]
    drives += [Drive(SinusoidVoltage(amp_d=20.0 + k, amp_q=40.0, freq_hz=50.0), LinearLoad(0.1, 1.0e-3)) for k in range(3)]
    drives += [DRIVES["table"]]
    want = [_quietly(simulate, MODELS["saturated"](), _initial_state(m), d, cfg).data.tobytes() for d in drives]
    errors = []

    def work(offset):
        try:
            for j in range(30):
                k = (offset + j) % len(drives)
                assert _quietly(simulate, m, _initial_state(m), drives[k], cfg).data.tobytes() == want[k]
        except Exception as e:  # reported below, from the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(m._programs) == 3
