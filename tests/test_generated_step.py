"""The generated simulator step against the stage-by-stage reference loop, its code cache,
and the one-warning-per-run report of saturation-box excursions."""

import io
import math
import os
import subprocess
import sys
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
    _program,
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
    _, record = _program(m, voltage, load, 0.0, 1.0e-5, "rk4", _Excursions())
    s = _initial_state(m)
    state = [s.theta, s.rho, *s.phi.tolist()]
    for t in np.linspace(0.0, 3.0, 2001).tolist():
        row = record(t, state)
        assert [v.hex() for v in row[8:10]] == [v.hex() for v in voltage(t)]
        assert row[11].hex() == load(t, row[3]).hex()


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
            step_a, record_a = _program(a, drive.voltage, drive.load, 0.0, 1.0e-5, method, _Excursions())
            step_b, record_b = _program(b, drive.voltage, drive.load, 7.0, 2.0e-5, method, _Excursions())
            assert step_a.__code__ is step_b.__code__
            assert record_a.__code__ is record_b.__code__
            assert step_a.__closure__ != step_b.__closure__
            for fn in (step_a, record_a):
                assert set(fn.__code__.co_consts) <= {None, 0.0, 2.0}


@pytest.mark.parametrize("kind", MODELS)
def test_no_coefficient_is_printed_into_the_source(kind):
    m = MODELS[kind]()
    drive = DRIVES["constant"]
    step, _ = _program(m, drive.voltage, drive.load, 3.0, 1.0e-5, "rk4", _Excursions())
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
