"""Rules said once: the time-grid check, the machine rules, the shared model cache
and the simulation error that crosses a process pool."""

import dataclasses
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

from enermach import energy
from enermach.config import load_config
from enermach.dynamics import SimulationError, TableLoad, TableVoltage, power_balance, simulate
from enermach.energy import _shared
from enermach.frames import OrthTriple, PhaseTriple, RotTriple
from enermach.induction import ImEnergy
from enermach.saturation import SaturatedPmsmEnergy, incremental_inductance, saturated_currents
from enermach.validate import check_im_rotation

from helpers import CONFIG_DIR, im_params, ipm_linear_params, ipm_saturation

SRC_DIR = CONFIG_DIR.parent / "src"


def _counting_kernel_lines(monkeypatch):
    calls = []
    kernel_lines = energy._kernel_lines

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel_lines(*args, **kwargs)

    monkeypatch.setattr(energy, "_kernel_lines", counting)
    return calls


# ---------------------------------------------------------------------------
# a failed run crosses a process pool


def test_a_simulation_error_pickles_with_its_message_and_time():
    e = SimulationError("non-finite state", 0.1)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is SimulationError
    assert str(back) == str(e) == "non-finite state at t=0.1 s"
    assert back.t == e.t


@pytest.mark.parametrize("workers", [1, 2])
def test_a_non_finite_sweep_point_exits_2_with_one_error_line(workers, tmp_path):
    with open(CONFIG_DIR / "saturated_ipm.yaml") as f:
        raw = yaml.safe_load(f)
    raw["sweep"] = {"parameter": "sim.dt", "values": [1.0e-5, 0.05], "workers": workers}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "runs"), "--quiet"]
    run = subprocess.run(
        [sys.executable, "-m", "enermach.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 2
    errors = [line for line in run.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: non-finite state at t=0.1 s"]
    assert "Traceback" not in run.stderr


# ---------------------------------------------------------------------------
# the time-grid rule


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_power_balance_rejects_a_non_finite_time_by_name(bad):
    cfg = load_config(CONFIG_DIR / "saturated_ipm.yaml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = simulate(cfg.model, cfg.initial, cfg.drive, dataclasses.replace(cfg.sim, t_end=0.01))
    traj.data[5, 0] = bad
    with pytest.raises(ValueError, match=rf"^t\[5\] must be finite, got {bad}$"):
        power_balance(cfg.model, traj)


def test_a_table_drive_names_a_non_finite_time_before_the_order():
    with pytest.raises(ValueError, match=r"^times\[1\] must be finite, got nan$"):
        TableVoltage((0.0, float("nan"), -1.0), (0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^u_d\[0\] must be finite, got inf$"):
        TableVoltage((1.0, 0.0), (float("inf"), 1.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="^times must be non-empty and strictly increasing$"):
        TableLoad((), ())
    with pytest.raises(ValueError, match="^times must be non-empty and strictly increasing$"):
        TableLoad((1.0, 0.0), (0.0,))


# ---------------------------------------------------------------------------
# the machine rules, in their order after each record's own


@pytest.mark.parametrize(
    "make, fault, message",
    [
        (ipm_linear_params, {"phi_M": -0.1, "kinetic_coeff": 0.0}, "phi_M must be non-negative"),
        (ipm_linear_params, {"kinetic_coeff": 0.0, "n_p": 0}, "kinetic_coeff must be positive"),
        (ipm_linear_params, {"n_p": 1.5, "R_s": -1.0}, "n_p must be a positive integer"),
        (ipm_linear_params, {"R_s": -1.0}, "R_s must be non-negative"),
        (ipm_linear_params, {"L_d": 0.0, "phi_M": -0.1}, "inductances must be positive"),
        (ipm_saturation, {"inv_L_q": -1.0, "R_s": -1.0}, "inverse inductances must be positive"),
        (ipm_saturation, {"phi_M": -0.1, "n_p": 0}, "phi_M must be non-negative"),
        (ipm_saturation, {"R_s": -1.0}, "R_s must be non-negative"),
        (im_params, {"R_r": -1.0, "kinetic_coeff": 0.0}, "resistances must be non-negative"),
        (im_params, {"kinetic_coeff": -1.0, "n_p": 0}, "kinetic_coeff must be positive"),
        (im_params, {"n_p": 0}, "n_p must be a positive integer"),
    ],
)
def test_each_record_reports_the_first_broken_rule(make, fault, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(make(), **fault)


# ---------------------------------------------------------------------------
# one shared model per parameter set


def test_a_repeat_front_end_call_writes_no_kernel_source(monkeypatch):
    phi = np.array([[0.25, 0.05], [0.15, -0.1]])
    first = (
        check_im_rotation(im_params(), n_samples=64),
        saturated_currents(ipm_saturation(), phi),
        incremental_inductance(ipm_saturation(), phi),
    )
    calls = _counting_kernel_lines(monkeypatch)
    again = (
        check_im_rotation(im_params(), n_samples=64),
        saturated_currents(ipm_saturation(), phi),
        incremental_inductance(ipm_saturation(), phi),
    )
    assert calls == []
    assert first[0] == again[0]
    assert np.array_equal(first[1], again[1]) and np.array_equal(first[2], again[2])


@pytest.mark.parametrize(
    "cls, params, field",
    [(SaturatedPmsmEnergy, ipm_saturation, "alpha_30"), (ImEnergy, im_params, "R_s")],
)
def test_a_zero_of_the_other_sign_gets_its_own_shared_model(cls, params, field):
    plus = dataclasses.replace(params(), **{field: 0.0})
    minus = dataclasses.replace(params(), **{field: -0.0})
    assert plus == minus
    assert _shared(cls, plus) is _shared(cls, dataclasses.replace(plus))
    assert _shared(cls, plus) is not _shared(cls, minus)
    assert _shared(cls, minus) is _shared(cls, dataclasses.replace(minus))


# ---------------------------------------------------------------------------
# the frame triples


def test_the_frame_triples_round_trip_and_reject_a_wrong_length():
    x = np.array([1.0, -2.0, 0.5])
    assert PhaseTriple.from_array(x) == PhaseTriple(1.0, -2.0, 0.5)
    assert OrthTriple.from_array(x) == OrthTriple(1.0, -2.0, 0.5)
    z = RotTriple.from_array(x, 0.3)
    assert z == RotTriple(1.0, -2.0, 0.5, 0.3)
    for triple in (PhaseTriple.from_array(x), OrthTriple.from_array(x), z):
        assert np.array_equal(triple.as_array(), x)
    for bad in (np.zeros(2), np.zeros(4)):
        for make in (PhaseTriple.from_array, OrthTriple.from_array, lambda a: RotTriple.from_array(a, 0.0)):
            with pytest.raises(ValueError):
                make(bad)
