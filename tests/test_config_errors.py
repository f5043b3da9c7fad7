"""Exact config error messages, section by section.

Each case takes a shipped config, applies a few changes by dotted key path
(``DELETE`` removes the key), and pins the ``ConfigError`` text. Every
section has a case for a missing required key, a value of the wrong type,
an unknown key, and each of its value rules.
"""

import copy
import math
import re

import pytest
import yaml

from enermach.cli import EXIT_CONFIG, main
from enermach.config import ConfigError, MotorConfig
from helpers import CONFIG_DIR

DELETE = object()
TABLE_V = {"kind": "table", "times": [0.0, 0.01], "u_d": [0.0, 1.0], "u_q": [2.0, 3.0]}
TABLE_L = {"kind": "table", "times": [0.0, 0.01], "torque": [0.0, 0.5]}
SWEEP = {"parameter": "sim.t_end", "values": [0.1, 0.2]}

# (shipped config, {dotted key path: new value or DELETE}, message)
CASES = [
    # top level
    ("linear_ipm", {"schema_version": DELETE}, "schema_version: required key is missing"),
    ("linear_ipm", {"schema_version": 2}, "schema_version: expected 1, got 2"),
    ("linear_ipm", {"model": DELETE}, "model: required key is missing"),
    ("linear_ipm", {"model": [1]}, "model: expected a mapping"),
    ("linear_ipm", {"seed": "x"}, "seed: expected an integer, got 'x'"),
    ("linear_ipm", {"seed": 1.5}, "seed: expected an integer, got 1.5"),
    ("linear_ipm", {"zz": 1}, "top level: unknown key(s): zz"),
    ("linear_ipm", {"drive": [1]}, "drive: expected a mapping"),
    ("linear_ipm", {"drive.zz": 1}, "drive: unknown key(s): zz"),
    # model: linear_pmsm
    ("linear_ipm", {"model.kind": DELETE}, "model.kind: required key is missing"),
    (
        "linear_ipm",
        {"model.kind": "foo"},
        "model.kind: unknown model kind 'foo'; use one of "
        "('linear_pmsm', 'synrm', 'saturated_pmsm', 'harmonic_pmsm', 'linear_im')",
    ),
    ("linear_ipm", {"model.n_p": DELETE}, "model.n_p: required key is missing"),
    ("linear_ipm", {"model.n_p": 1.5}, "model.n_p: expected an integer, got 1.5"),
    ("linear_ipm", {"model.n_p": 0}, "model: n_p must be a positive integer"),
    ("linear_ipm", {"model.R_s": DELETE}, "model.R_s: required key is missing"),
    ("linear_ipm", {"model.R_s": "x"}, "model.R_s: expected a number, got 'x'"),
    ("linear_ipm", {"model.R_s": -1}, "model: R_s must be non-negative"),
    ("linear_ipm", {"model.L_d": DELETE}, "model.L_d: required key is missing"),
    ("linear_ipm", {"model.L_d": True}, "model.L_d: expected a number, got True"),
    ("linear_ipm", {"model.L_d": 0}, "model: inductances must be positive"),
    ("linear_ipm", {"model.L_q": DELETE}, "model.L_q: required key is missing"),
    ("linear_ipm", {"model.L_q": math.inf}, "model.L_q: expected a finite number, got inf"),
    ("linear_ipm", {"model.phi_M": "x"}, "model.phi_M: expected a number, got 'x'"),
    ("linear_ipm", {"model.phi_M": -1}, "model: phi_M must be non-negative"),
    ("linear_ipm", {"model.zz": 1}, "model: unknown key(s): zz"),
    ("linear_ipm", {"model.inertia": DELETE}, "model: give exactly one of inertia / kinetic_coeff"),
    ("linear_ipm", {"model.inertia": "x"}, "model.inertia: expected a number, got 'x'"),
    ("linear_ipm", {"model.inertia": -1}, "model: inertia must be positive"),
    ("linear_ipm", {"model.kinetic_coeff": 2.0}, "model: give exactly one of inertia / kinetic_coeff"),
    ("linear_ipm", {"model.kinetic_convention": "x"}, "model: unknown kinetic convention 'x'"),
    (
        "linear_ipm",
        {"model.inertia": DELETE, "model.kinetic_coeff": "x"},
        "model.kinetic_coeff: expected a number, got 'x'",
    ),
    (
        "linear_ipm",
        {"model.inertia": DELETE, "model.kinetic_coeff": -1},
        "model: kinetic_coeff must be positive",
    ),
    (
        "linear_ipm",
        {"model.inertia": DELETE, "model.kinetic_coeff": 2.0, "model.kinetic_convention": "reciprocal"},
        "model.kinetic_convention: only applies with inertia",
    ),
    # model: synrm
    ("synrm", {"model.L_d": DELETE}, "model.L_d: required key is missing"),
    ("synrm", {"model.L_q": "x"}, "model.L_q: expected a number, got 'x'"),
    ("synrm", {"model.L_q": -1}, "model: inductances must be positive"),
    ("synrm", {"model.zz": 1}, "model: unknown key(s): zz"),
    # model: linear_im
    ("im_2kw", {"model.L_s": DELETE}, "model.L_s: required key is missing"),
    ("im_2kw", {"model.L_r": DELETE}, "model.L_r: required key is missing"),
    ("im_2kw", {"model.L_m": DELETE}, "model.L_m: required key is missing"),
    ("im_2kw", {"model.R_r": DELETE}, "model.R_r: required key is missing"),
    ("im_2kw", {"model.L_m": "x"}, "model.L_m: expected a number, got 'x'"),
    ("im_2kw", {"model.L_m": 0.5}, "model: degenerate inductance matrix: L_s*L_r - L_m**2 must be positive"),
    ("im_2kw", {"model.R_r": -1}, "model: resistances must be non-negative"),
    ("im_2kw", {"model.phi_M": 0.1}, "model: unknown key(s): phi_M"),
    # model: saturated_pmsm and its saturation block
    ("saturated_ipm", {"model.phi_M": DELETE}, "model.phi_M: required key is missing"),
    ("saturated_ipm", {"model.phi_M": "x"}, "model.phi_M: expected a number, got 'x'"),
    (
        "saturated_ipm",
        {"model.phi_M": 0},
        "model.saturation.coefficients: scaled coefficients need phi_M > 0",
    ),
    ("saturated_ipm", {"model.saturation": DELETE}, "model.saturation: required key is missing"),
    ("saturated_ipm", {"model.saturation": [1]}, "model.saturation: expected a mapping"),
    ("saturated_ipm", {"model.L_d": 0.01}, "model: unknown key(s): L_d"),
    (
        "saturated_ipm",
        {"model.saturation.scaled": DELETE},
        "model.saturation.scaled: required key is missing",
    ),
    (
        "saturated_ipm",
        {"model.saturation.scaled": "yes"},
        "model.saturation.scaled: expected true/false, got 'yes'",
    ),
    (
        "saturated_ipm",
        {"model.saturation.coefficients": DELETE},
        "model.saturation.coefficients: required key is missing",
    ),
    (
        "saturated_ipm",
        {"model.saturation.coefficients": [1]},
        "model.saturation.coefficients: expected a mapping",
    ),
    ("saturated_ipm", {"model.saturation.zz": 1}, "model.saturation: unknown key(s): zz"),
    (
        "saturated_ipm",
        {"model.saturation.coefficients.phiM2_inv_Ld": DELETE},
        "model.saturation.coefficients.phiM2_inv_Ld: required key is missing",
    ),
    (
        "saturated_ipm",
        {"model.saturation.coefficients.phiM2_inv_Ld": "x"},
        "model.saturation.coefficients.phiM2_inv_Ld: expected a number, got 'x'",
    ),
    (
        "saturated_ipm",
        {"model.saturation.coefficients.phiM2_inv_Ld": -1},
        "model.saturation.coefficients: inverse inductances must be positive",
    ),
    (
        "saturated_ipm",
        {"model.saturation.coefficients.inv_L_d": 1.0},
        "model.saturation.coefficients: unknown key(s): inv_L_d",
    ),
    (
        "saturated_ipm",
        {"model.saturation.scaled": False},
        "model.saturation.coefficients.inv_L_d: required key is missing",
    ),
    # model: harmonic_pmsm, harmonics[i] and zero_axis
    ("harmonic_ipm", {"model.harmonics": "x"}, "model.harmonics: expected a list of harmonic terms"),
    ("harmonic_ipm", {"model.zz": 1}, "model: unknown key(s): zz"),
    (
        "harmonic_ipm",
        {"model.harmonics[1].k": 1},
        "model: duplicate harmonic order k; merge the amplitude polynomials",
    ),
    ("harmonic_ipm", {"model.harmonics[0]": [1]}, "model.harmonics[0]: expected a mapping"),
    ("harmonic_ipm", {"model.harmonics[0].k": DELETE}, "model.harmonics[0].k: required key is missing"),
    ("harmonic_ipm", {"model.harmonics[0].k": 1.5}, "model.harmonics[0].k: expected an integer, got 1.5"),
    (
        "harmonic_ipm",
        {"model.harmonics[0].k": 0},
        "model.harmonics[0]: harmonic index k must be a positive integer",
    ),
    ("harmonic_ipm", {"model.harmonics[0].zz": 1}, "model.harmonics[0]: unknown key(s): zz"),
    ("harmonic_ipm", {"model.harmonics[0].a": [1]}, "model.harmonics[0].a: expected a mapping"),
    (
        "harmonic_ipm",
        {"model.harmonics[0].a": {"1": 1.0}},
        'model.harmonics[0].a.1: power keys look like "i,j"',
    ),
    (
        "harmonic_ipm",
        {"model.harmonics[0].a": {"x,0": 1.0}},
        'model.harmonics[0].a.x,0: power keys look like "i,j"',
    ),
    (
        "harmonic_ipm",
        {"model.harmonics[0].a": {"1,0": "x"}},
        "model.harmonics[0].a.1,0: expected a number, got 'x'",
    ),
    (
        "harmonic_ipm",
        {"model.harmonics[0].a": {"5,0": 1.0}},
        "model.harmonics[0].a: coefficient (5,0): total degree 5 exceeds the cap 4",
    ),
    (
        "harmonic_ipm",
        {"model.harmonics[0].a": {"0,1": 1.0}},
        "model.harmonics[0]: a_poly[0,1] of harmonic k=1: cos amplitudes must have even powers of phi_q",
    ),
    (
        "harmonic_ipm",
        {"model.harmonics[0].b": {"0,2": 1.0}},
        "model.harmonics[0]: b_poly[0,2] of harmonic k=1: sin amplitudes must have odd powers of phi_q",
    ),
    ("harmonic_ipm", {"model.zero_axis": [1]}, "model.zero_axis: expected a mapping"),
    ("harmonic_ipm", {"model.zero_axis.cos": "x"}, "model.zero_axis.cos: expected a list of numbers"),
    (
        "harmonic_ipm",
        {"model.zero_axis.sin": [0.0, "x"]},
        "model.zero_axis.sin[1]: expected a number, got 'x'",
    ),
    ("harmonic_ipm", {"model.zero_axis.zz": 1}, "model.zero_axis: unknown key(s): zz"),
    # drive.voltage
    ("synrm", {"drive.voltage": [1]}, "drive.voltage: expected a mapping"),
    ("synrm", {"drive.voltage.kind": "foo"}, "drive.voltage.kind: unknown voltage kind 'foo'"),
    ("synrm", {"drive.voltage.u_d": "x"}, "drive.voltage.u_d: expected a number, got 'x'"),
    ("synrm", {"drive.voltage.zz": 1}, "drive.voltage: unknown key(s): zz"),
    ("linear_ipm", {"drive.voltage.freq_hz": DELETE}, "drive.voltage.freq_hz: required key is missing"),
    ("linear_ipm", {"drive.voltage.amp_q": "x"}, "drive.voltage.amp_q: expected a number, got 'x'"),
    (
        "linear_ipm",
        {"drive.voltage.phase_d": math.inf},
        "drive.voltage.phase_d: expected a finite number, got inf",
    ),
    ("linear_ipm", {"drive.voltage.zz": 1}, "drive.voltage: unknown key(s): zz"),
    (
        "linear_ipm",
        {"drive.voltage": TABLE_V, "drive.voltage.times": DELETE},
        "drive.voltage.times: required key is missing",
    ),
    (
        "linear_ipm",
        {"drive.voltage": TABLE_V, "drive.voltage.u_q": DELETE},
        "drive.voltage.u_q: required key is missing",
    ),
    (
        "linear_ipm",
        {"drive.voltage": TABLE_V, "drive.voltage.u_d": "x"},
        "drive.voltage.u_d: expected a list of numbers",
    ),
    (
        "linear_ipm",
        {"drive.voltage": TABLE_V, "drive.voltage.u_d": [0.0, "x"]},
        "drive.voltage.u_d[1]: expected a number, got 'x'",
    ),
    (
        "linear_ipm",
        {"drive.voltage": TABLE_V, "drive.voltage.times": [0.0, 0.0]},
        "drive.voltage: times must be non-empty and strictly increasing",
    ),
    (
        "linear_ipm",
        {"drive.voltage": TABLE_V, "drive.voltage.u_d": [0.0]},
        "drive.voltage: voltage tables must match the time grid",
    ),
    ("linear_ipm", {"drive.voltage": TABLE_V, "drive.voltage.zz": 1}, "drive.voltage: unknown key(s): zz"),
    # drive.load
    ("linear_ipm", {"drive.load": [1]}, "drive.load: expected a mapping"),
    ("linear_ipm", {"drive.load.kind": "foo"}, "drive.load.kind: unknown load kind 'foo'"),
    ("linear_ipm", {"drive.load.coeff": "x"}, "drive.load.coeff: expected a number, got 'x'"),
    ("linear_ipm", {"drive.load.zz": 1}, "drive.load: unknown key(s): zz"),
    ("saturated_spm", {"drive.load.torque": "x"}, "drive.load.torque: expected a number, got 'x'"),
    ("saturated_spm", {"drive.load.zz": 1}, "drive.load: unknown key(s): zz"),
    (
        "linear_ipm",
        {"drive.load": TABLE_L, "drive.load.times": DELETE},
        "drive.load.times: required key is missing",
    ),
    (
        "linear_ipm",
        {"drive.load": TABLE_L, "drive.load.torque": DELETE},
        "drive.load.torque: required key is missing",
    ),
    (
        "linear_ipm",
        {"drive.load": TABLE_L, "drive.load.torque": 1.0},
        "drive.load.torque: expected a list of numbers",
    ),
    (
        "linear_ipm",
        {"drive.load": TABLE_L, "drive.load.times": [0.01, 0.0]},
        "drive.load: times must be non-empty and strictly increasing",
    ),
    (
        "linear_ipm",
        {"drive.load": TABLE_L, "drive.load.torque": [0.0]},
        "drive.load: torque table must match the time grid",
    ),
    ("linear_ipm", {"drive.load": TABLE_L, "drive.load.zz": 1}, "drive.load: unknown key(s): zz"),
    # sim
    ("linear_ipm", {"sim": [1]}, "sim: expected a mapping"),
    ("linear_ipm", {"sim.dt": "x"}, "sim.dt: expected a number, got 'x'"),
    ("linear_ipm", {"sim.dt": -1}, "sim: dt must be positive"),
    ("linear_ipm", {"sim.t_end": 1e-06}, "sim: t_end must cover at least one step"),
    ("linear_ipm", {"sim.integrator": "x"}, "sim: unknown integrator 'x'; use one of ('rk4', 'euler')"),
    ("linear_ipm", {"sim.record_stride": 1.5}, "sim.record_stride: expected an integer, got 1.5"),
    ("linear_ipm", {"sim.record_stride": 0}, "sim: record_stride must be a positive integer"),
    ("linear_ipm", {"sim.omega_s": math.nan}, "sim.omega_s: expected a finite number, got nan"),
    ("linear_ipm", {"sim.zz": 1}, "sim: unknown key(s): zz"),
    # initial
    ("linear_ipm", {"initial": [1]}, "initial: expected a mapping"),
    ("linear_ipm", {"initial.theta": "x"}, "initial.theta: expected a number, got 'x'"),
    ("linear_ipm", {"initial.omega": "x"}, "initial.omega: expected a number, got 'x'"),
    ("linear_ipm", {"initial.rho": 1.0, "initial.omega": 1.0}, "initial: give at most one of rho / omega"),
    ("linear_ipm", {"initial.phi": "x"}, "initial.phi: expected a list of numbers"),
    ("linear_ipm", {"initial.phi": [0.1]}, "initial.phi: expected 2 components"),
    ("linear_ipm", {"initial.zz": 1}, "initial: unknown key(s): zz"),
    # identify
    ("saturated_ipm", {"identify": [1]}, "identify: expected a mapping"),
    ("saturated_ipm", {"identify.phi_M": "x"}, "identify.phi_M: expected a number, got 'x'"),
    (
        "saturated_ipm",
        {"identify.refine_phi_M": "yes"},
        "identify.refine_phi_M: expected true/false, got 'yes'",
    ),
    ("saturated_ipm", {"identify.zz": 1}, "identify: unknown key(s): zz"),
    # ripple
    ("synrm", {"ripple": [1]}, "ripple: expected a mapping"),
    ("synrm", {"ripple.theta_min": "x"}, "ripple.theta_min: expected a number, got 'x'"),
    ("synrm", {"ripple.n_points": 1.5}, "ripple.n_points: expected an integer, got 1.5"),
    ("synrm", {"ripple.n_points": 1}, "ripple.n_points: need at least 2 grid points"),
    ("synrm", {"ripple.theta_max": 0.0}, "ripple: theta_max must exceed theta_min"),
    ("synrm", {"ripple.phi": "x"}, "ripple.phi: expected a list of numbers"),
    ("synrm", {"ripple.zz": 1}, "ripple: unknown key(s): zz"),
    # flux_map and its axes
    ("synrm", {"flux_map": [1]}, "flux_map: expected a mapping"),
    ("synrm", {"flux_map.zz": 1}, "flux_map: unknown key(s): zz"),
    ("synrm", {"flux_map.phi_d": [1]}, "flux_map.phi_d: expected a mapping"),
    ("synrm", {"flux_map.phi_d.min": "x"}, "flux_map.phi_d.min: expected a number, got 'x'"),
    ("synrm", {"flux_map.phi_d.n": 1.5}, "flux_map.phi_d.n: expected an integer, got 1.5"),
    ("synrm", {"flux_map.phi_d.max": -0.4}, "flux_map.phi_d: max must exceed min"),
    ("synrm", {"flux_map.phi_d.n": 1}, "flux_map.phi_d.n: need at least 2 grid points"),
    ("synrm", {"flux_map.phi_d.zz": 1}, "flux_map.phi_d: unknown key(s): zz"),
    ("synrm", {"flux_map.phi_q.min": 0.2}, "flux_map.phi_q: max must exceed min"),
    # validate
    ("synrm", {"validate": [1]}, "validate: expected a mapping"),
    ("synrm", {"validate.n_samples": 1.5}, "validate.n_samples: expected an integer, got 1.5"),
    ("synrm", {"validate.n_samples": 0}, "validate.n_samples: need a positive sample count"),
    ("synrm", {"validate.tol": "x"}, "validate.tol: expected a number, got 'x'"),
    ("synrm", {"validate.zz": 1}, "validate: unknown key(s): zz"),
    # sweep
    ("synrm", {"sweep": [1]}, "sweep: expected a mapping"),
    ("synrm", {"sweep": SWEEP, "sweep.parameter": DELETE}, "sweep.parameter: required key is missing"),
    ("synrm", {"sweep": SWEEP, "sweep.parameter": ""}, "sweep.parameter: expected a dotted key path string"),
    ("synrm", {"sweep": SWEEP, "sweep.values": DELETE}, "sweep.values: required key is missing"),
    ("synrm", {"sweep": SWEEP, "sweep.values": []}, "sweep.values: expected a non-empty list"),
    ("synrm", {"sweep": SWEEP, "sweep.workers": "x"}, "sweep.workers: expected an integer, got 'x'"),
    ("synrm", {"sweep": SWEEP, "sweep.workers": 0}, "sweep.workers: need at least one worker"),
    ("synrm", {"sweep": SWEEP, "sweep.zz": 1}, "sweep: unknown key(s): zz"),
]


def _changed(config: str, changes: dict) -> dict:
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        raw = yaml.safe_load(f)
    for path, value in changes.items():
        keys = [int(k) if k.isdigit() else k for k in re.split(r"\.|\[(\d+)\]\.?", path) if k]
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = copy.deepcopy(value)
    return raw


def _id(case) -> str:
    config, changes, _ = case
    path, value = list(changes.items())[-1]
    return f"{config}:{path}={'DELETE' if value is DELETE else value!r}"


@pytest.mark.parametrize("config, changes, message", CASES, ids=[_id(c) for c in CASES])
def test_config_error_message(config, changes, message):
    raw = _changed(config, changes)
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == message


def test_top_level_must_be_a_mapping():
    with pytest.raises(ConfigError) as e:
        MotorConfig([1])
    assert str(e.value) == "top level: expected a mapping"


# a required key given as null, and integers too large for the models' floats:
# each is a named config error, exit code 1 and no traceback
NULL_CASES = [
    ("linear_ipm", "model.n_p", "model.n_p: expected an integer, got None"),
    ("linear_ipm", "model.R_s", "model.R_s: expected a number, got None"),
    ("linear_ipm", "model.L_d", "model.L_d: expected a number, got None"),
    ("linear_ipm", "model.L_q", "model.L_q: expected a number, got None"),
    ("saturated_ipm", "model.phi_M", "model.phi_M: expected a number, got None"),
    ("im_2kw", "model.L_s", "model.L_s: expected a number, got None"),
    ("im_2kw", "model.L_r", "model.L_r: expected a number, got None"),
    ("im_2kw", "model.L_m", "model.L_m: expected a number, got None"),
    ("im_2kw", "model.R_r", "model.R_r: expected a number, got None"),
    ("harmonic_ipm", "model.harmonics[0].k", "model.harmonics[0].k: expected an integer, got None"),
    ("linear_ipm", "drive.voltage.freq_hz", "drive.voltage.freq_hz: expected a number, got None"),
]
TOO_LARGE = "expected an integer of magnitude at most 2**53"
OVERSIZED_CASES = [
    ("linear_ipm", "model.n_p", 10**400),
    ("linear_ipm", "model.n_p", 10**200),
    ("linear_ipm", "model.n_p", -(10**400)),
    ("harmonic_ipm", "model.harmonics[0].k", 10**400),
]


def _cli(raw, tmp_path, capsys) -> tuple:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv"), "--quiet"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("config, key, message", NULL_CASES, ids=[f"{c}:{k}" for c, k, _ in NULL_CASES])
def test_null_required_key_exits_1_naming_the_key(config, key, message, tmp_path, capsys):
    assert _cli(_changed(config, {key: None}), tmp_path, capsys) == (EXIT_CONFIG, f"error: {message}\n")


@pytest.mark.parametrize("config, key, value", OVERSIZED_CASES, ids=["n_p=1e400", "n_p=1e200", "n_p=-1e400", "k=1e400"])
def test_oversized_integer_exits_1_naming_the_key(config, key, value, tmp_path, capsys):
    assert _cli(_changed(config, {key: value}), tmp_path, capsys) == (EXIT_CONFIG, f"error: {key}: {TOO_LARGE}\n")


def test_zero_pole_pairs_under_the_reciprocal_convention_exits_1(tmp_path, capsys):
    raw = _changed("linear_ipm", {"model.n_p": 0, "model.kinetic_convention": "reciprocal"})
    assert _cli(raw, tmp_path, capsys) == (EXIT_CONFIG, "error: model: n_p must be a positive integer\n")


@pytest.mark.parametrize("dt, t_end", [(5.0e-324, 1.0), (1.0e-300, 1.0e300)], ids=["dt=5e-324", "t_end=1e300"])
def test_an_overflowing_step_count_exits_1_naming_the_ratio(dt, t_end, tmp_path, capsys):
    raw = _changed("linear_ipm", {"sim.dt": dt, "sim.t_end": t_end})
    assert _cli(raw, tmp_path, capsys) == (EXIT_CONFIG, "error: sim: t_end / dt must be finite\n")


@pytest.mark.parametrize("kinetic", [{"inertia": 4.8e-4}, {"inertia": None, "kinetic_coeff": 2.0}])
def test_largest_float_exact_pole_pair_count_loads(kinetic):
    raw = _changed("linear_ipm", {"model.n_p": 2**53, **{f"model.{k}": v for k, v in kinetic.items()}})
    assert MotorConfig(raw).model.params.n_p == 2**53


@pytest.mark.parametrize("key", ["seed", "sim.record_stride", "validate.n_samples", "ripple.n_points", "sweep.workers"])
def test_large_counts_still_load(key):
    raw = _changed("im_2kw", {"ripple": {}, key: 10**400})
    MotorConfig(raw)


def _built(raw) -> tuple:
    cfg = MotorConfig(raw)
    return cfg.model.params, getattr(cfg.model, "harmonic_model", None), cfg.sim, cfg.identify


@pytest.mark.parametrize(
    "config, key, default",
    [
        ("linear_ipm", "sim.integrator", "rk4"),
        ("linear_ipm", "model.kinetic_convention", "mechanical"),
        ("saturated_ipm", "identify.refine_phi_M", False),
        ("harmonic_ipm", "model.harmonics", []),
        ("harmonic_ipm", "model.zero_axis.cos", []),
        ("harmonic_ipm", "model.zero_axis.sin", []),
    ],
)
def test_optional_key_given_as_null_reads_as_its_default(config, key, default):
    assert _built(_changed(config, {key: None})) == _built(_changed(config, {key: default}))


def test_an_inertia_that_overflows_kappa_is_named():
    raw = _changed("linear_ipm", {"model.inertia": 5.0e-324})
    with pytest.raises(ConfigError, match=r"^model: inertia 5e-324 with n_p = 3 overflows kappa to inf$"):
        MotorConfig(raw)


def test_an_initial_speed_that_overflows_rho_is_named():
    raw = _changed("linear_ipm", {"model.inertia": DELETE, "model.kinetic_coeff": 0.5, "initial.omega": 1.0e308})
    with pytest.raises(ConfigError, match="^initial: rho must be finite, got inf$"):
        MotorConfig(raw)
