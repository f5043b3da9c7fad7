"""Config file schema and builders for the command-line tools.

Configs are YAML mappings, versioned by a required ``schema_version`` key.
Every section is read by one table of its keys (see :func:`_read`).
Validation is strict: unknown keys are rejected, every complaint carries
the dotted path of the offending key, and model parameters are checked by
constructing the real parameter objects (so the rules live in one place).
A section reports the first fault it finds, in a fixed order: its keys in
table order, then its unknown keys, then its constructor and value rules.
An optional key given as null reads as its default; a required key given
as null is rejected by name. All units are SI; publication-scaled
saturation coefficients are accepted only behind an explicit
``scaled: true`` flag.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import yaml

from .dynamics import (
    ConstantLoad,
    ConstantVoltage,
    Drive,
    LinearLoad,
    SimConfig,
    SinusoidVoltage,
    TableLoad,
    TableVoltage,
)
from .energy import (
    _COUNT_MAX,
    EnergyModel,
    LinearPmsmParams,
    MachineState,
    _magnet_box,
    _require_flux_range,
    kinetic_coefficient,
    linear_energy,
    synrm_energy,
)
from .harmonics import (
    FluxPolynomial,
    HarmonicModel,
    HarmonicTerm,
    ZeroAxisSeries,
    harmonic_energy,
)
from .induction import ImParams, im_energy
from .saturation import _QUARTIC, SaturationCoefficients, saturated_energy

__all__ = ["ConfigError", "MotorConfig", "load_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Config rejected; the message carries the dotted key path."""


def _fail(path: str, message: str) -> "ConfigError":
    return ConfigError(f"{path}: {message}" if path else message)


def _check(ok: bool, path: str, message: str) -> None:
    if not ok:
        raise _fail(path, message)


def _as_mapping(value, path: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _fail(path, "expected a mapping")
    return dict(value)


# ---------------------------------------------------------------------------
# readers: each takes a value and its dotted path, and returns the value read


def _any(value, path: str):
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {value!r}")
    return number


def _positive(value, path: str) -> float:
    number = _number(value, path)
    _check(number > 0.0, path, f"expected a positive number, got {value!r}")
    return number


def _magnet_flux(value, path: str, read: Callable = _number) -> float:
    """A magnet flux phi_M: the number ``read`` takes, in the range of :func:`~enermach.energy._require_flux_range`."""
    number = read(value, path)
    _build(_require_flux_range, path, phi_M=number)
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _float_integer(value, path: str) -> int:
    """An integer that the models compute with as a float (n_p, k), so at most 2**53 in size."""
    _check(abs(_integer(value, path)) <= _COUNT_MAX, path, "expected an integer of magnitude at most 2**53")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(path, f"expected true/false, got {value!r}")
    return value


def _number_list(value, path: str) -> List[float]:
    if not isinstance(value, (list, tuple)):
        raise _fail(path, "expected a list of numbers")
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


_REQUIRED = object()  # the default of a key that must be given


def _read(section, path: str, keys: Dict[str, Tuple[Callable, Any]]) -> Dict[str, Any]:
    """Read the mapping ``section`` by the table ``keys``, ``{key: (reader, default)}``.

    Keys are read in table order. A missing key, or one given as null, reads
    as its default. A ``_REQUIRED`` key must be present, and null goes to its
    reader, which rejects it by name. Keys not in the table are then
    rejected. Returns ``{key: value}`` in table order.
    """
    section = _as_mapping(section, path)
    out = {}
    for key, (reader, default) in keys.items():
        value = section.get(key)
        if value is None and default is not _REQUIRED:
            out[key] = default
        else:
            key_path = f"{path}.{key}" if path else key
            _check(key in section, key_path, "required key is missing")
            out[key] = reader(value, key_path)
    unknown = [k for k in section if k not in keys]
    if unknown:
        raise _fail(path or "top level", f"unknown key(s): {', '.join(sorted(map(str, unknown)))}")
    return out


def _build(make: Callable, path: str, /, **values):
    """``make(**values)``, with a ValueError it raises reported at ``path``."""
    try:
        return make(**values)
    except ConfigError:
        raise
    except ValueError as e:
        raise _fail(path, str(e)) from e


# ---------------------------------------------------------------------------
# model block


def _saturation(block, path: str, **params) -> SaturationCoefficients:
    s = _read(block, path, {"scaled": (_boolean, _REQUIRED), "coefficients": (_any, _REQUIRED)})
    # every scaled key is required; a raw key is required where its field has no default
    no_default = {f.name for f in fields(SaturationCoefficients) if f.default is MISSING}
    keys = {
        key if s["scaled"] else name: (_number, _REQUIRED if s["scaled"] or name in no_default else 0.0)
        for name, key, _, _, _ in _QUARTIC
    }
    cpath = f"{path}.coefficients"
    build = SaturationCoefficients.from_scaled if s["scaled"] else SaturationCoefficients
    return _build(build, cpath, **params, **_read(s["coefficients"], cpath, keys))


def _poly(value, path: str) -> FluxPolynomial:
    mapping = _as_mapping(value, path)
    coeffs = {}
    for key, raw in mapping.items():
        parts = str(key).split(",")
        if len(parts) != 2:
            raise _fail(f"{path}.{key}", 'power keys look like "i,j"')
        try:
            powers = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise _fail(f"{path}.{key}", 'power keys look like "i,j"') from None
        coeffs[powers] = _number(raw, f"{path}.{key}")
    return _build(FluxPolynomial, path, coeffs=coeffs)


_NO_POLY = FluxPolynomial({})
_TERM = {"k": (_float_integer, _REQUIRED), "a": (_poly, _NO_POLY), "b": (_poly, _NO_POLY)}


def _harmonic_terms(value, path: str) -> Tuple[HarmonicTerm, ...]:
    _check(isinstance(value, list), path, "expected a list of harmonic terms")
    terms = []
    for i, item in enumerate(value):
        t = _read(item, f"{path}[{i}]", _TERM)
        terms.append(_build(HarmonicTerm, f"{path}[{i}]", k=t["k"], a_poly=t["a"], b_poly=t["b"]))
    return tuple(terms)


def _zero_axis(value, path: str) -> ZeroAxisSeries:
    series = _read(value, path, {"cos": (_number_list, ()), "sin": (_number_list, ())})
    return ZeroAxisSeries(series["cos"], series["sin"])


_REQUIRED_NUMBER = (_number, _REQUIRED)
_LINEAR = {"L_d": _REQUIRED_NUMBER, "L_q": _REQUIRED_NUMBER, "phi_M": (_magnet_flux, 0.0)}
_SATURATED = {"phi_M": _REQUIRED_NUMBER, "saturation": (_any, _REQUIRED)}
_HARMONIC = {**_SATURATED, "harmonics": (_harmonic_terms, ()), "zero_axis": (_zero_axis, None)}
_INDUCTION = dict.fromkeys(("L_s", "L_r", "L_m", "R_r"), _REQUIRED_NUMBER)
_COMMON = {"kind": (_any, _REQUIRED), "n_p": (_float_integer, _REQUIRED), "R_s": _REQUIRED_NUMBER}
_KINETIC = {
    "inertia": (_number, None),
    "kinetic_coeff": (_number, None),
    "kinetic_convention": (_any, "mechanical"),
}
_MODEL_KEYS = {
    kind: {**_COMMON, **keys, **_KINETIC}
    for kind, keys in (
        ("linear_pmsm", _LINEAR),
        ("synrm", _LINEAR),
        ("saturated_pmsm", _SATURATED),
        ("harmonic_pmsm", _HARMONIC),
        ("linear_im", _INDUCTION),
    )
}
MODEL_KINDS = tuple(_MODEL_KEYS)


def _build_model(block, path: str) -> EnergyModel:
    """Build the model; the caller reports a plain ValueError raised here at ``path``."""
    d = _as_mapping(block, path)
    _check("kind" in d, f"{path}.kind", "required key is missing")
    kind = d["kind"]
    _check(kind in MODEL_KINDS, f"{path}.kind", f"unknown model kind {kind!r}; use one of {MODEL_KINDS}")
    v = _read(d, path, _MODEL_KEYS[kind])
    del v["kind"]
    inertia, kappa, convention = v.pop("inertia"), v.pop("kinetic_coeff"), v.pop("kinetic_convention")
    _check((inertia is None) != (kappa is None), path, "give exactly one of inertia / kinetic_coeff")
    if kappa is None:
        kappa = kinetic_coefficient(inertia, v["n_p"], convention)
    else:
        _check(convention == "mechanical", f"{path}.kinetic_convention", "only applies with inertia")
    if kind == "linear_im":
        return im_energy(ImParams(kinetic_coeff=kappa, **v))
    if kind in ("linear_pmsm", "synrm"):
        energy = synrm_energy if kind == "synrm" else linear_energy
        return energy(LinearPmsmParams(kinetic_coeff=kappa, **v))
    terms, zero_axis = v.pop("harmonics", ()), v.pop("zero_axis", None)
    coeffs = _saturation(v.pop("saturation"), f"{path}.saturation", kinetic_coeff=kappa, **v)
    if kind == "saturated_pmsm":
        return saturated_energy(coeffs)
    return harmonic_energy(HarmonicModel(base=coeffs, terms=terms, zero_axis=zero_axis))


# ---------------------------------------------------------------------------
# drive, sim, initial state

_SINUSOID = dict.fromkeys(("amp_d", "amp_q", "freq_hz", "phase_d", "phase_q"), (_number, 0.0))
_VOLTAGES = {
    "constant": (ConstantVoltage, {"u_d": (_number, 0.0), "u_q": (_number, 0.0)}),
    "sinusoid": (SinusoidVoltage, {**_SINUSOID, "freq_hz": _REQUIRED_NUMBER}),
    "table": (TableVoltage, dict.fromkeys(("times", "u_d", "u_q"), (_number_list, _REQUIRED))),
}
_LOADS = {
    "constant": (ConstantLoad, {"torque": (_number, 0.0)}),
    "linear": (LinearLoad, {"torque_0": (_number, 0.0), "coeff": (_number, 0.0)}),
    "table": (TableLoad, dict.fromkeys(("times", "torque"), (_number_list, _REQUIRED))),
}


def _build_kind(block, path: str, kinds: Dict[str, Tuple[Callable, Dict]], noun: str):
    """A drive part: ``kinds`` maps its ``kind`` (``constant`` when missing or null) to ``(class, keys)``."""
    d = _as_mapping(block, path)
    kind = d.pop("kind", None)
    kind = "constant" if kind is None else kind
    _check(isinstance(kind, str) and kind in kinds, f"{path}.kind", f"unknown {noun} kind {kind!r}")
    make, keys = kinds[kind]
    return _build(make, path, **_read(d, path, keys))


def _build_drive(block, path: str) -> Drive:
    d = _read(block, path, {"voltage": (_any, None), "load": (_any, None)})
    return Drive(
        voltage=_build_kind(d["voltage"], f"{path}.voltage", _VOLTAGES, "voltage"),
        load=_build_kind(d["load"], f"{path}.load", _LOADS, "load"),
    )


_SIM = {
    "dt": (_number, SimConfig.dt),
    "t_end": (_number, SimConfig.t_end),
    "integrator": (_any, SimConfig.integrator),
    "record_stride": (_integer, SimConfig.record_stride),
    "omega_s": (_number, SimConfig.omega_s),
}
_INITIAL = {
    "theta": (_number, 0.0),
    "rho": (_number, None),
    "omega": (_number, None),
    "phi": (_number_list, None),
}


def _build_initial(block, path: str, model: EnergyModel) -> MachineState:
    s = _read(block, path, _INITIAL)
    rho, omega, phi = s["rho"], s["omega"], s["phi"]
    _check(rho is None or omega is None, path, "give at most one of rho / omega")
    if omega is not None:
        rho = omega / float(model.params.kinetic_coeff)
    if phi is None:
        phi = np.zeros(model.flux_dim)
        phi[0] = _magnet_box(model)[0]
    _check(len(phi) == model.flux_dim, f"{path}.phi", f"expected {model.flux_dim} components")
    return _build(MachineState, path, theta=s["theta"], rho=0.0 if rho is None else rho, phi=phi)


# ---------------------------------------------------------------------------
# analysis sections

_IDENTIFY = {"phi_M": (partial(_magnet_flux, read=_positive), None), "refine_phi_M": (_boolean, False)}
_RIPPLE = {
    "theta_min": (_number, 0.0),
    "theta_max": (_number, 2.0 * math.pi / 3.0),
    "n_points": (_integer, 361),
    "rho": (_number, 0.0),
    "phi": (_number_list, None),
}
_AXIS_POINTS = 21


def _build_ripple(block, path: str) -> Dict[str, Any]:
    out = _read(block, path, _RIPPLE)
    _check(out["n_points"] >= 2, f"{path}.n_points", "need at least 2 grid points")
    _check(out["theta_max"] > out["theta_min"], path, "theta_max must exceed theta_min")
    return out


def _axis(block, path: str, bounds: Tuple[float, float]) -> Tuple[float, float, int]:
    lo, hi = bounds
    a = _read(block, path, {"min": (_number, lo), "max": (_number, hi), "n": (_integer, _AXIS_POINTS)})
    _check(a["max"] > a["min"], path, "max must exceed min")
    _check(a["n"] >= 2, f"{path}.n", "need at least 2 grid points")
    return a["min"], a["max"], a["n"]


def _build_flux_map(block, path: str, model: EnergyModel) -> Dict[str, Any]:
    phi_M, half = _magnet_box(model)
    axes = {"phi_d": (phi_M - half, phi_M + half), "phi_q": (-half, half)}
    keys = {key: (partial(_axis, bounds=b), (*b, _AXIS_POINTS)) for key, b in axes.items()}
    return _read(block, path, keys)


def _build_validate(block, path: str) -> Dict[str, Any]:
    out = _read(block, path, {"n_samples": (_integer, 10_000), "tol": (_positive, 1.0e-10)})
    _check(out["n_samples"] >= 1, f"{path}.n_samples", "need a positive sample count")
    return out


_SWEEP = {"parameter": (_any, _REQUIRED), "values": (_any, _REQUIRED), "workers": (_integer, 1)}


def _build_sweep(block, path: str) -> Optional[Dict[str, Any]]:
    if block is None:
        return None
    out = _read(block, path, _SWEEP)
    parameter, values = out["parameter"], out["values"]
    _check(isinstance(parameter, str) and parameter != "", f"{path}.parameter",
           "expected a dotted key path string")
    _check(isinstance(values, list) and values != [], f"{path}.values", "expected a non-empty list")
    _check(out["workers"] >= 1, f"{path}.workers", "need at least one worker")
    return out


# ---------------------------------------------------------------------------
# top level


def _schema_version(value, path: str) -> int:
    _check(value == SCHEMA_VERSION, path, f"expected {SCHEMA_VERSION}, got {value!r}")
    return value


_TOP = {
    "schema_version": (_schema_version, _REQUIRED),
    "model": (_any, _REQUIRED),
    **dict.fromkeys(("drive", "sim", "initial"), (_any, None)),
    "seed": (_integer, 0),
    **dict.fromkeys(("identify", "ripple", "flux_map", "validate", "sweep"), (_any, None)),
}


class MotorConfig:
    """Validated config: built model, drive, sim settings, analysis sections.

    ``raw`` keeps the original mapping so sweeps can re-derive configs by
    overriding single keys and re-validating.
    """

    def __init__(self, raw: Dict[str, Any]):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a mapping")
        self.raw = raw
        top = _read(raw, "", _TOP)
        self.model_kind = _as_mapping(top["model"], "model").get("kind")
        self.model = _build(_build_model, "model", block=top["model"], path="model")
        self.drive = _build_drive(top["drive"], "drive")
        self.sim = _build(SimConfig, "sim", **_read(top["sim"], "sim", _SIM))
        self.initial = _build_initial(top["initial"], "initial", self.model)
        self.seed = top["seed"]
        self.identify = _read(top["identify"], "identify", _IDENTIFY)
        self.ripple = _build_ripple(top["ripple"], "ripple")
        self.flux_map = _build_flux_map(top["flux_map"], "flux_map", self.model)
        self.validate = _build_validate(top["validate"], "validate")
        self.sweep = _build_sweep(top["sweep"], "sweep")


# libyaml's parser, where PyYAML was built with it, reads a config about
# five times faster than the pure-Python one, into the same mapping
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> MotorConfig:
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r") as f:
            raw = yaml.load(f, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: not valid YAML: {e}") from e
    if raw is None:
        raise ConfigError(f"{path}: empty config")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return MotorConfig(raw)
