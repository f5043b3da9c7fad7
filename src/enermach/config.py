"""Config file schema and builders for the command-line tools.

Configs are YAML mappings, versioned by a required ``schema_version`` key.
Validation is strict: unknown keys are rejected, every complaint carries
the dotted path of the offending key, and model parameters are checked by
constructing the real parameter objects (so the rules live in one place).
All units are SI; publication-scaled saturation coefficients are accepted
only behind an explicit ``scaled: true`` flag.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields
from typing import Any, Dict, List, Optional, Tuple

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
    EnergyModel,
    LinearPmsmParams,
    MachineState,
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

MODEL_KINDS = ("linear_pmsm", "synrm", "saturated_pmsm", "harmonic_pmsm", "linear_im")

class ConfigError(ValueError):
    """Config rejected; the message carries the dotted key path."""


def _fail(path: str, message: str) -> "ConfigError":
    return ConfigError(f"{path}: {message}" if path else message)


def _as_mapping(value, path: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _fail(path, "expected a mapping")
    return dict(value)


def _reject_unknown(d: Dict[str, Any], path: str) -> None:
    if d:
        keys = ", ".join(sorted(str(k) for k in d))
        raise _fail(path, f"unknown key(s): {keys}")


def _take(d: Dict[str, Any], key: str, path: str, required: bool = False, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise _fail(f"{path}.{key}" if path else key, "required key is missing")
    return default


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

def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(path, f"expected true/false, got {value!r}")
    return value


def _number_list(value, path: str) -> List[float]:
    if not isinstance(value, (list, tuple)):
        raise _fail(path, "expected a list of numbers")
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _take_number(d, key, path, required=False, default=None) -> Optional[float]:
    value = _take(d, key, path, required=required)
    if value is None:
        return default
    return _number(value, f"{path}.{key}" if path else key)


def _take_integer(d, key, path, required=False, default=None) -> Optional[int]:
    value = _take(d, key, path, required=required)
    if value is None:
        return default
    return _integer(value, f"{path}.{key}" if path else key)


# ---------------------------------------------------------------------------
# model block


def _kinetic(d: Dict[str, Any], path: str, n_p: int) -> float:
    inertia = _take_number(d, "inertia", path)
    kinetic_coeff = _take_number(d, "kinetic_coeff", path)
    convention = _take(d, "kinetic_convention", path, default="mechanical")
    if (inertia is None) == (kinetic_coeff is None):
        raise _fail(path, "give exactly one of inertia / kinetic_coeff")
    if kinetic_coeff is not None:
        if convention != "mechanical":
            raise _fail(f"{path}.kinetic_convention", "only applies with inertia")
        return kinetic_coeff
    try:
        return kinetic_coefficient(inertia, n_p, convention)
    except ValueError as e:
        raise _fail(path, str(e)) from e


def _saturation_block(d, path: str, phi_M: float, kinetic_coeff: float, n_p: int, R_s: float):
    block = _as_mapping(_take(d, "saturation", path, required=True), f"{path}.saturation")
    spath = f"{path}.saturation"
    scaled = _boolean(_take(block, "scaled", spath, required=True), f"{spath}.scaled")
    coeffs = _as_mapping(
        _take(block, "coefficients", spath, required=True), f"{spath}.coefficients"
    )
    _reject_unknown(block, spath)
    cpath = f"{spath}.coefficients"
    # every scaled key is required; a raw key is required where its field has no default
    no_default = {f.name for f in fields(SaturationCoefficients) if f.default is MISSING}
    values = {}
    for name, key, _, _, _ in _QUARTIC:
        key = key if scaled else name
        if scaled or name in no_default:
            values[key] = _number(_take(coeffs, key, cpath, required=True), f"{cpath}.{key}")
        else:
            values[key] = _take_number(coeffs, key, cpath, default=0.0)
    _reject_unknown(coeffs, cpath)
    build = SaturationCoefficients.from_scaled if scaled else SaturationCoefficients
    try:
        return build(phi_M=phi_M, kinetic_coeff=kinetic_coeff, n_p=n_p, R_s=R_s, **values)
    except ValueError as e:
        raise _fail(cpath, str(e)) from e


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
    return FluxPolynomial(coeffs)


def _harmonic_terms(d, path: str) -> Tuple[HarmonicTerm, ...]:
    raw = _take(d, "harmonics", path, default=[])
    if not isinstance(raw, list):
        raise _fail(f"{path}.harmonics", "expected a list of harmonic terms")
    terms = []
    for idx, item in enumerate(raw):
        tpath = f"{path}.harmonics[{idx}]"
        block = _as_mapping(item, tpath)
        k = _take_integer(block, "k", tpath, required=True)
        a = _poly(_take(block, "a", tpath, default={}), f"{tpath}.a")
        b = _poly(_take(block, "b", tpath, default={}), f"{tpath}.b")
        _reject_unknown(block, tpath)
        try:
            terms.append(HarmonicTerm(k=k, a_poly=a, b_poly=b))
        except ValueError as e:
            raise _fail(tpath, str(e)) from e
    return tuple(terms)


def _zero_axis(d, path: str) -> Optional[ZeroAxisSeries]:
    raw = _take(d, "zero_axis", path)
    if raw is None:
        return None
    block = _as_mapping(raw, f"{path}.zero_axis")
    cos = _number_list(_take(block, "cos", f"{path}.zero_axis", default=[]), f"{path}.zero_axis.cos")
    sin = _number_list(_take(block, "sin", f"{path}.zero_axis", default=[]), f"{path}.zero_axis.sin")
    _reject_unknown(block, f"{path}.zero_axis")
    return ZeroAxisSeries(cos_coeffs=tuple(cos), sin_coeffs=tuple(sin))


def _build_model(block: Dict[str, Any], path: str) -> EnergyModel:
    d = dict(block)
    kind = _take(d, "kind", path, required=True)
    if kind not in MODEL_KINDS:
        raise _fail(f"{path}.kind", f"unknown model kind {kind!r}; use one of {MODEL_KINDS}")
    n_p = _take_integer(d, "n_p", path, required=True)
    r_s = _take_number(d, "R_s", path, required=True)
    try:
        if kind == "linear_im":
            params = ImParams(
                L_s=_take_number(d, "L_s", path, required=True),
                L_r=_take_number(d, "L_r", path, required=True),
                L_m=_take_number(d, "L_m", path, required=True),
                R_s=r_s,
                R_r=_take_number(d, "R_r", path, required=True),
                kinetic_coeff=_kinetic(d, path, n_p),
                n_p=n_p,
            )
            _reject_unknown(d, path)
            return im_energy(params)
        kappa = _kinetic(d, path, n_p)
        if kind in ("linear_pmsm", "synrm"):
            phi_M = _take_number(d, "phi_M", path, default=0.0)
            params = LinearPmsmParams(
                L_d=_take_number(d, "L_d", path, required=True),
                L_q=_take_number(d, "L_q", path, required=True),
                phi_M=phi_M,
                kinetic_coeff=kappa,
                n_p=n_p,
                R_s=r_s,
            )
            _reject_unknown(d, path)
            return synrm_energy(params) if kind == "synrm" else linear_energy(params)
        phi_M = _take_number(d, "phi_M", path, required=True)
        coeffs = _saturation_block(d, path, phi_M, kappa, n_p, r_s)
        if kind == "saturated_pmsm":
            _reject_unknown(d, path)
            return saturated_energy(coeffs)
        terms = _harmonic_terms(d, path)
        zero = _zero_axis(d, path)
        _reject_unknown(d, path)
        return harmonic_energy(HarmonicModel(base=coeffs, terms=terms, zero_axis=zero))
    except ConfigError:
        raise
    except ValueError as e:
        raise _fail(path, str(e)) from e


# ---------------------------------------------------------------------------
# drive, sim, initial state


def _build_voltage(block, path: str):
    d = _as_mapping(block, path)
    kind = _take(d, "kind", path, default="constant")
    try:
        if kind == "constant":
            v = ConstantVoltage(
                u_d=_take_number(d, "u_d", path, default=0.0),
                u_q=_take_number(d, "u_q", path, default=0.0),
            )
        elif kind == "sinusoid":
            v = SinusoidVoltage(
                amp_d=_take_number(d, "amp_d", path, default=0.0),
                amp_q=_take_number(d, "amp_q", path, default=0.0),
                freq_hz=_take_number(d, "freq_hz", path, required=True),
                phase_d=_take_number(d, "phase_d", path, default=0.0),
                phase_q=_take_number(d, "phase_q", path, default=0.0),
            )
        elif kind == "table":
            v = TableVoltage(
                times=tuple(_number_list(_take(d, "times", path, required=True), f"{path}.times")),
                u_d=tuple(_number_list(_take(d, "u_d", path, required=True), f"{path}.u_d")),
                u_q=tuple(_number_list(_take(d, "u_q", path, required=True), f"{path}.u_q")),
            )
        else:
            raise _fail(f"{path}.kind", f"unknown voltage kind {kind!r}")
    except ConfigError:
        raise
    except ValueError as e:
        raise _fail(path, str(e)) from e
    _reject_unknown(d, path)
    return v


def _build_load(block, path: str):
    d = _as_mapping(block, path)
    kind = _take(d, "kind", path, default="constant")
    try:
        if kind == "constant":
            load = ConstantLoad(torque=_take_number(d, "torque", path, default=0.0))
        elif kind == "linear":
            load = LinearLoad(
                torque_0=_take_number(d, "torque_0", path, default=0.0),
                coeff=_take_number(d, "coeff", path, default=0.0),
            )
        elif kind == "table":
            load = TableLoad(
                times=tuple(_number_list(_take(d, "times", path, required=True), f"{path}.times")),
                torque=tuple(
                    _number_list(_take(d, "torque", path, required=True), f"{path}.torque")
                ),
            )
        else:
            raise _fail(f"{path}.kind", f"unknown load kind {kind!r}")
    except ConfigError:
        raise
    except ValueError as e:
        raise _fail(path, str(e)) from e
    _reject_unknown(d, path)
    return load


def _build_drive(block, path: str) -> Drive:
    d = _as_mapping(block, path)
    voltage = _build_voltage(_take(d, "voltage", path, default={}), f"{path}.voltage")
    load = _build_load(_take(d, "load", path, default={}), f"{path}.load")
    _reject_unknown(d, path)
    return Drive(voltage=voltage, load=load)


def _build_sim(block, path: str) -> SimConfig:
    d = _as_mapping(block, path)
    defaults = SimConfig()
    integrator = _take(d, "integrator", path, default=defaults.integrator)
    try:
        cfg = SimConfig(
            dt=_take_number(d, "dt", path, default=defaults.dt),
            t_end=_take_number(d, "t_end", path, default=defaults.t_end),
            integrator=integrator,
            record_stride=_take_integer(d, "record_stride", path, default=defaults.record_stride),
            omega_s=_take_number(d, "omega_s", path, default=defaults.omega_s),
        )
    except ConfigError:
        raise
    except ValueError as e:
        raise _fail(path, str(e)) from e
    _reject_unknown(d, path)
    return cfg


def _default_flux(model: EnergyModel) -> np.ndarray:
    phi = np.zeros(model.flux_dim)
    phi[0] = float(getattr(model.params, "phi_M", 0.0))
    return phi


def _build_initial(block, path: str, model: EnergyModel) -> MachineState:
    d = _as_mapping(block, path)
    theta = _take_number(d, "theta", path, default=0.0)
    rho = _take_number(d, "rho", path)
    omega = _take_number(d, "omega", path)
    if rho is not None and omega is not None:
        raise _fail(path, "give at most one of rho / omega")
    if omega is not None:
        kappa = float(model.params.kinetic_coeff)
        rho = omega / kappa
    if rho is None:
        rho = 0.0
    phi_raw = _take(d, "phi", path)
    _reject_unknown(d, path)
    if phi_raw is None:
        phi = _default_flux(model)
    else:
        phi = np.array(_number_list(phi_raw, f"{path}.phi"))
        if phi.shape != (model.flux_dim,):
            raise _fail(f"{path}.phi", f"expected {model.flux_dim} components")
    return MachineState(theta, rho, phi)


# ---------------------------------------------------------------------------
# analysis sections


def _build_identify(block, path: str) -> Dict[str, Any]:
    d = _as_mapping(block, path)
    out = {
        "phi_M": _take_number(d, "phi_M", path),
        "refine_phi_M": _boolean(
            _take(d, "refine_phi_M", path, default=False), f"{path}.refine_phi_M"
        ),
    }
    _reject_unknown(d, path)
    return out


def _build_ripple(block, path: str) -> Dict[str, Any]:
    d = _as_mapping(block, path)
    out = {
        "theta_min": _take_number(d, "theta_min", path, default=0.0),
        "theta_max": _take_number(d, "theta_max", path, default=2.0 * math.pi / 3.0),
        "n_points": _take_integer(d, "n_points", path, default=361),
        "rho": _take_number(d, "rho", path, default=0.0),
        "phi": _take(d, "phi", path),
    }
    if out["phi"] is not None:
        out["phi"] = _number_list(out["phi"], f"{path}.phi")
    if out["n_points"] < 2:
        raise _fail(f"{path}.n_points", "need at least 2 grid points")
    if not out["theta_max"] > out["theta_min"]:
        raise _fail(path, "theta_max must exceed theta_min")
    _reject_unknown(d, path)
    return out


def _axis_spec(block, path: str, default_min: float, default_max: float) -> Tuple[float, float, int]:
    d = _as_mapping(block, path)
    lo = _take_number(d, "min", path, default=default_min)
    hi = _take_number(d, "max", path, default=default_max)
    n = _take_integer(d, "n", path, default=21)
    _reject_unknown(d, path)
    if not hi > lo:
        raise _fail(path, "max must exceed min")
    if n < 2:
        raise _fail(f"{path}.n", "need at least 2 grid points")
    return lo, hi, n


def _build_flux_map(block, path: str, model: EnergyModel) -> Dict[str, Any]:
    d = _as_mapping(block, path)
    phi_M = float(getattr(model.params, "phi_M", 0.0))
    half = phi_M if phi_M > 0.0 else 0.25
    center = phi_M
    out = {
        "phi_d": _axis_spec(_take(d, "phi_d", path, default={}), f"{path}.phi_d", center - half, center + half),
        "phi_q": _axis_spec(_take(d, "phi_q", path, default={}), f"{path}.phi_q", -half, half),
    }
    _reject_unknown(d, path)
    return out


def _build_validate(block, path: str) -> Dict[str, Any]:
    d = _as_mapping(block, path)
    out = {
        "n_samples": _take_integer(d, "n_samples", path, default=10_000),
        "tol": _take_number(d, "tol", path, default=1.0e-10),
    }
    if out["n_samples"] < 1:
        raise _fail(f"{path}.n_samples", "need a positive sample count")
    _reject_unknown(d, path)
    return out


def _build_sweep(block, path: str) -> Optional[Dict[str, Any]]:
    if block is None:
        return None
    d = _as_mapping(block, path)
    parameter = _take(d, "parameter", path, required=True)
    if not isinstance(parameter, str) or not parameter:
        raise _fail(f"{path}.parameter", "expected a dotted key path string")
    values = _take(d, "values", path, required=True)
    if not isinstance(values, list) or not values:
        raise _fail(f"{path}.values", "expected a non-empty list")
    workers = _take_integer(d, "workers", path, default=1)
    if workers < 1:
        raise _fail(f"{path}.workers", "need at least one worker")
    _reject_unknown(d, path)
    return {"parameter": parameter, "values": values, "workers": workers}


# ---------------------------------------------------------------------------
# top level


class MotorConfig:
    """Validated config: built model, drive, sim settings, analysis sections.

    ``raw`` keeps the original mapping so sweeps can re-derive configs by
    overriding single keys and re-validating.
    """

    def __init__(self, raw: Dict[str, Any]):
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a mapping")
        self.raw = raw
        d = dict(raw)
        version = _take(d, "schema_version", "", required=True)
        if version != SCHEMA_VERSION:
            raise _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
        model_block = _take(d, "model", "", required=True)
        self.model_kind = _as_mapping(model_block, "model").get("kind")
        self.model = _build_model(_as_mapping(model_block, "model"), "model")
        self.drive = _build_drive(_take(d, "drive", "", default={}), "drive")
        self.sim = _build_sim(_take(d, "sim", "", default={}), "sim")
        self.initial = _build_initial(_take(d, "initial", "", default={}), "initial", self.model)
        self.seed = _take_integer(d, "seed", "", default=0)
        self.identify = _build_identify(_take(d, "identify", "", default={}), "identify")
        self.ripple = _build_ripple(_take(d, "ripple", "", default={}), "ripple")
        self.flux_map = _build_flux_map(_take(d, "flux_map", "", default={}), "flux_map", self.model)
        self.validate = _build_validate(_take(d, "validate", "", default={}), "validate")
        self.sweep = _build_sweep(_take(d, "sweep", "", default=None), "sweep")
        _reject_unknown(d, "top level")


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
