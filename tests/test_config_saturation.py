"""The saturation block of a config: required keys, defaults and unknown keys."""

import pytest
import yaml

from enermach.config import ConfigError, MotorConfig
from enermach.saturation import SCALED_KEYS
from helpers import CONFIG_DIR

CPATH = "model.saturation.coefficients"
RAW_KEYS = ("inv_L_d", "inv_L_q", "alpha_30", "alpha_12", "alpha_40", "alpha_22", "alpha_04")
ALPHAS = RAW_KEYS[2:]


def _raw(scaled: bool) -> dict:
    """The shipped saturated_ipm config, with its coefficients in raw form unless ``scaled``."""
    with open(CONFIG_DIR / "saturated_ipm.yaml") as f:
        raw = yaml.safe_load(f)
    if not scaled:
        c = MotorConfig(raw).model.params
        raw["model"]["saturation"] = {
            "scaled": False,
            "coefficients": {key: getattr(c, key) for key in RAW_KEYS},
        }
    return raw


def _coefficients(raw: dict) -> dict:
    return raw["model"]["saturation"]["coefficients"]


@pytest.mark.parametrize("key", SCALED_KEYS)
def test_every_scaled_key_is_required(key):
    raw = _raw(scaled=True)
    del _coefficients(raw)[key]
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == f"{CPATH}.{key}: required key is missing"


@pytest.mark.parametrize("key", RAW_KEYS[:2])
def test_raw_inverse_inductances_are_required(key):
    raw = _raw(scaled=False)
    del _coefficients(raw)[key]
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == f"{CPATH}.{key}: required key is missing"


@pytest.mark.parametrize("key", ALPHAS)
def test_raw_alphas_default_to_zero(key):
    missing, explicit = _raw(scaled=False), _raw(scaled=False)
    del _coefficients(missing)[key]
    _coefficients(explicit)[key] = 0.0
    a, b = MotorConfig(missing).model, MotorConfig(explicit).model
    assert getattr(a.params, key) == 0.0
    assert a.params == b.params
    phi = [0.25, -0.05]
    assert a.evaluate(0.0, 0.0, phi) == b.evaluate(0.0, 0.0, phi)
    assert a.d_flux(0.0, 0.0, phi).tolist() == b.d_flux(0.0, 0.0, phi).tolist()


@pytest.mark.parametrize("scaled", [True, False])
def test_unknown_coefficient_key_is_rejected_by_name(scaled):
    raw = _raw(scaled)
    _coefficients(raw)["alpha_31"] = 0.5
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == f"{CPATH}: unknown key(s): alpha_31"


@pytest.mark.parametrize("scaled", [True, False])
def test_the_other_form_s_keys_are_unknown(scaled):
    raw = _raw(scaled)
    other = RAW_KEYS[0] if scaled else SCALED_KEYS[0]
    _coefficients(raw)[other] = 1.0
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == f"{CPATH}: unknown key(s): {other}"
