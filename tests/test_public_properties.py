"""Properties of the public identify and validate functions, and the input
rules of frames, identify and the validate config block.

* A fit does not depend on the unit of the sample weights: scaling every
  weight by one positive constant moves no coefficient by more than 1e-12
  relative.
* A check's tolerance is only compared with its result: changing ``tol``
  changes a report's ``tolerance`` and ``passed`` and no other bit.
* The reciprocity check's central differences are symmetric in the sign of
  ``fd_step``: both signs give the same report, field by field.
* A non-finite frame angle, a NaN or infinite noise level, a non-finite
  phi_M given to the fit and a non-positive ``validate.tol`` are each
  rejected where they enter, by name.
"""

import dataclasses
import math

import numpy as np
import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from enermach.config import ConfigError, MotorConfig  # noqa: E402
from enermach.frames import (  # noqa: E402
    OrthTriple,
    PhaseTriple,
    RotTriple,
    inv_park,
    k_matrix,
    k_transform,
    park,
    rotation,
    rotation2,
)
from enermach.energy import linear_energy, synrm_energy  # noqa: E402
from enermach.harmonics import harmonic_energy  # noqa: E402
from enermach.identify import PARAM_NAMES, fit_saturation, generate_synthetic  # noqa: E402
from enermach.induction import ImEnergy  # noqa: E402
from enermach.saturation import saturated_energy  # noqa: E402
from enermach.validate import (  # noqa: E402
    CheckReport,
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
)

from helpers import (  # noqa: E402
    CONFIG_DIR,
    IPM_PHI_M,
    im_params,
    ipm_harmonic_model,
    ipm_linear_params,
    ipm_saturation,
    synrm_params,
)

deterministic = settings(derandomize=True, database=None, deadline=None)

NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


# ---------------------------------------------------------------------------
# identify: the weights' unit

_GRID = generate_synthetic(
    ipm_saturation(), IPM_PHI_M + np.linspace(-0.15, 0.15, 6), np.linspace(-0.15, 0.15, 5), noise=1.0e-3, seed=4
)
_WEIGHTS = np.random.default_rng(4).uniform(0.2, 5.0, len(_GRID))


def _fit(scale: float):
    samples = [dataclasses.replace(s, weight=float(w * scale)) for s, w in zip(_GRID, _WEIGHTS)]
    return fit_saturation(samples, IPM_PHI_M).coefficients


_REFERENCE_FIT = _fit(1.0)


@deterministic
@given(scale=st.floats(1.0e-6, 1.0e6))
def test_scaling_every_weight_by_one_constant_moves_no_coefficient(scale):
    fitted = _fit(scale)
    for name in PARAM_NAMES:
        a, b = getattr(_REFERENCE_FIT, name), getattr(fitted, name)
        assert abs(b - a) <= 1.0e-12 * abs(a), (name, a, b)


# ---------------------------------------------------------------------------
# validate: the tolerance and the sign of the difference step

HARMONIC = harmonic_energy(ipm_harmonic_model())
CHECKS = {
    "reciprocity": (check_reciprocity, HARMONIC),
    "period": (check_period, HARMONIC),
    "parity": (check_parity, saturated_energy(ipm_saturation())),
    "synrm_evenness": (check_synrm_evenness, synrm_energy(synrm_params())),
    "im_rotation": (check_im_rotation, im_params()),
}


def _bits(value):
    """A report field in a form that compares equal only bit for bit."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    return value


def _fields(report: CheckReport, leave_out=()) -> dict:
    return {f.name: _bits(getattr(report, f.name)) for f in dataclasses.fields(report) if f.name not in leave_out}


@deterministic
@given(
    name=st.sampled_from(sorted(CHECKS)),
    tols=st.lists(st.floats(1.0e-300, 1.0e300), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_tolerance_changes_only_tolerance_and_passed(name, tols, seed):
    check, model = CHECKS[name]
    a, b = (check(model, n_samples=64, tol=tol, seed=seed) for tol in tols)
    assert _fields(a, ("tolerance", "passed")) == _fields(b, ("tolerance", "passed"))
    for report, tol in zip((a, b), tols):
        assert report.tolerance == tol
        assert report.passed == (report.max_rel < tol)


RECIPROCITY_MODELS = {
    "linear": linear_energy(ipm_linear_params()),
    "harmonic": HARMONIC,
    "induction": ImEnergy(im_params()),
}


@deterministic
@given(
    name=st.sampled_from(sorted(RECIPROCITY_MODELS)),
    fd_step=st.floats(1.0e-7, 1.0e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_reciprocity_report_does_not_depend_on_the_sign_of_the_step(name, fd_step, seed):
    model = RECIPROCITY_MODELS[name]
    forward, backward = (check_reciprocity(model, n_samples=64, seed=seed, fd_step=h) for h in (fd_step, -fd_step))
    assert _fields(forward) == _fields(backward)


# ---------------------------------------------------------------------------
# the input rules

TRANSFORMS = {
    "rotation": rotation,
    "rotation2": rotation2,
    "k_matrix": k_matrix,
    "park": lambda theta: park(OrthTriple(1.0, 2.0, 3.0), theta),
    "inv_park": lambda theta: inv_park(RotTriple(1.0, 2.0, 3.0, 0.0), theta),
    "k_transform": lambda theta: k_transform(PhaseTriple(1.0, 2.0, 3.0), theta),
}


@deterministic
@given(name=st.sampled_from(sorted(TRANSFORMS)), theta=NOT_FINITE)
def test_every_frame_transform_names_a_non_finite_angle(name, theta):
    with pytest.raises(ValueError, match=f"^theta must be finite, got {theta}$"):
        TRANSFORMS[name](theta)


@deterministic
@given(noise=st.sampled_from([math.nan, math.inf]))
def test_synthetic_samples_name_a_nan_or_infinite_noise(noise):
    with pytest.raises(ValueError, match=f"^noise must be finite and non-negative, got {noise}$"):
        generate_synthetic(ipm_saturation(), [0.2], [0.0], noise=noise)


@deterministic
@given(phi_M=NOT_FINITE)
def test_the_fit_names_a_non_finite_phi_m_before_the_solve(phi_M):
    with pytest.raises(ValueError, match=f"^phi_M must be finite, got {phi_M}$"):
        fit_saturation(_GRID, phi_M)


with open(CONFIG_DIR / "synrm.yaml") as f:
    _SYNRM = yaml.safe_load(f)


@deterministic
@given(tol=st.one_of(st.integers(max_value=0), st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)))
def test_a_non_positive_validate_tol_is_rejected_at_load(tol):
    raw = {**_SYNRM, "validate": {**_SYNRM.get("validate", {}), "tol": tol}}
    with pytest.raises(ConfigError) as e:
        MotorConfig(raw)
    assert str(e.value) == f"validate.tol: expected a positive number, got {tol!r}"
