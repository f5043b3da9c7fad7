"""SampleBox rejects NaN and infinite fields by name."""

import math

import numpy as np
import pytest

from enermach.validate import SampleBox

FIELDS = {"phi_center": [0.1, 0.0], "phi_half": [0.1, 0.2], "theta_half": 1.0, "rho_half": 1.0}


def _with(name, bad):
    values = dict(FIELDS)
    values[name] = [bad, 0.2] if isinstance(values[name], list) else bad
    return values


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FIELDS)
def test_non_finite_field_is_rejected_by_name(name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        SampleBox(**_with(name, bad))


def test_finite_box_draws_inside_its_ranges():
    box = SampleBox(**FIELDS)
    theta, rho, phi = box.draw(np.random.default_rng(0), 100)
    assert np.all(np.abs(theta) <= 1.0) and np.all(np.abs(rho) <= 1.0)
    assert np.all(np.abs(phi - box.phi_center) <= box.phi_half)
