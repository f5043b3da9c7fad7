"""The row rule of each sign map in frames.DQ_IDENTITIES against the sampled check.

One angle row trig(w theta) * x**i * y**j, at 1e-3 of the d-axis well, is
added to an otherwise symmetric quartic: ``admits`` says it keeps the
identity exactly when the check of that identity passes on the result.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from enermach.config import load_config
from enermach.energy import PolynomialEnergy
from enermach.frames import DQ_IDENTITIES
from enermach.saturation import _magnet_table
from enermach.validate import check_parity, check_period, check_synrm_evenness
from helpers import CONFIG_DIR

SATURATED = load_config(CONFIG_DIR / "saturated_ipm.yaml").model.params
# no magnet and no odd power of x: even under phi -> -phi
MAGNET_FREE = dataclasses.replace(SATURATED, phi_M=0.0, alpha_30=0.0, alpha_12=0.0)
EXPONENTS = [(i, j) for i in range(5) for j in range(5 - i)]
CHECKS = {
    "period": (check_period, SATURATED),
    "parity": (check_parity, SATURATED),
    "synrm_evenness": (check_synrm_evenness, MAGNET_FREE),
}


def _with_row(c, w, trig, ij):
    coeffs = {ij: 1.0e-3 * 0.5 * c.inv_L_d}
    row = (w, coeffs, {}) if trig == "cos" else (w, {}, coeffs)
    m = PolynomialEnergy(*_magnet_table(c, [row]))
    m.params = c
    return m


@pytest.mark.parametrize("name", CHECKS)
@pytest.mark.parametrize("trig", ["cos", "sin"])
def test_admits_agrees_with_the_sampled_check(name, trig):
    check, base = CHECKS[name]
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for w in range(13):
            for ij in EXPONENTS:
                passed = check(_with_row(base, float(w), trig, ij), n_samples=256).passed
                if DQ_IDENTITIES[name].admits(w, trig, ij) != passed:
                    wrong.append((w, ij, passed))
    assert not wrong


def test_the_evenness_image_negates_the_flux():
    rng = np.random.default_rng(3)
    theta, rho, phi = rng.uniform(-7.0, 7.0, 50), rng.uniform(-3.0, 3.0, 50), rng.uniform(-1.0, 1.0, (50, 2))
    phi[0] = [0.0, -0.0]
    theta_e, rho_e, phi_e = DQ_IDENTITIES["synrm_evenness"].image(theta, rho, phi, None)
    assert theta_e is theta and rho_e is rho
    assert phi_e.tobytes() == (-phi).tobytes()
