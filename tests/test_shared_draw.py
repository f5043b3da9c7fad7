"""The checks of one set share their draw and base energy, and no report shows it.

Each check of an int seed reuses the latest draw of the same box, seed and
count, and the H-identity checks reuse H at that draw for the same model.
Every report, each field as hex, is the same whatever ran before it.  The
table model's column-wise reciprocity probes, and its box check without
|x| arrays, are pinned here too.
"""

import math
import warnings

import numpy as np
import pytest

from enermach import validate
from enermach.config import load_config
from enermach.energy import LinearPmsmEnergy, linear_energy
from enermach.saturation import SaturationRangeWarning, saturated_energy
from enermach.validate import (
    SampleBox,
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
)
from helpers import CONFIG_DIR, ipm_linear_params, ipm_saturation

SHIPPED = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))


def _checks(cfg):
    if cfg.model.flux_dim == 4:
        return [check_reciprocity, check_im_rotation]
    checks = [check_reciprocity, check_period, check_parity]
    return checks + [check_synrm_evenness] if cfg.model_kind == "synrm" else checks


def _hex(report):
    point = ",".join(f"{k}={v.hex()}" for k, v in report.worst_point.items())
    floats = (report.tolerance, report.max_abs, report.scale, report.max_rel)
    return (report.name, report.samples, *(v.hex() for v in floats), report.passed, point)


def _alone(check, m, **kwargs):
    validate._last = (None,) * 7
    return _hex(check(m, **kwargs))


def _box(dim):
    return SampleBox(np.linspace(-0.3, 0.2, dim), np.linspace(0.05, 0.7, dim), 1.3, 7.0)


@pytest.fixture(scope="module")
def configs():
    return {name: load_config(CONFIG_DIR / f"{name}.yaml") for name in SHIPPED}


@pytest.mark.filterwarnings("ignore::enermach.saturation.SaturationRangeWarning")
@pytest.mark.parametrize("name", SHIPPED)
def test_a_report_is_the_same_whatever_ran_before_it(configs, name):
    cfg, other = configs[name], configs[SHIPPED[SHIPPED.index(name) - 1]]
    m, checks = cfg.model, _checks(cfg)
    for box in (None, _box(m.flux_dim)):
        kwargs = dict(n_samples=2049, seed=3, box=box)
        alone = [_alone(c, m, **kwargs) for c in checks]
        assert [_hex(c(m, **kwargs)) for c in checks] == alone
        assert [_hex(c(m, **kwargs)) for c in reversed(checks)] == alone[::-1]
        # each check after one of another model, box or seed
        interleaved = []
        for c, o in zip(checks, [*_checks(other)] * len(checks)):
            o(other.model, n_samples=2049, seed=3)
            c(m, n_samples=2049, seed=9, box=box)
            interleaved.append(_hex(c(m, **kwargs)))
            c(m, n_samples=7, seed=3, box=box)
        assert interleaved == alone


def test_the_rotation_check_continues_the_stream_after_a_shared_draw(configs):
    m = configs["im_2kw"].model
    alone = _alone(check_im_rotation, m, n_samples=2049, seed=3)
    check_reciprocity(m, n_samples=2049, seed=3)
    assert _hex(check_im_rotation(m, n_samples=2049, seed=3)) == alone


def test_a_box_mutated_in_place_is_drawn_again(configs):
    m = configs["linear_ipm"].model
    box = _box(2)
    before = _hex(check_period(m, n_samples=2049, seed=3, box=box))
    box.phi_center[0] += 0.125
    after = _hex(check_period(m, n_samples=2049, seed=3, box=box))
    assert after != before
    assert after == _alone(check_period, m, n_samples=2049, seed=3, box=box)


def test_a_kept_draw_is_read_only(configs):
    _, theta, rho, phi = validate._draw(configs["synrm"].model, None, 3, 7)
    assert not any(a.flags.writeable for a in (theta, rho, phi))


class _BrokenCurrents(LinearPmsmEnergy):
    """i_q picks up 1e-3 * phi_d with no matching term in i_d."""

    def d_flux(self, theta, rho, phi):
        i = super().d_flux(theta, rho, phi)
        i[..., 1] += 1.0e-3 * np.asarray(phi)[..., 0]
        return i


def test_a_table_model_with_its_own_currents_is_probed_through_them():
    assert check_reciprocity(linear_energy(ipm_linear_params()), n_samples=2049).passed
    report = check_reciprocity(_BrokenCurrents(ipm_linear_params()), n_samples=2049)
    assert not report.passed and report.max_abs > 1.0e-4


def test_a_generator_seed_is_drawn_from_and_never_kept(configs):
    m = configs["harmonic_ipm"].model
    validate._last = (None,) * 7
    rng = np.random.default_rng(3)
    first = _hex(check_parity(m, n_samples=2049, seed=rng))
    # the generator moved on, so the same object draws other samples
    second = _hex(check_parity(m, n_samples=2049, seed=rng))
    assert validate._last[0] is None
    fresh = np.random.default_rng(3)
    fresh.uniform(size=4 * 2049)
    assert second != first
    assert second == _hex(check_parity(m, n_samples=2049, seed=fresh))
    assert first == _alone(check_parity, m, n_samples=2049, seed=3)


_BOX_WARNING = (
    "flux deviation {} Wb exceeds the saturation model's fitted range |x|,|y| <= {:.4g} Wb"
)


@pytest.mark.parametrize(
    "phi_d, phi_q, worst",
    [
        (math.nan, 0.0, None),
        (math.inf, 0.0, "inf"),
        (-math.inf, 0.0, "inf"),
        (0.0, math.nan, None),
        (1.0, math.nan, "0.804"),
        (0.0, math.inf, "inf"),
        (0.0, -math.inf, "inf"),
        (math.nan, math.nan, None),
        (math.nan, math.inf, None),
        (-math.inf, math.nan, "inf"),
        (math.inf, -math.inf, "inf"),
    ],
)
def test_the_box_check_of_a_batch_with_non_finite_flux(phi_d, phi_q, worst):
    m = saturated_energy(ipm_saturation())
    phi = np.array([[m.params.phi_M, 0.0], [phi_d, phi_q], [m.params.phi_M, 0.01]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m.evaluate(np.zeros(3), np.zeros(3), phi)
    messages = [str(w.message) for w in caught if w.category is SaturationRangeWarning]
    assert messages == ([] if worst is None else [_BOX_WARNING.format(worst, m.params.phi_M)])
