"""The array path in blocks of at most energy._BLOCK states.

The kernel methods, torque() and every check_* equal their unblocked
forms bit for bit on both sides of block boundaries, with a NaN or an inf
in the last block only; each check holds a bounded number of bytes per
sample; a box warning names the caller of every public batch entry point;
and a magnet flux whose fourth power leaves the floats is named where it
enters.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

from enermach import energy, validate
from enermach.cli import EXIT_CONFIG, main
from enermach.energy import LinearPmsmParams, linear_energy, synrm_energy, torque
from enermach.harmonics import harmonic_energy, ripple_torque
from enermach.identify import FluxSample, fit_saturation
from enermach.induction import im_energy
from enermach.saturation import (
    SaturationRangeWarning,
    incremental_inductance,
    saturated_currents,
    saturated_energy,
)
from enermach.validate import (
    SampleBox,
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
    default_box,
)
from helpers import (
    CONFIG_DIR,
    _Delegate,
    im_params,
    ipm_harmonic_model,
    ipm_linear_params,
    ipm_saturation,
    reference_check_reciprocity,
    synrm_params,
)

B = energy._BLOCK
SIZES = [B - 1, B, B + 1, 3 * B + 5]

MODELS = {
    "linear": lambda: linear_energy(ipm_linear_params()),
    "synrm": lambda: synrm_energy(synrm_params()),
    "saturated": lambda: saturated_energy(ipm_saturation()),
    "harmonic": lambda: harmonic_energy(ipm_harmonic_model()),
    "induction": lambda: im_energy(im_params()),
}


def test_validate_uses_the_energy_block():
    assert validate._BLOCK is energy._BLOCK == 8192


# ---------------------------------------------------------------------------
# kernel methods and torque against the compiled kernels called once


def _unblocked(m, theta, rho, phi):
    """evaluate, d_flux, d_theta, gradient and torque from one call of each kernel on all states."""
    phi = np.asarray(phi, dtype=float)
    columns = phi.tolist() if phi.ndim == 1 else [phi[..., k] for k in range(m.flux_dim)]
    x = columns[0] - m._phi_M
    shape = np.broadcast_shapes(np.shape(theta), np.shape(rho), np.shape(x))
    args = (theta, x, *columns[1:], np.zeros(shape))
    rho = np.asarray(rho, dtype=float)
    (h,) = m._energy_kernel(*args)
    i = np.stack(m._current_kernel(*args), axis=-1)
    (h_theta,) = m._angle_kernel(*args)
    *g, g_theta = m._gradient_kernel(*args)
    g = np.stack(g, axis=-1)
    t = energy._torque(m.pole_pairs, g_theta, g[..., 0], g[..., 1], phi[..., 0], phi[..., 1])
    return {
        "evaluate": 0.5 * m._kappa * (rho * rho) + h,
        "d_flux": i,
        "d_theta": h_theta,
        "gradient": (g, m._kappa * rho, g_theta),
        "torque": t,
    }


def _blocked(m, theta, rho, phi):
    return {
        "evaluate": m.evaluate(theta, rho, phi),
        "d_flux": m.d_flux(theta, rho, phi),
        "d_theta": m.d_theta(theta, rho, phi),
        "gradient": m.gradient(theta, rho, phi),
        "torque": torque(m, theta, rho, phi),
    }


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    a = np.asarray(value)
    return a.dtype, a.shape, a.tobytes()


def _states(m, n, seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-0.6, 0.6, (n, m.flux_dim))
    theta = rng.uniform(-7.0, 7.0, n)
    rho = rng.uniform(-2.0, 2.0, n)
    # non-finite flux in the last block only
    phi[-1, 0] = np.nan
    phi[-3, 1] = np.inf
    phi[-4, 0] = -np.inf
    return theta, rho, phi


def _assert_same(m, theta, rho, phi):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", SaturationRangeWarning)
        want, got = _unblocked(m, theta, rho, phi), _blocked(m, theta, rho, phi)
    for method in want:
        assert _bits(got[method]) == _bits(want[method]), method


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", MODELS)
def test_kernel_methods_equal_one_kernel_call_at_block_boundaries(kind, n):
    m = MODELS[kind]()
    theta, rho, phi = _states(m, n, n)
    _assert_same(m, theta, rho, phi)
    # one flux over an angle grid (as ripple_torque takes it), and a float momentum
    _assert_same(m, theta, 0.25, phi[0])


@pytest.mark.parametrize("n", SIZES)
def test_incremental_inductance_equals_one_kernel_call_at_block_boundaries(n):
    c = ipm_saturation()
    m = saturated_energy(c)
    _, _, phi = _states(m, n, n)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", SaturationRangeWarning)
        dd, dq, qq = m._hessian_kernel(0.0, phi[:, 0] - c.phi_M, phi[:, 1], np.zeros(n))
        got = incremental_inductance(c, phi)
    want = np.stack([np.stack([dd, dq], axis=-1), np.stack([dq, qq], axis=-1)], axis=-2)
    assert _bits(got) == _bits(want) and got.strides == want.strides


@pytest.mark.parametrize("kind", ["harmonic", "induction"])
def test_batches_of_several_axes_are_cut_along_their_trailing_axes(kind):
    m = MODELS[kind]()
    theta, rho, phi = _states(m, 3 * B, 5)
    dim = m.flux_dim
    # rows longer than half a block: both rows a block, cut along them; theta broadcasts along the rows
    _assert_same(m, theta[: B + 3], rho[: B + 3], phi[: 2 * (B + 3)].reshape(2, B + 3, dim))
    # rows shorter than a block: all rows a block, cut along them, theta a column
    _assert_same(m, theta[:5, None], 0.0, phi[: 5 * 3000].reshape(5, 3000, dim))
    # more rows than a block holds: each block is part of one column
    _assert_same(m, theta[: B + 5, None], 0.0, phi[: 2 * (B + 5)].reshape(B + 5, 2, dim))
    # a batch axis of length 1 that broadcasts
    _assert_same(m, theta.reshape(3, B), rho[:B], phi[:B].reshape(1, B, dim))


def test_a_theta_along_the_last_axis_takes_one_pass_of_the_trig(monkeypatch):
    m = MODELS["harmonic"]()
    theta, rho, phi = _states(m, 3000, 2)
    seen = []
    real = np.cos

    def cos(x, *args, **kwargs):
        seen.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(energy.np, "cos", cos)
    # the layout of reciprocity's probes: theta runs along the last of (sign, step, direction, sample)
    probes = np.broadcast_to(phi.T[:, None, None, None, :], (2, 2, 2, 2, 3000)).copy()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", SaturationRangeWarning)
        m.d_flux(theta, rho, np.moveaxis(probes, 0, -1))
    assert sum(seen) == 3000 * len(ipm_harmonic_model().terms)


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::enermach.saturation.SaturationRangeWarning")
def test_the_kernel_runs_on_blocks_of_at_most_the_block_size():
    m = MODELS["harmonic"]()
    calls = []
    kernel = m._gradient_kernel

    def counting(theta, *args):
        calls.append(np.shape(args[-1]))
        return kernel(theta, *args)

    m.__dict__["_gradient_kernel"] = counting
    theta, rho, phi = _states(m, 3 * B + 5, 1)
    m.gradient(theta, rho, phi)
    assert calls == [(B,), (B,), (B,), (5,)]
    calls.clear()
    m.gradient(theta[:B], rho[:B], phi[:B])
    assert calls == [(B,)]


# ---------------------------------------------------------------------------
# every check against its unblocked form


class _Spoiled(_Delegate):
    """H and the currents are ``value`` where phi_d equals ``at``."""

    def __init__(self, inner, at, value):
        super().__init__(inner)
        self.at, self.value = at, value

    def _spoil(self, out, phi):
        out = np.array(out, dtype=float)
        out[np.asarray(phi)[..., 0] == self.at] = self.value
        return out

    def evaluate(self, theta, rho, phi):
        return self._spoil(self.inner.evaluate(theta, rho, phi), phi)

    def d_flux(self, theta, rho, phi):
        return self._spoil(self.inner.d_flux(theta, rho, phi), phi)


def _h_report(name, tol, theta, rho, phi, h1, h2):
    diff = np.abs(h1 - h2)
    worst = int(np.argmax(diff))
    scale = max(float(np.max(np.abs(h1))), float(np.max(np.abs(h2))), 1.0e-30)
    point = {"theta": float(theta[worst]), "rho": float(rho[worst])}
    point.update({f"phi_{k}": float(phi[worst, k]) for k in range(phi.shape[1])})
    max_rel = float(diff[worst]) / scale
    return validate.CheckReport(name, theta.size, tol, float(diff[worst]), scale, max_rel, max_rel < tol, point)


def _rotated(phi, eta):
    c, s = np.cos(eta), np.sin(eta)
    rot = np.empty_like(phi)
    for k in (0, 2):
        rot[:, k] = c * phi[:, k] - s * phi[:, k + 1]
        rot[:, k + 1] = s * phi[:, k] + c * phi[:, k + 1]
    return rot


IMAGES = {
    check_period: ("period", lambda theta, rho, phi, rng: (theta + math.pi / 3.0, rho, phi)),
    check_parity: ("parity", lambda theta, rho, phi, rng: (-theta, -rho, phi * np.array([1.0, -1.0]))),
    check_synrm_evenness: ("synrm_evenness", lambda theta, rho, phi, rng: (theta, rho, -phi)),
    check_im_rotation: (
        "im_rotation",
        lambda theta, rho, phi, rng: (theta, rho, _rotated(phi, rng.uniform(-math.pi, math.pi, theta.size))),
    ),
}


def _unblocked_check(check, m, n, tol, seed, box):
    if check is check_reciprocity:
        return reference_check_reciprocity(m, n_samples=n, tol=tol, seed=seed, box=box)
    name, image = IMAGES[check]
    rng = np.random.default_rng(seed)
    theta, _, phi = box.draw(rng, n)
    rho = np.zeros(n)  # the identities compare the magnetic energy, at rho = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        h1 = np.asarray(m.evaluate(theta, rho, phi), dtype=float)
        h2 = np.asarray(m.evaluate(*image(theta, rho, phi, rng)), dtype=float)
    return _h_report(name, tol, theta, rho, phi, h1, h2)


CHECK_MODELS = [
    (check_reciprocity, "harmonic"),
    (check_reciprocity, "induction"),
    (check_period, "harmonic"),
    (check_parity, "harmonic"),
    (check_synrm_evenness, "synrm"),
    (check_synrm_evenness, "saturated"),
    (check_im_rotation, "induction"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spoil", [None, np.nan, np.inf], ids=["finite", "nan", "inf"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("check,kind", CHECK_MODELS, ids=lambda v: getattr(v, "__name__", v))
def test_checks_equal_the_unblocked_checks_at_block_boundaries(check, kind, n, spoil):
    m = MODELS[kind]()
    box = default_box(m)
    if spoil is not None:
        # H and the currents of one sample of the last block go non-finite
        _, _, phi = box.draw(np.random.default_rng(n), n)
        m = _Spoiled(m, phi[-2, 0], spoil)
    got = check(m, n_samples=n, tol=1.0e-9, seed=n, box=box)
    want = _unblocked_check(check, m, n, 1.0e-9, n, box)
    assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
    if spoil is not None:
        assert not got.passed


# the draw's flux_dim + 2 floats, three more per-sample arrays at most (H, the
# violations, the rotation angles), and one float for a block's temporaries
@pytest.mark.parametrize("check,kind", CHECK_MODELS[:5] + CHECK_MODELS[6:], ids=lambda v: getattr(v, "__name__", v))
def test_each_check_holds_a_bounded_number_of_bytes_per_sample(check, kind):
    m = MODELS[kind]()
    n = 400_000
    check(m, n_samples=16, seed=1)  # compiles the kernels
    validate._last = (None,) * 7
    tracemalloc.start()
    try:
        check(m, n_samples=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        validate._last = (None,) * 7
    assert peak / n <= 8 * (m.flux_dim + 6), peak / n


# ---------------------------------------------------------------------------
# a box warning names the caller of the public entry point


def _outside_states(n):
    c = ipm_saturation()
    phi = np.tile([2.5 * c.phi_M, 0.0], (n, 1))
    return c, np.linspace(0.0, 1.0, n), np.zeros(n), phi


ENTRY_POINTS = {
    "evaluate": lambda m, c, theta, rho, phi: m.evaluate(theta, rho, phi),
    "d_flux": lambda m, c, theta, rho, phi: m.d_flux(theta, rho, phi),
    "d_theta": lambda m, c, theta, rho, phi: m.d_theta(theta, rho, phi),
    "gradient": lambda m, c, theta, rho, phi: m.gradient(theta, rho, phi),
    "torque": lambda m, c, theta, rho, phi: torque(m, theta, rho, phi),
    "ripple_torque": lambda m, c, theta, rho, phi: ripple_torque(m, np.linspace(0.0, 1.1, len(theta) + 1), 0.0, phi[0]),
    "saturated_currents": lambda m, c, theta, rho, phi: saturated_currents(c, phi),
    "incremental_inductance": lambda m, c, theta, rho, phi: incremental_inductance(c, phi),
    "check_period": lambda m, c, theta, rho, phi: check_period(
        m, n_samples=len(theta), box=SampleBox(phi[0], np.full(2, 0.01), 1.0, 1.0)
    ),
}


@pytest.mark.parametrize("n", [1, 3, B + 1])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_box_warning_names_the_caller(entry, n):
    c, theta, rho, phi = _outside_states(n)
    m = saturated_energy(c) if entry != "ripple_torque" else harmonic_energy(ipm_harmonic_model())
    validate._last = (None,) * 7
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ENTRY_POINTS[entry](m, c, theta, rho, phi)
    assert [(w.category, w.filename) for w in caught] == [(SaturationRangeWarning, __file__)]


def test_a_box_warning_of_a_single_state_names_the_caller():
    c, _, _, phi = _outside_states(1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        saturated_currents(c, phi[0])
    assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------------------
# a magnet flux out of range is named where it enters


def _validate(config, path, value, tmp_path, capsys):
    with open(CONFIG_DIR / f"{config}.yaml") as f:
        raw = yaml.safe_load(f)
    raw[path[0]][path[1]] = value
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code = main(["validate", "--config", str(cfg)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "config,path,value",
    [
        ("linear_ipm", ("model", "phi_M"), 1.0e200),
        ("linear_ipm", ("model", "phi_M"), 1.0e-100),
        ("synrm", ("model", "phi_M"), 1.0e308),
        ("saturated_ipm", ("identify", "phi_M"), 1.0e300),
        ("saturated_spm", ("identify", "phi_M"), 1.0e-300),
    ],
)
def test_a_phi_m_out_of_range_is_named_at_its_key(config, path, value, tmp_path, capsys):
    message = f"phi_M = {value!r} is out of range: phi_M**4 must be a nonzero float"
    assert _validate(config, path, value, tmp_path, capsys) == (EXIT_CONFIG, f"error: {'.'.join(path)}: {message}\n")


@pytest.mark.parametrize("value", [1.0e-2, 1.0e77, 1.0e-80])
def test_a_linear_phi_m_in_range_validates(value, tmp_path, capsys):
    assert _validate("linear_ipm", ("model", "phi_M"), value, tmp_path, capsys) == (0, "")


@pytest.mark.parametrize("phi_M", [1.0e300, -1.0e200, 1.0e-100])
def test_the_library_names_a_phi_m_out_of_range(phi_M):
    with pytest.raises(ValueError, match=r"^phi_M = .* is out of range"):
        LinearPmsmParams(1.0e-3, 1.0e-3, abs(phi_M), 100.0, 3)
    samples = [FluxSample(0.1 * k, 0.05 * (k % 3), 1.0, 2.0) for k in range(9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^phi_M = .* is out of range"):
            fit_saturation(samples, phi_M)


def test_a_linear_machine_without_a_magnet_is_in_range():
    assert LinearPmsmParams(1.0e-3, 2.0e-3, 0.0, 100.0, 3).phi_M == 0.0


@pytest.mark.parametrize("at", [0, B + 7, 3 * B + 4])
@pytest.mark.parametrize(
    "phi_d,phi_q",
    [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (1.0, np.nan), (0.0, -np.inf), (np.nan, np.inf), (-np.inf, np.nan)],
)
def test_the_box_check_of_a_blocked_batch_reduces_as_one_batch(phi_d, phi_q, at):
    m = MODELS["saturated"]()
    c = m.params
    n = 3 * B + 5
    phi = np.tile([c.phi_M, 0.0], (n, 1))
    phi[1] = [1.5 * c.phi_M, 0.5 * c.phi_M]
    phi[at] = [phi_d, phi_q]
    x, y = phi[:, 0] - c.phi_M, phi[:, 1]
    worst = float(max(x.max(), -x.min(), y.max(), -y.min()))
    want = [] if not worst > c.phi_M else [f"flux deviation {worst:.4g} Wb exceeds the saturation model's"]
    with warnings.catch_warnings(record=True) as caught, np.errstate(invalid="ignore"):
        warnings.simplefilter("always")
        m.evaluate(np.zeros(n), np.zeros(n), phi)
    assert [str(w.message).split(" fitted")[0] for w in caught if w.category is SaturationRangeWarning] == want
