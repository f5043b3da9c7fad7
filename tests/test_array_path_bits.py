"""The array path's column-wise numpy loops against the broadcast formulas they replaced, bit for bit.

Each reference below is the earlier formula, kept verbatim: the sample
draw, the blocked reciprocity check, the parity flip and the power
balance's stacked sums.  The period, SynRM evenness and induction rotation
checks are pinned to a draw-evaluate-compare written out check by check;
every H identity compares the magnetic energy, at rho = 0.
Trajectory CSVs are compared with the per-value ``{:.17g}`` text, and a
header-only CSV reads back with zero rows.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from enermach import dynamics, validate
from enermach.config import load_config
from enermach.dynamics import Trajectory, power_balance, simulate
from enermach.energy import linear_energy, synrm_energy
from enermach.harmonics import harmonic_energy
from enermach.induction import im_energy
from enermach.saturation import SaturationRangeWarning, saturated_energy
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
    synrm_params,
)

MODELS = {
    "linear": lambda: linear_energy(ipm_linear_params()),
    "synrm": lambda: synrm_energy(synrm_params()),
    "saturated": lambda: saturated_energy(ipm_saturation()),
    "harmonic": lambda: harmonic_energy(ipm_harmonic_model()),
    "induction": lambda: im_energy(im_params()),
}


def _broadcast_draw(box, rng, n):
    dim = box.phi_center.size
    phi = box.phi_center + box.phi_half * rng.uniform(-1.0, 1.0, (n, dim))
    theta = rng.uniform(-box.theta_half, box.theta_half, n)
    rho = rng.uniform(-box.rho_half, box.rho_half, n)
    return theta, rho, phi


def _broadcast_reciprocity(m, n_samples=10_000, tol=1.0e-10, seed=0, box=None, fd_step=1.0e-5):
    """The blocked check with its probes, differences and asymmetry broadcast over the flux axes."""
    box = box or default_box(m)
    rng = np.random.default_rng(seed)
    theta, rho, phi = _broadcast_draw(box, rng, n_samples)
    dim = phi.shape[1]
    h = fd_step * np.maximum(1.0, np.linalg.norm(phi, axis=1))
    steps = np.stack([h, 2.0 * h])
    eye = np.eye(dim, dtype=bool)[:, None, :, None]
    block = validate._BLOCK // dim**2
    jac = np.empty((dim, dim, n_samples))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        for lo in range(0, n_samples, block):
            blk = slice(lo, lo + block)
            step = np.where(eye, steps[None, :, None, blk], 0.0)
            phi_k = phi[blk].T[:, None, None, :]
            probes = np.stack([phi_k + step, phi_k - step], axis=1)
            i = m.d_flux(theta[blk], rho[blk], np.moveaxis(probes, 0, -1))
            c = (i[0] - i[1]) / (2.0 * steps[:, None, blk, None])
            jac[:, :, blk] = np.moveaxis((4.0 * c[0] - c[1]) / 3.0, 1, -1)

    asym = np.abs(jac - np.transpose(jac, (1, 0, 2)))
    per_point = asym.reshape(dim * dim, n_samples).max(axis=0)
    worst = int(np.argmax(per_point))
    max_abs = float(per_point[worst])
    scale = max(float(np.max(np.abs(jac))), 1.0e-30)
    point = {"theta": float(theta[worst]), "rho": float(rho[worst])}
    for k in range(dim):
        point[f"phi_{k}"] = float(phi[worst, k])
    return validate.CheckReport(
        name="reciprocity",
        samples=n_samples,
        tolerance=tol,
        max_abs=max_abs,
        scale=scale,
        max_rel=max_abs / scale,
        passed=bool(max_abs / scale < tol),
        worst_point=point,
    )


def _broadcast_parity(m, n_samples=10_000, tol=1.0e-10, seed=0, box=None):
    box = box or default_box(m)
    rng = np.random.default_rng(seed)
    theta, _, phi = _broadcast_draw(box, rng, n_samples)
    rho = np.zeros(n_samples)
    h1 = m.evaluate(theta, rho, phi)
    h2 = m.evaluate(-theta, -rho, phi * np.array([1.0, -1.0]))
    return _written_out_h_report("parity", tol, theta, rho, phi, h1, h2)


def _stacked_power_balance(m, traj):
    t = traj.t
    phi = traj.flux()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        H = np.asarray(m.evaluate(traj.column("theta"), traj.column("rho"), phi), dtype=float)
    i_s = np.stack([traj.column("i_d"), traj.column("i_q")], axis=-1)
    u = np.stack([traj.column("u_d"), traj.column("u_q")], axis=-1)
    R_s, R_r = dynamics._resistances(m)
    p_in = np.sum(u * i_s, axis=-1)
    p_diss = R_s * np.sum(i_s**2, axis=-1)
    if m.flux_dim == 4:
        i_r = np.stack([traj.column("i_rd"), traj.column("i_rq")], axis=-1)
        p_diss = p_diss + R_r * np.sum(i_r**2, axis=-1)
    p_mech = traj.column("load") * traj.column("omega") / m.pole_pairs
    rhs = dynamics._cumsimpson(p_in - p_diss - p_mech, t)
    residual = float(np.max(np.abs((H - H[0]) - rhs)))
    exchanged = dynamics._cumtrapz(np.abs(p_in) + p_diss + np.abs(p_mech), t)[-1]
    return residual / max(exchanged, abs(float(H[0])), 1.0e-30)


def _same_report(a, b):
    return repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


class _NanCurrents(_Delegate):
    """Every current is nan where phi_q > 0.1."""

    def d_flux(self, theta, rho, phi):
        i = np.array(self.inner.d_flux(theta, rho, phi), dtype=float)
        i[np.asarray(phi)[..., 1] > 0.1] = np.nan
        return i


class _HugeSelfInductance(_Delegate):
    """i_d picks up 1e308 * phi_d: di_d/dphi_d overflows, the off-diagonal entries stay finite."""

    def d_flux(self, theta, rho, phi):
        i = np.array(self.inner.d_flux(theta, rho, phi), dtype=float)
        i[..., 0] = i[..., 0] + 1.0e308 * np.asarray(phi)[..., 0]
        return i


@pytest.mark.parametrize("dim", [2, 4])
def test_draw_equals_the_broadcast_draw(dim):
    box = SampleBox(np.linspace(-0.4, 0.3, dim), np.linspace(0.05, 0.9, dim), 1.5, 30.0)
    for n in (1, 7, 2049):
        new = box.draw(np.random.default_rng(n), n)
        old = _broadcast_draw(box, np.random.default_rng(n), n)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(new, old))
        assert new[2].shape == (n, dim)


@pytest.mark.parametrize("kind", MODELS)
def test_reciprocity_equals_the_broadcast_check(kind):
    m = MODELS[kind]()
    for n in (1, 7, 2049):
        for seed in (0, 3):
            new = check_reciprocity(m, n_samples=n, seed=seed)
            assert _same_report(new, _broadcast_reciprocity(m, n_samples=n, seed=seed)), (n, seed)
    dim = m.flux_dim
    box = SampleBox(np.linspace(-0.3, 0.2, dim), np.linspace(0.05, 0.7, dim), 1.3, 7.0)
    kwargs = dict(n_samples=3001, tol=1.0e-3, seed=9, box=box, fd_step=-3.0e-4)
    assert _same_report(check_reciprocity(m, **kwargs), _broadcast_reciprocity(m, **kwargs))


class _Recording(_Delegate):
    """Keeps a copy, the shape and the strides of every flux array d_flux is given."""

    def __init__(self, inner):
        super().__init__(inner)
        self.probes = []

    def d_flux(self, theta, rho, phi):
        self.probes.append((phi.shape, phi.strides, phi.tobytes()))
        return self.inner.d_flux(theta, rho, phi)


@pytest.mark.parametrize("kind", ["saturated", "induction"])
def test_reciprocity_probes_equal_the_broadcast_probes(kind):
    new, old = _Recording(MODELS[kind]()), _Recording(MODELS[kind]())
    dim = new.flux_dim
    # |phi| > 1 in the second box, so the step follows the norm, and it is
    # large enough that phi +/- h shows the norm's last bit
    for box, fd_step in ((None, 1.0e-5), (SampleBox(np.full(dim, 1.2), np.full(dim, 0.9), 1.0, 5.0), 0.25)):
        kwargs = dict(n_samples=validate._BLOCK + 5, seed=2, box=box, fd_step=fd_step)
        assert _same_report(check_reciprocity(new, **kwargs), _broadcast_reciprocity(old, **kwargs))
    assert new.probes == old.probes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("wrap", [_NanCurrents, _HugeSelfInductance])
@pytest.mark.parametrize("kind", ["saturated", "induction"])
def test_reciprocity_with_non_finite_currents_equals_the_broadcast_check(kind, wrap):
    m = wrap(MODELS[kind]())
    new = check_reciprocity(m, n_samples=2049, seed=1)
    assert _same_report(new, _broadcast_reciprocity(m, n_samples=2049, seed=1))
    # a non-finite diagonal entry is nan in the asymmetry, so the check fails
    assert math.isnan(new.max_abs) and not new.passed


@pytest.mark.parametrize("kind", ["linear", "synrm", "saturated", "harmonic"])
def test_parity_equals_the_broadcast_check(kind):
    m = MODELS[kind]()
    for n in (1, 7, 2049):
        assert _same_report(check_parity(m, n_samples=n, seed=n), _broadcast_parity(m, n_samples=n, seed=n))


def _written_out_h_report(name, tol, theta, rho, phi, h1, h2):
    diff = np.abs(np.asarray(h1, dtype=float) - np.asarray(h2, dtype=float))
    worst = int(np.argmax(diff))
    max_abs = float(diff[worst])
    scale = max(float(np.max(np.abs(h1))), float(np.max(np.abs(h2))), 1.0e-30)
    point = {"theta": float(theta[worst]), "rho": float(rho[worst])}
    point.update({f"phi_{k}": float(phi[worst, k]) for k in range(phi.shape[1])})
    max_rel = max_abs / scale
    return validate.CheckReport(name, theta.size, tol, max_abs, scale, max_rel, max_rel < tol, point)


def _written_out_period(m, n_samples, tol, seed, box):
    theta, _, phi = box.draw(np.random.default_rng(seed), n_samples)
    rho = np.zeros(n_samples)
    h1, h2 = m.evaluate(theta, rho, phi), m.evaluate(theta + math.pi / 3.0, rho, phi)
    return _written_out_h_report("period", tol, theta, rho, phi, h1, h2)


def _written_out_evenness(m, n_samples, tol, seed, box):
    theta, _, phi = box.draw(np.random.default_rng(seed), n_samples)
    rho = np.zeros(n_samples)
    h1, h2 = m.evaluate(theta, rho, phi), m.evaluate(theta, rho, -phi)
    return _written_out_h_report("synrm_evenness", tol, theta, rho, phi, h1, h2)


def _written_out_rotation(m, n_samples, tol, seed, box):
    rng = np.random.default_rng(seed)
    theta, _, phi = box.draw(rng, n_samples)
    rho = np.zeros(n_samples)
    eta = rng.uniform(-math.pi, math.pi, n_samples)
    c, s = np.cos(eta), np.sin(eta)
    rot = np.empty_like(phi)
    rot[:, 0] = c * phi[:, 0] - s * phi[:, 1]
    rot[:, 1] = s * phi[:, 0] + c * phi[:, 1]
    rot[:, 2] = c * phi[:, 2] - s * phi[:, 3]
    rot[:, 3] = s * phi[:, 2] + c * phi[:, 3]
    h1, h2 = m.evaluate(theta, rho, phi), m.evaluate(theta, rho, rot)
    return _written_out_h_report("im_rotation", tol, theta, rho, phi, h1, h2)


def _report_bits(report):
    """Every field of a report, each float as its hex text."""
    out = {}
    for key, value in dataclasses.asdict(report).items():
        if isinstance(value, dict):
            value = {k: v.hex() for k, v in value.items()}
        elif isinstance(value, float):
            value = value.hex()
        out[key] = (type(value).__name__, value)
    return out


WRITTEN_OUT = {
    check_period: (_written_out_period, list(MODELS)),
    check_synrm_evenness: (_written_out_evenness, ["linear", "synrm", "saturated", "harmonic"]),
    check_im_rotation: (_written_out_rotation, ["induction"]),
}


@pytest.mark.filterwarnings("ignore::enermach.saturation.SaturationRangeWarning")
@pytest.mark.parametrize("check", WRITTEN_OUT, ids=lambda check: check.__name__)
def test_identity_checks_equal_the_written_out_checks(check):
    reference, kinds = WRITTEN_OUT[check]
    for kind in kinds:
        m = MODELS[kind]()
        dim = m.flux_dim
        boxes = (default_box(m), SampleBox(np.linspace(-0.3, 0.4, dim), np.linspace(0.05, 0.6, dim), 2.5, 40.0))
        for box in boxes:
            for n in (1, 7, validate._BLOCK + 5):
                new = check(m, n_samples=n, tol=1.0e-9, seed=n, box=box)
                old = reference(m, n, 1.0e-9, n, box)
                assert _report_bits(new) == _report_bits(old), (kind, n)


@pytest.mark.parametrize("config", ["saturated_ipm", "im_2kw"])
def test_power_balance_equals_the_stacked_sums(config):
    cfg = load_config(CONFIG_DIR / f"{config}.yaml")
    for stride in (1, cfg.sim.record_stride):
        sim = dataclasses.replace(cfg.sim, record_stride=stride, t_end=300 * cfg.sim.dt)
        traj = simulate(cfg.model, cfg.initial, cfg.drive, sim)
        assert power_balance(cfg.model, traj).hex() == _stacked_power_balance(cfg.model, traj).hex()
    # signed zeros and a nan in the current and voltage columns
    data = traj.data.copy()
    for name, rows, value in (("i_d", slice(0, 2), -0.0), ("u_q", slice(1, 3), -0.0), ("i_q", 2, 0.0), ("u_d", 3, np.nan)):
        data[rows, traj.columns.index(name)] = value
    odd = Trajectory(traj.columns, data)
    assert repr(power_balance(cfg.model, odd)) == repr(_stacked_power_balance(cfg.model, odd))


@pytest.mark.parametrize("config", ["saturated_ipm", "im_2kw"])
def test_power_balance_of_short_random_records_equals_the_stacked_sums(config):
    m = load_config(CONFIG_DIR / f"{config}.yaml").model
    columns = dynamics.IM_COLUMNS if m.flux_dim == 4 else dynamics.PMSM_COLUMNS
    rng = np.random.default_rng(7)
    for trial in range(200):
        rows = 3 + trial % 5
        data = rng.standard_normal((rows, len(columns))) * 10.0 ** rng.uniform(-3.0, 3.0, len(columns))
        data[:, columns.index("t")] = np.cumsum(rng.uniform(0.5, 1.5, rows))
        traj = Trajectory(columns, data)
        assert power_balance(m, traj).hex() == _stacked_power_balance(m, traj).hex()


def _format_reference(columns, data):
    lines = [",".join(columns)]
    lines += [",".join("{:.17g}".format(v) for v in row) for row in data.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, dynamics._CSV_ROWS - 1, dynamics._CSV_ROWS, dynamics._CSV_ROWS + 1])
def test_write_csv_equals_the_per_value_format(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = ("t", "a", "b", "c", "d")
    data = rng.standard_normal((n, 5)) * np.exp(rng.uniform(-700.0, 700.0, (n, 5)))
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, np.finfo(float).max]
    data.flat[: len(specials)] = specials[: data.size]
    path = tmp_path / "t.csv"
    Trajectory(columns, data).write_csv(path)
    assert path.read_text() == _format_reference(columns, data)
    back = Trajectory.read_csv(path)
    assert back.columns == columns and back.data.shape == (n, 5)
    assert np.array_equal(back.data, data, equal_nan=True)


def test_a_header_only_csv_reads_back_with_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    Trajectory(("t", "x"), np.empty((0, 2))).write_csv(path)
    assert path.read_text() == "t,x\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = Trajectory.read_csv(path)
    assert back.columns == ("t", "x")
    assert back.data.shape == (0, 2)
