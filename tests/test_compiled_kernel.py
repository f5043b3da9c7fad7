"""Compiled polynomial kernels against the table interpreter, and the simulator's float hook."""

import pickle
import warnings

import numpy as np
import pytest

from enermach import energy
from enermach.config import load_config
from enermach.dynamics import ConstantLoad, ConstantVoltage, Drive, SimConfig, simulate
from enermach.energy import (
    MachineState,
    _compile,
    _d_flux_table,
    _d_theta_table,
    _kernel_lines,
    _table,
    linear_energy,
    synrm_energy,
)
from enermach.harmonics import FluxPolynomial, harmonic_energy
from enermach.induction import ImFlux, im_currents, im_energy, im_torque
from enermach.saturation import (
    SaturationRangeWarning,
    _quartic_terms,
    incremental_inductance,
    saturated_currents,
    saturated_energy,
)
from enermach.validate import default_box
from helpers import (
    CONFIG_DIR,
    _Delegate,
    im_params,
    ipm_harmonic_model,
    ipm_linear_params,
    ipm_saturation,
    reference_kernel,
    synrm_params,
)

POLYNOMIAL_MODELS = {
    "linear": lambda: linear_energy(ipm_linear_params()),
    "synrm": lambda: synrm_energy(synrm_params()),
    "saturated": lambda: saturated_energy(ipm_saturation()),
    "harmonic": lambda: harmonic_energy(ipm_harmonic_model()),
}
MODELS = {**POLYNOMIAL_MODELS, "induction": lambda: im_energy(im_params())}


def _degree(tables):
    return max((max(ij) for t in tables for _, a, b in t for ij in (*a, *b)), default=0)


def _model_table_sets(m):
    """The four table sets a magnet model compiles: H, currents, dH/dtheta, gradient."""
    return [(m._h,), (m._h_x, m._h_y), (m._h_theta,), (m._h_x, m._h_y, m._h_theta)]


def _extra_table_sets():
    """The tables FluxPolynomial and incremental_inductance compile."""
    sets = []
    for term in ipm_harmonic_model().terms:
        for poly in (term.a_poly, term.b_poly):
            t = _table([(0, poly.coeffs, {})])
            sets += [(t,), (_d_flux_table(t, 0), _d_flux_table(t, 1))]
    h = _table([(0, _quartic_terms(ipm_saturation()), {})])
    h_x, h_y = _d_flux_table(h, 0), _d_flux_table(h, 1)
    sets.append((_d_flux_table(h_x, 0), _d_flux_table(h_x, 1), _d_flux_table(h_y, 1)))
    return sets


def _random_tables(rng, degree):
    """A table with repeated and several angle orders, sin-only rows and empty rows."""
    monomials = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]

    def poly():
        picks = rng.permutation(len(monomials))[: rng.integers(0, len(monomials) + 1)]
        return {monomials[k]: rng.standard_normal() * 10.0 ** rng.integers(-3, 4) for k in picks}

    rows = []
    for w in rng.choice([0.0, 6.0, 12.0, 18.0], size=rng.integers(1, 6)):
        kind = rng.integers(0, 4)
        a = {} if kind in (1, 3) else poly()
        b = {} if kind in (0, 3) else poly()
        rows.append((w, a, b))
    t = _table(rows)
    return [(t,), (_d_flux_table(t, 0), _d_flux_table(t, 1), _d_theta_table(t)), (t, (), t)]


def _float_states(rng):
    states = [tuple(s) for s in (rng.uniform(-3.0, 3.0, (6, 3)) * [1.0, 0.1, 0.1]).tolist()]
    # signed zeros, angles whose multiples overflow, powers that overflow
    states += [(0.0, -0.0, -0.0), (-0.0, 0.0, -0.0), (1.0e308, 0.01, -0.02), (0.3, 1.0e100, -1.0e100)]
    return states


def _assert_same_bits(got, want):
    assert type(got) is tuple and len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        else:
            assert float(g).hex() == float(w).hex()


def _check_against_reference(tables, rng):
    kernel = _compile(tables)
    degree = _degree(tables)
    with np.errstate(over="ignore", invalid="ignore"):
        for theta, x, y in _float_states(rng):
            want = reference_kernel(tables, degree, theta, x, y, 0.0)
            _assert_same_bits(kernel(theta, x, y, 0.0), want)
    theta, x, y = rng.uniform(-3.0, 3.0, (3, 50)) * [[1.0], [0.1], [0.1]]
    x[0], y[1] = -0.0, -0.0
    for args in ((theta, x, y), (0.4, x, y), (theta, 0.02, -0.01)):
        zero = np.zeros(50)
        _assert_same_bits(kernel(*args, zero), reference_kernel(tables, degree, *args, zero))


@pytest.mark.parametrize("kind", POLYNOMIAL_MODELS)
def test_compiled_model_tables_match_the_interpreter(kind):
    rng = np.random.default_rng(17)
    for tables in _model_table_sets(POLYNOMIAL_MODELS[kind]()):
        _check_against_reference(tables, rng)


def test_compiled_helper_tables_match_the_interpreter():
    rng = np.random.default_rng(19)
    for tables in _extra_table_sets():
        _check_against_reference(tables, rng)


@pytest.mark.parametrize("degree", range(5))
def test_compiled_random_tables_match_the_interpreter(degree):
    rng = np.random.default_rng(100 + degree)
    for _ in range(8):
        for tables in _random_tables(rng, degree):
            _check_against_reference(tables, rng)


def test_coefficients_are_bound_not_printed():
    m = POLYNOMIAL_MODELS["harmonic"]()
    for tables in _model_table_sets(m):
        kernel = _compile(tables)
        assert set(kernel.__code__.co_consts) <= {None, 0.0}
        names = kernel.__globals__
        bound = sorted(v for k, v in names.items() if k[0] == "c" and k[1:].isdigit())
        coeffs = sorted(c for t in tables for _, a, b in t for c in (*a.values(), *b.values()))
        assert [c.hex() for c in bound] == [c.hex() for c in coeffs]


def test_empty_polynomials_are_not_multiplied_by_cos_or_sin():
    m = load_config(CONFIG_DIR / "harmonic_ipm.yaml").model
    tables = (m._h_x, m._h_y, m._h_theta)
    assert any(w and not (a and b) for t in tables for w, a, b in t)
    array_lines = _kernel_lines(tables, {}, ("t0", "t1", "t2"), "zero", one_state=False, variables=("x", "y"))
    for line in m._stage_source({}) + array_lines:
        assert "(0.0) *" not in line, line


def test_config_loading_compiles_nothing():
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        model = load_config(path).model
        assert not [k for k in vars(model) if k.endswith("_kernel")], path.name


def test_models_pickle_after_their_kernels_ran():
    m = POLYNOMIAL_MODELS["harmonic"]()
    phi = np.array([0.2, 0.03])
    before = m.gradient(0.3, 1.0, phi)
    clone = pickle.loads(pickle.dumps(m))
    after = clone.gradient(0.3, 1.0, phi)
    assert before[0].tobytes() == after[0].tobytes()
    assert [float(v).hex() for v in before[1:]] == [float(v).hex() for v in after[1:]]


def test_one_call_front_ends_compile_their_kernels_once(monkeypatch):
    made = []

    def counting_kernel_lines(*args, **kwargs):
        made.append(args[0])
        return _kernel_lines(*args, **kwargs)

    monkeypatch.setattr(energy, "_kernel_lines", counting_kernel_lines)
    flux = ImFlux([0.1, 0.02], [0.05, -0.01])
    phi = np.array([0.2, 0.03])
    poly = FluxPolynomial({(0, 0): 2.0, (1, 0): 3.0, (2, 2): -1.5})
    # equal parameters, built afresh at every call
    front_ends = {
        "im_currents": lambda: np.concatenate(im_currents(im_params(), flux)),
        "im_torque": lambda: np.asarray(im_torque(im_params(), flux)),
        "saturated_currents": lambda: saturated_currents(ipm_saturation(), phi),
        "incremental_inductance": lambda: incremental_inductance(ipm_saturation(), phi),
        "FluxPolynomial.value": lambda: np.asarray(poly.value(0.2, 0.03)),
        "FluxPolynomial.grad": lambda: np.asarray(poly.grad(0.2, 0.03)),
    }
    for name, call in front_ends.items():
        first = call().tobytes()
        before = len(made)
        assert call().tobytes() == first, name
        assert len(made) == before, name


@pytest.mark.parametrize("wrap", [False, True], ids=["bare", "delegate"])
@pytest.mark.parametrize("kind", MODELS)
def test_step_gradient_equals_gradient(kind, wrap):
    m = MODELS[kind]()
    if wrap:
        m = _Delegate(m)
    theta, rho, phi = default_box(m).draw(np.random.default_rng(23), 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        for k in range(16):
            state = float(theta[k]), float(rho[k]), phi[k].tolist()
            i, omega, h_theta = m._step_gradient(*state)
            want_i, want_omega, want_h = m.gradient(state[0], state[1], np.array(state[2]))
            assert type(i) is list and all(type(v) is float for v in i)
            assert [v.hex() for v in i] == [float(v).hex() for v in np.asarray(want_i)]
            assert type(omega) is float and omega.hex() == float(want_omega).hex()
            assert type(h_theta) is float and h_theta.hex() == float(want_h).hex()


@pytest.mark.parametrize("kind", ["saturated", "harmonic"])
def test_simulation_warns_outside_the_box_only(kind):
    m = POLYNOMIAL_MODELS[kind]()
    phi_M = m.params.phi_M
    drive = Drive(ConstantVoltage(5.0, 10.0), ConstantLoad(0.0))
    cfg = SimConfig(dt=1.0e-5, t_end=1.0e-3, record_stride=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SaturationRangeWarning)
        traj = simulate(m, MachineState(0.1, 0.0, [phi_M, 0.0]), drive, cfg)
    deviation = traj.flux() - [phi_M, 0.0]
    assert 0.0 < np.max(np.abs(deviation)) < phi_M  # the run moved and stayed inside
    with pytest.warns(SaturationRangeWarning):
        simulate(m, MachineState(0.1, 0.0, [2.5 * phi_M, 0.0]), drive, cfg)
