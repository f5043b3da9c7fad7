"""Tables over n flux variables, and the induction machine as one of them."""

from functools import cached_property

import numpy as np
import pytest

from enermach.energy import (
    PolynomialEnergy,
    _compile,
    _cos_sin,
    _d_flux_table,
    _d_theta_table,
    _table,
)
from enermach.induction import ImEnergy, ImParams, im_energy
from helpers import im_params

N_VARS = 4


def interpret(tables, degree, theta, variables, zero):
    """n-variable table interpreter in the order of ``helpers.reference_kernel``.

    Powers come from repeated multiplication up to ``degree``; each
    polynomial is summed left to right from 0.0 as c * v0**e0 * v1**e1 ...,
    and each total starts from ``zero``.
    """
    powers = []
    for v in variables:
        p = [1.0, v]
        for _ in range(degree - 1):
            p.append(p[-1] * v)
        powers.append(p)

    def poly(terms):
        acc = 0.0
        for e, c in terms.items():
            term = c
            for p, n in zip(powers, e):
                term = term * p[n]
            acc = acc + term
        return acc

    trig = {}
    out = []
    for t in tables:
        total = zero
        for w, a, b in t:
            value = poly(a)
            if w:
                if w not in trig:
                    trig[w] = _cos_sin(w, theta)
                cos_w, sin_w = trig[w]
                value = value * cos_w + poly(b) * sin_w
            total = total + value
        out.append(total)
    return tuple(out)


def _random_table_sets(rng, degree):
    """A 4-variable table with several angle orders, cos-only, sin-only and empty rows."""
    monomials = [e for e in np.ndindex(*(degree + 1,) * N_VARS) if sum(e) <= degree]

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
    gradient = tuple(_d_flux_table(t, k) for k in range(N_VARS)) + (_d_theta_table(t),)
    return [(t,), gradient, (t, (), t)]


def _float_states(rng):
    scale = [1.0] + [0.1] * N_VARS
    states = [tuple(s) for s in (rng.uniform(-3.0, 3.0, (6, N_VARS + 1)) * scale).tolist()]
    # signed zeros, angles whose multiples overflow, powers that overflow
    states += [
        (0.0, -0.0, -0.0, 0.0, -0.0),
        (-0.0, 0.0, -0.0, -0.0, 0.0),
        (1.0e308, 0.01, -0.02, 0.03, -0.04),
        (0.3, 1.0e100, -1.0e100, 1.0e100, -1.0e100),
    ]
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


@pytest.mark.parametrize("degree", range(5))
def test_four_variable_tables_match_the_interpreter(degree):
    rng = np.random.default_rng(700 + degree)
    for _ in range(6):
        for tables in _random_table_sets(rng, degree):
            kernel = _compile(tables, N_VARS)
            with np.errstate(over="ignore", invalid="ignore"):
                for theta, *v in _float_states(rng):
                    want = interpret(tables, degree, theta, v, 0.0)
                    _assert_same_bits(kernel(theta, *v, 0.0), want)
                states = rng.uniform(-3.0, 3.0, (N_VARS + 1, 50))
                theta, v = states[0], [row * 0.1 for row in states[1:]]
                v[0][0], v[3][1] = -0.0, -0.0
                for args in ((theta, *v), (0.4, *v), (theta, 0.02, -0.01, 0.03, -0.04)):
                    zero = np.zeros(50)
                    want = interpret(tables, degree, args[0], args[1:], zero)
                    _assert_same_bits(kernel(*args, zero), want)


def test_four_variable_kernel_takes_four_variables():
    t = _table([(0, {(1, 0, 0, 0): 1.0, (0, 0, 0, 1): 2.0}, {})])
    kernel = _compile((t,), N_VARS)
    assert kernel.__code__.co_varnames[:6] == ("theta", "x", "y", "z", "v", "zero")
    assert kernel(0.0, 3.0, 5.0, 7.0, 11.0, 0.0) == (25.0,)


def _random_im_params(rng):
    l_s, l_r = rng.uniform(0.05, 0.3, 2)
    return ImParams(
        L_s=l_s,
        L_r=l_r,
        L_m=rng.uniform(0.1, 0.95) * np.sqrt(l_s * l_r),
        R_s=1.0,
        R_r=1.0,
        kinetic_coeff=100.0,
        n_p=2,
    )


@pytest.mark.parametrize("which", ["shipped", "random"])
def test_im_currents_match_the_closed_form(which):
    rng = np.random.default_rng(31)
    p = im_params() if which == "shipped" else _random_im_params(rng)
    phi = rng.uniform(-0.8, 0.8, (10_000, 4))
    phi_s, phi_r = phi[:, :2], phi[:, 2:]
    want = np.concatenate(
        [(p.L_r * phi_s - p.L_m * phi_r) / p.det, (p.L_s * phi_r - p.L_m * phi_s) / p.det], axis=1
    )
    scale = np.max(np.abs(want))
    batch = im_energy(p).d_flux(0.0, 0.0, phi)
    assert np.max(np.abs(batch - want)) <= 1.0e-15 * scale
    one = np.array([im_energy(p).d_flux(0.0, 0.0, row) for row in phi[:200]])
    assert one.tobytes() == batch[:200].tobytes()


def test_im_energy_is_a_table_model_that_overrides_only_init():
    assert issubclass(ImEnergy, PolynomialEnergy)
    # _abc_impl is the abstract-base-class bookkeeping every subclass gets
    assert {k for k in vars(ImEnergy) if not k.startswith("__")} - {"_abc_impl"} == {"flux_dim"}
    methods = [
        k for k, v in vars(ImEnergy).items() if callable(v) or isinstance(v, (property, cached_property))
    ]
    assert methods == ["__init__"]
    m = im_energy(im_params())
    assert m.flux_dim == 4 and m._box is None and m._phi_M == 0.0
    assert m._h_theta == ()
