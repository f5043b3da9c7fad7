"""Property: a run of any table model, state, integrator and drive is the
reference loop's, bit for bit, and its recorded currents and torque are
the model's, ``torque()``'s and ``ripple_torque``'s.

A small :class:`PolynomialEnergy` is drawn: a quadratic well on each flux
variable plus a few monomials of degree <= 4 at angle orders 0, 6 and 12,
with or without a magnet flux and a flux box, over two or four flux
components.  The drive is written out (constant, sinusoid) or called (a
table, a plain function).
"""

import math
import types
import warnings
from itertools import product

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from enermach.dynamics import (  # noqa: E402
    ConstantLoad,
    ConstantVoltage,
    Drive,
    LinearLoad,
    SimConfig,
    SinusoidVoltage,
    TableLoad,
    TableVoltage,
    simulate,
)
from enermach.energy import MachineState, PolynomialEnergy, torque  # noqa: E402
from enermach.harmonics import ripple_torque  # noqa: E402
from enermach.saturation import SaturationRangeWarning  # noqa: E402

from helpers import reference_simulate  # noqa: E402

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=100)


class _RotorTable(PolynomialEnergy):
    """A table over four flux variables: a stator and a rotor pair."""

    flux_dim = 4


def _exponents(dim: int) -> list:
    return [e for e in product(range(5), repeat=dim) if 0 < sum(e) <= 4]


SMALL = st.floats(-1.0, 1.0, allow_nan=False)
VALUE = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def tables(draw):
    dim = draw(st.sampled_from([2, 4]))
    monomials = st.dictionaries(st.sampled_from(_exponents(dim)), SMALL, max_size=3)
    wells = {tuple(2 * (k == axis) for k in range(dim)): draw(st.floats(5.0, 50.0)) for axis in range(dim)}
    orders = [(0, {**draw(monomials), **wells}, {})]
    angles = draw(st.lists(st.sampled_from([6, 12]), max_size=2, unique=True))
    orders += [(w, draw(monomials), draw(monomials)) for w in angles]
    phi_M = draw(st.sampled_from([0.0, 0.1, 0.2]))
    box = draw(st.sampled_from([None, 0.05, 0.3]))
    n_p = draw(st.integers(1, 4))
    cls = _RotorTable if dim == 4 else PolynomialEnergy
    m = cls(orders, phi_M, draw(st.floats(10.0, 1.0e4)), n_p, box)
    m.params = types.SimpleNamespace(R_s=draw(st.floats(0.0, 3.0)), R_r=draw(st.floats(0.0, 3.0)), phi_M=phi_M)
    return m


@st.composite
def drives(draw):
    kind = draw(st.sampled_from(["constant", "sinusoid", "table", "function"]))
    if kind == "constant":
        return Drive(ConstantVoltage(draw(VALUE), draw(VALUE)), ConstantLoad(draw(SMALL)))
    if kind == "sinusoid":
        voltage = SinusoidVoltage(draw(VALUE), draw(VALUE), draw(st.floats(0.0, 500.0)), draw(SMALL), draw(SMALL))
        return Drive(voltage, LinearLoad(draw(SMALL), draw(st.floats(-1.0e-2, 1.0e-2))))
    if kind == "table":
        times = (0.0, *sorted(draw(st.sets(st.floats(1.0e-6, 5.0e-4), min_size=1, max_size=3))))
        values = st.lists(VALUE, min_size=len(times), max_size=len(times))
        load = TableLoad(times, draw(st.lists(SMALL, min_size=len(times), max_size=len(times))))
        return Drive(TableVoltage(times, draw(values), draw(values)), load)
    amp, w, u_q, t_0, coeff = draw(VALUE), draw(st.floats(0.0, 3.0e3)), draw(VALUE), draw(SMALL), draw(SMALL)
    return Drive(lambda t: (amp * math.cos(w * t), u_q), lambda t, omega: t_0 + 1.0e-3 * coeff * omega)


@deterministic
@given(
    m=tables(),
    drive=drives(),
    theta=st.floats(-math.pi, math.pi),
    omega=st.floats(-300.0, 300.0),
    flux=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
    integrator=st.sampled_from(["rk4", "euler"]),
    steps=st.integers(1, 40),
    stride=st.integers(1, 5),
)
def test_a_random_table_runs_as_the_reference_and_records_its_torque(
    m, drive, theta, omega, flux, integrator, steps, stride
):
    phi = np.array(flux[: m.flux_dim])
    phi[0] += m.params.phi_M
    state0 = MachineState(theta, omega / m._kappa, phi)
    cfg = SimConfig(dt=1.0e-5, t_end=steps * 1.0e-5, integrator=integrator, record_stride=stride, omega_s=314.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        got = simulate(m, state0, drive, cfg)
        want = reference_simulate(m, state0, drive, cfg)
        assert got.data.tobytes() == want.tobytes()
        theta, rho, phi = got.column("theta"), got.column("rho"), got.flux()
        currents = m.d_flux(theta, rho, phi)
        want_torque = torque(m, theta, rho, phi)
        ripple = ripple_torque(m, theta[-1] + np.linspace(0.0, np.pi / 3.0, 7), rho[-1], phi[-1])[0]
    names = ("i_d", "i_q", "i_rd", "i_rq")[: m.flux_dim]
    _assert_close(np.stack([got.column(c) for c in names], axis=-1), currents)
    _assert_close(got.column("torque"), want_torque)
    _assert_close(ripple, want_torque[-1], scale=np.max(np.abs(want_torque)))


def _assert_close(got, want, scale=None):
    """``test_consistency.py``'s bound: within 1e-12 of the largest |want|."""
    scale = max(float(np.max(np.abs(want))) if scale is None else float(scale), 1.0e-300)
    assert np.max(np.abs(np.asarray(got) - want)) <= 1.0e-12 * scale
