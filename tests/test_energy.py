import numpy as np
import pytest

from enermach.energy import (
    LinearPmsmParams,
    MachineState,
    currents,
    kinetic_coefficient,
    linear_energy,
    numeric_gradient,
    speed,
    synrm_energy,
    torque,
)
from helpers import ipm_linear_params, synrm_params


def test_numeric_gradient_on_known_function():
    f = lambda v: v[0] ** 2 + 3.0 * v[0] * v[1]
    g = numeric_gradient(f, np.array([1.5, -2.0]))
    assert g == pytest.approx([2.0 * 1.5 + 3.0 * (-2.0), 3.0 * 1.5], rel=1e-9)


def test_linear_closed_forms_random_points():
    p = ipm_linear_params()
    m = linear_energy(p)
    rng = np.random.default_rng(0)
    n = 10_000
    phi = np.stack(
        [
            p.phi_M + rng.uniform(-p.phi_M, p.phi_M, n),
            rng.uniform(-p.phi_M, p.phi_M, n),
        ],
        axis=-1,
    )
    theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, n)
    rho = rng.uniform(-0.1, 0.1, n)

    x = phi[:, 0] - p.phi_M
    y = phi[:, 1]
    h_ref = 0.5 * p.kinetic_coeff * rho**2 + x**2 / (2 * p.L_d) + y**2 / (2 * p.L_q)
    h = m.evaluate(theta, rho, phi)
    assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))

    i = currents(m, theta, rho, phi)
    assert np.max(np.abs(i[:, 0] - x / p.L_d)) <= 1e-12 * np.max(np.abs(x / p.L_d))
    assert np.max(np.abs(i[:, 1] - y / p.L_q)) <= 1e-12 * np.max(np.abs(y / p.L_q))

    t_ref = p.n_p * (1.0 / p.L_q - 1.0 / p.L_d) * phi[:, 0] * phi[:, 1] + (
        p.n_p / p.L_d
    ) * phi[:, 1] * p.phi_M
    t = torque(m, theta, rho, phi)
    assert np.max(np.abs(t - t_ref)) <= 1e-12 * np.max(np.abs(t_ref))

    assert np.max(np.abs(speed(m, theta, rho, phi) - p.kinetic_coeff * rho)) == 0.0


def test_unit_current_step_on_d_axis():
    # with inv_L_d = 4.20/phi_M^2 a 9.15 mWb excursion is close to one ampere
    p = ipm_linear_params()
    m = linear_energy(p)
    i = currents(m, 0.0, 0.0, np.array([p.phi_M + 0.00915, 0.0]))
    assert i[0] == pytest.approx(0.00915 / p.L_d, rel=1e-12)
    assert i[0] == pytest.approx(1.0, abs=1e-3)
    assert i[1] == 0.0


def test_magnet_working_point_is_energy_minimum():
    p = ipm_linear_params()
    m = linear_energy(p)
    i = currents(m, 0.3, 0.0, np.array([p.phi_M, 0.0]))
    assert np.max(np.abs(i)) == 0.0
    assert float(m.evaluate(0.0, 0.0, np.array([p.phi_M, 0.0]))) == 0.0


def test_gradient_oracle_linear():
    p = ipm_linear_params()
    m = linear_energy(p)
    rng = np.random.default_rng(42)
    for _ in range(200):
        theta = rng.uniform(-6.0, 6.0)
        rho = rng.uniform(-0.1, 0.1)
        phi = np.array(
            [p.phi_M + rng.uniform(-p.phi_M, p.phi_M), rng.uniform(-p.phi_M, p.phi_M)]
        )
        g_fd = numeric_gradient(lambda v: float(m.evaluate(theta, rho, v)), phi)
        g = m.d_flux(theta, rho, phi)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1e-9)
        d_rho_fd = numeric_gradient(lambda v: float(m.evaluate(theta, v[0], phi)), np.array([rho]))
        assert abs(float(m.d_rho(theta, rho, phi)) - d_rho_fd[0]) <= 1e-5 * max(
            abs(d_rho_fd[0]), 1e-9
        )
        d_theta_fd = numeric_gradient(
            lambda v: float(m.evaluate(v[0], rho, phi)), np.array([theta])
        )
        assert abs(float(m.d_theta(theta, rho, phi)) - d_theta_fd[0]) <= 1e-7


def test_energy_shift_leaves_observables_alone():
    # only derivatives of H are observable; H + const is the same machine
    p = ipm_linear_params()
    base = linear_energy(p)

    class Shifted(type(base)):
        def evaluate(self, theta, rho, phi):
            return super().evaluate(theta, rho, phi) + 123.456

    shifted = Shifted(p)
    rng = np.random.default_rng(1)
    for _ in range(50):
        theta = rng.uniform(-6.0, 6.0)
        rho = rng.uniform(-0.1, 0.1)
        phi = rng.uniform(-0.3, 0.3, 2)
        assert np.array_equal(
            currents(base, theta, rho, phi), currents(shifted, theta, rho, phi)
        )
        assert torque(base, theta, rho, phi) == torque(shifted, theta, rho, phi)


def test_synrm_torque_and_evenness():
    p = synrm_params()
    m = synrm_energy(p)
    rng = np.random.default_rng(2)
    for _ in range(500):
        phi = rng.uniform(-0.4, 0.4, 2)
        rho = rng.uniform(-0.2, 0.2)
        t = torque(m, 0.0, rho, phi)
        t_ref = p.n_p * (1.0 / p.L_q - 1.0 / p.L_d) * phi[0] * phi[1]
        assert t == pytest.approx(t_ref, rel=1e-12, abs=1e-15)
        assert float(m.evaluate(0.1, rho, phi)) == pytest.approx(
            float(m.evaluate(0.1, rho, -phi)), rel=1e-14
        )


def test_synrm_requires_no_magnet():
    p = ipm_linear_params()
    with pytest.raises(ValueError, match="phi_M"):
        synrm_energy(p)


def test_kinetic_conventions():
    J, n_p = 1.2e-3, 3
    k_mech = kinetic_coefficient(J, n_p)
    assert k_mech == pytest.approx(n_p**2 / J, rel=1e-15)
    assert kinetic_coefficient(J, n_p, "reciprocal") == pytest.approx(
        1.0 / (J * n_p**2), rel=1e-15
    )
    # mechanical convention stores the true rotational energy
    omega = 400.0  # electrical rad/s
    rho = omega / k_mech
    p = LinearPmsmParams(1e-2, 1e-2, 0.1, k_mech, n_p)
    m = linear_energy(p)
    h = float(m.evaluate(0.0, rho, np.array([0.1, 0.0])))
    assert h == pytest.approx(0.5 * J * (omega / n_p) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        kinetic_coefficient(J, n_p, "imperial")
    with pytest.raises(ValueError):
        kinetic_coefficient(-1.0, n_p)


@pytest.mark.parametrize("convention", ["mechanical", "reciprocal"])
@pytest.mark.parametrize("n_p", [0, -2])
def test_kinetic_coefficient_rejects_pole_pairs_below_one(convention, n_p):
    with pytest.raises(ValueError, match="n_p must be a positive integer"):
        kinetic_coefficient(1.2e-3, n_p, convention)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LinearPmsmParams(-1e-3, 1e-3, 0.1, 100.0, 3)
    with pytest.raises(ValueError):
        LinearPmsmParams(1e-3, 1e-3, -0.1, 100.0, 3)
    with pytest.raises(ValueError):
        LinearPmsmParams(1e-3, 1e-3, 0.1, 0.0, 3)
    with pytest.raises(ValueError):
        LinearPmsmParams(1e-3, 1e-3, 0.1, 100.0, 0)
    with pytest.raises(ValueError):
        LinearPmsmParams(1e-3, 1e-3, 0.1, 100.0, 3, R_s=-0.5)


def test_broadcast_matches_pointwise():
    p = ipm_linear_params()
    m = linear_energy(p)
    rng = np.random.default_rng(9)
    theta = rng.uniform(-3.0, 3.0, 40)
    rho = rng.uniform(-0.1, 0.1, 40)
    phi = rng.uniform(-0.3, 0.3, (40, 2))
    h = m.evaluate(theta, rho, phi)
    i = m.d_flux(theta, rho, phi)
    for k in range(40):
        assert h[k] == float(m.evaluate(theta[k], rho[k], phi[k]))
        assert np.array_equal(i[k], m.d_flux(theta[k], rho[k], phi[k]))


def test_machine_state_copies_flux():
    phi = np.array([0.1, 0.2])
    s = MachineState(0.0, 0.0, phi)
    phi[0] = 99.0
    assert s.phi[0] == 0.1


def test_machine_states_compare_and_hash_by_value():
    a = MachineState(0.0, 0.0, [0.1, 0.2])
    b = MachineState(0.0, 0.0, np.array([0.1, 0.2]))
    assert a == b and hash(a) == hash(b)
    assert a != MachineState(0.0, 0.0, [0.1, 0.3])
    assert a != MachineState(0.5, 0.0, [0.1, 0.2])
    assert a != MachineState(0.0, 1.0, [0.1, 0.2])
    assert a != MachineState(0.0, 0.0, [0.1, 0.2, 0.0, 0.0])
    assert a != (0.0, 0.0, [0.1, 0.2])
    # zeros of either sign are equal, so they hash alike
    assert MachineState(-0.0, 0.0, [-0.0, 0.2]) == MachineState(0.0, -0.0, [0.0, 0.2])
    assert hash(MachineState(-0.0, 0.0, [-0.0, 0.2])) == hash(MachineState(0.0, -0.0, [0.0, 0.2]))
    seen = {a: "first"}
    assert seen[b] == "first"
    assert MachineState(0.0, 0.0, [0.1, 0.3]) not in seen


def test_machine_state_flux_is_read_only():
    phi = np.array([0.1, 0.2])
    s = MachineState(0.0, 0.0, phi)
    with pytest.raises(ValueError, match="read-only"):
        s.phi[0] = 0.5
    assert phi.flags.writeable  # the caller's array is copied, not frozen
    assert MachineState(s.theta, s.rho, s.phi).phi is not s.phi
