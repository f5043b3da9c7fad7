import dataclasses

import numpy as np
import pytest

from enermach.dynamics import (
    ConstantLoad,
    ConstantVoltage,
    Drive,
    LinearLoad,
    SimConfig,
    SimulationError,
    SinusoidVoltage,
    TableLoad,
    TableVoltage,
    Trajectory,
    power_balance,
    simulate_im,
    simulate_pmsm,
    step_pmsm,
)
from enermach.energy import LinearPmsmParams, MachineState, linear_energy
from enermach.frames import RotTriple, inv_clarke, inv_park, k_transform, rotation2
from enermach.harmonics import HarmonicModel, harmonic_energy
from enermach.induction import im_energy
from helpers import im_params, ipm_harmonic_model, ipm_linear_params, ipm_saturation


# kinetic_coeff = 2**-40 with rho0 = omega * 2**40 pins the speed: the rho
# increment per step is below half an ulp of rho0, so omega stays exactly
# constant and the electrical equations are LTI.
def _pinned_speed_params(omega):
    return LinearPmsmParams(
        L_d=9.0e-3, L_q=13.0e-3, phi_M=0.196, kinetic_coeff=2.0**-40, n_p=3, R_s=1.52
    ), omega * 2.0**40


def _lti_flux(p, omega, u, phi0, t):
    # closed form phi(t) = phi_ss + expm(A t) (phi0 - phi_ss) via eigenpairs
    linv = np.diag([1.0 / p.L_d, 1.0 / p.L_q])
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    a = -(p.R_s * linv + omega * j)
    b = np.asarray(u, dtype=float) + p.R_s * np.array([p.phi_M / p.L_d, 0.0])
    phi_ss = -np.linalg.solve(a, b)
    lam, vec = np.linalg.eig(a)
    c = np.linalg.solve(vec, phi0 - phi_ss)
    return (vec @ (np.exp(lam * t) * c)).real + phi_ss


def _final_flux_error(integrator, dt, t_end=0.01):
    omega = 100.0
    p, rho0 = _pinned_speed_params(omega)
    m = linear_energy(p)
    u = (3.0, -2.0)
    phi0 = np.array([p.phi_M, 0.0])
    cfg = SimConfig(dt=dt, t_end=t_end, integrator=integrator)
    traj = simulate_pmsm(m, MachineState(0.0, rho0, phi0), Drive(ConstantVoltage(*u)), cfg)
    exact = _lti_flux(p, omega, u, phi0, t_end)
    return float(np.max(np.abs(traj.flux()[-1] - exact)))


def test_rk4_tracks_constant_speed_closed_form():
    assert _final_flux_error("rk4", 1.0e-5) < 1.0e-10


def test_rk4_is_fourth_order():
    e1 = _final_flux_error("rk4", 2.0e-4)
    e2 = _final_flux_error("rk4", 1.0e-4)
    assert 11.0 < e1 / e2 < 23.0


def test_euler_is_first_order():
    e1 = _final_flux_error("euler", 2.0e-4)
    e2 = _final_flux_error("euler", 1.0e-4)
    assert 1.7 < e1 / e2 < 2.4
    assert e1 > 100.0 * _final_flux_error("rk4", 2.0e-4)


def test_simulate_is_repeated_stepping():
    m = harmonic_energy(ipm_harmonic_model())
    drive = Drive(
        SinusoidVoltage(amp_d=5.0, amp_q=8.0, freq_hz=120.0, phase_q=0.7),
        LinearLoad(0.4, 1.0e-3),
    )
    dt = 1.0e-4
    cfg = SimConfig(dt=dt, t_end=50 * dt)
    state0 = MachineState(0.2, 0.01, np.array([m.params.phi_M, 0.0]))
    traj = simulate_pmsm(m, state0, drive, cfg)

    s = state0
    states = [np.array([s.theta, s.rho, s.phi[0], s.phi[1]])]
    for k in range(50):
        s = step_pmsm(m, s, drive.voltage, drive.load, dt, t=k * dt)
        states.append(np.array([s.theta, s.rho, s.phi[0], s.phi[1]]))
    manual = np.array(states)

    recorded = np.stack(
        [traj.column("theta"), traj.column("rho"), traj.column("phi_d"), traj.column("phi_q")],
        axis=-1,
    )
    assert np.array_equal(recorded, manual)


def test_conservative_run_keeps_energy():
    # lossless winding, open terminals, no load: H is a constant of motion
    base = dataclasses.replace(ipm_saturation(), R_s=0.0)
    hm = ipm_harmonic_model()
    m = harmonic_energy(HarmonicModel(base=base, terms=hm.terms, zero_axis=hm.zero_axis))
    rho0 = 50.0 / base.kinetic_coeff
    state0 = MachineState(0.1, rho0, np.array([base.phi_M + 0.04, 0.03]))
    cfg = SimConfig(dt=1.0e-5, t_end=0.02)
    traj = simulate_pmsm(m, state0, Drive(), cfg)
    h = np.asarray(m.evaluate(traj.column("theta"), traj.column("rho"), traj.flux()))
    drift = np.max(np.abs(h - h[0])) / abs(h[0])
    assert drift < 1.0e-10
    assert power_balance(m, traj) < 1.0e-10


def test_dissipative_power_balance():
    m = harmonic_energy(ipm_harmonic_model())
    drive = Drive(
        SinusoidVoltage(amp_d=15.0, amp_q=10.0, freq_hz=250.0, phase_q=1.0),
        LinearLoad(0.3, 2.0e-3),
    )
    rho0 = 30.0 / m.params.kinetic_coeff
    state0 = MachineState(0.0, rho0, np.array([m.params.phi_M, 0.0]))
    traj = simulate_pmsm(m, state0, drive, SimConfig(dt=1.0e-5, t_end=0.02))
    assert power_balance(m, traj) < 1.0e-5


def test_resistive_decay_never_gains_energy():
    m = harmonic_energy(ipm_harmonic_model())
    state0 = MachineState(0.0, 0.0, np.array([m.params.phi_M + 0.08, 0.06]))
    traj = simulate_pmsm(m, state0, Drive(), SimConfig(dt=1.0e-5, t_end=0.01))
    h = np.asarray(m.evaluate(traj.column("theta"), traj.column("rho"), traj.flux()))
    assert np.all(np.diff(h) <= 1.0e-11 * abs(h[0]))
    assert h[-1] < h[0]


def test_locked_rotor_im_settles_to_linear_steady_state():
    p = dataclasses.replace(im_params(), kinetic_coeff=2.0**-40)
    omega_s = 2.0 * np.pi * 50.0
    u = np.array([10.0, 0.0, 0.0, 0.0])

    # dphi/dt = u - (R M + omega_s J4) phi with the rotor locked at omega=0
    det = p.det
    m_mat = (
        np.array(
            [
                [p.L_r, 0.0, -p.L_m, 0.0],
                [0.0, p.L_r, 0.0, -p.L_m],
                [-p.L_m, 0.0, p.L_s, 0.0],
                [0.0, -p.L_m, 0.0, p.L_s],
            ]
        )
        / det
    )
    r_mat = np.diag([p.R_s, p.R_s, p.R_r, p.R_r])
    j4 = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    a = r_mat @ m_mat + omega_s * j4
    phi_ss = np.linalg.solve(a, u)

    cfg = SimConfig(dt=1.0e-4, t_end=2.5, omega_s=omega_s, record_stride=100)
    traj = simulate_im(p, MachineState(0.0, 0.0, np.zeros(4)), Drive(ConstantVoltage(10.0, 0.0)), cfg)
    assert traj.flux().shape[1] == 4
    phi_end = traj.flux()[-1]
    assert np.max(np.abs(phi_end - phi_ss)) < 1.0e-7 * np.linalg.norm(phi_ss)
    i_ss = m_mat @ phi_ss
    i_end = np.array(
        [traj.column(c)[-1] for c in ("i_d", "i_q", "i_rd", "i_rq")]
    )
    assert np.max(np.abs(i_end - i_ss)) < 1.0e-6 * np.linalg.norm(i_ss)
    assert np.array_equal(traj.column("theta_s"), omega_s * traj.t)


def test_im_power_balance_includes_rotor_losses():
    p = im_params()
    cfg = SimConfig(dt=1.0e-5, t_end=0.2, omega_s=2.0 * np.pi * 50.0, record_stride=10)
    drive = Drive(ConstantVoltage(60.0, 0.0), LinearLoad(0.0, 3.0e-3))
    traj = simulate_im(p, MachineState(0.0, 0.0, np.zeros(4)), drive, cfg)
    assert power_balance(im_energy(p), traj) < 1.0e-5
    # the rotor must actually spin up so slip power and load power are in play
    assert traj.column("omega")[-1] > 20.0


def test_dq_run_agrees_with_stationary_frame_integration():
    p = ipm_linear_params()
    m = linear_energy(p)
    u_dq = np.array([4.0, -6.0])
    t_load = 0.5
    dt = 1.0e-5
    n = 1000
    theta0, omega0 = 0.3, 50.0
    rho0 = omega0 / p.kinetic_coeff
    phi0 = np.array([p.phi_M, 0.0])

    cfg = SimConfig(dt=dt, t_end=n * dt)
    traj = simulate_pmsm(
        m, MachineState(theta0, rho0, phi0), Drive(ConstantVoltage(*u_dq), ConstantLoad(t_load)), cfg
    )

    # same physics written in stationary coordinates, integrated separately
    def rhs(t, z):
        th, rho = z[0], z[1]
        phis = z[2:]
        rot = rotation2(th)
        phidq = rot.T @ phis
        i_dq = np.array([(phidq[0] - p.phi_M) / p.L_d, phidq[1] / p.L_q])
        i_s = rot @ i_dq
        omega = p.kinetic_coeff * rho
        te = p.n_p * (i_s[1] * phis[0] - i_s[0] * phis[1])
        us = rot @ u_dq
        return np.array(
            [omega, (te - t_load) / p.n_p, us[0] - p.R_s * i_s[0], us[1] - p.R_s * i_s[1]]
        )

    z = np.concatenate([[theta0, rho0], rotation2(theta0) @ phi0])
    for k in range(n):
        t = k * dt
        k1 = rhs(t, z)
        k2 = rhs(t + 0.5 * dt, z + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, z + 0.5 * dt * k2)
        k4 = rhs(t + dt, z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    assert abs(z[0] - traj.column("theta")[-1]) < 1.0e-6
    assert abs(z[1] - traj.column("rho")[-1]) < 1.0e-6
    phi_dq_back = rotation2(z[0]).T @ z[2:]
    assert np.max(np.abs(phi_dq_back - traj.flux()[-1])) < 1.0e-6
    i_s = rotation2(z[0]) @ np.array(
        [(phi_dq_back[0] - p.phi_M) / p.L_d, phi_dq_back[1] / p.L_q]
    )
    te_s = p.n_p * (i_s[1] * z[2] - i_s[0] * z[3])
    assert abs(te_s - traj.column("torque")[-1]) < 1.0e-6


def test_recorded_currents_map_to_balanced_phases():
    m = linear_energy(ipm_linear_params())
    rho0 = 40.0 / m.params.kinetic_coeff
    traj = simulate_pmsm(
        m,
        MachineState(0.0, rho0, np.array([m.params.phi_M, 0.0])),
        Drive(ConstantVoltage(2.0, 5.0)),
        SimConfig(dt=1.0e-4, t_end=5.0e-3),
    )
    theta = traj.column("theta")
    i_d = traj.column("i_d")
    i_q = traj.column("i_q")
    for k in range(len(traj)):
        dq0 = RotTriple(i_d[k], i_q[k], 0.0, theta[k])
        abc = inv_clarke(inv_park(dq0, theta[k]))
        assert abs(abc.a + abc.b + abc.c) < 1.0e-12 * max(
            1.0, abs(abc.a), abs(abc.b), abs(abc.c)
        )
        back = k_transform(abc, theta[k])
        assert (back.d, back.q) == pytest.approx((i_d[k], i_q[k]), abs=1e-12)


def test_csv_round_trip_is_bit_exact(tmp_path):
    m = harmonic_energy(ipm_harmonic_model())
    rho0 = 20.0 / m.params.kinetic_coeff
    traj = simulate_pmsm(
        m,
        MachineState(0.0, rho0, np.array([m.params.phi_M, 0.01])),
        Drive(SinusoidVoltage(amp_d=3.0, freq_hz=60.0)),
        SimConfig(dt=1.0e-4, t_end=3.0e-3),
    )
    path = tmp_path / "run.csv"
    traj.write_csv(path)
    back = Trajectory.read_csv(path)
    assert back.columns == traj.columns
    assert np.array_equal(back.data, traj.data)


def test_record_stride_keeps_final_sample():
    m = linear_energy(ipm_linear_params())
    state0 = MachineState(0.0, 0.0, np.array([m.params.phi_M, 0.0]))
    cfg = SimConfig(dt=1.0e-4, t_end=1.0e-3, record_stride=4)
    traj = simulate_pmsm(m, state0, Drive(), cfg)
    assert traj.t == pytest.approx([0.0, 4.0e-4, 8.0e-4, 1.0e-3], abs=1e-18)


def test_blowup_raises_with_time():
    m = linear_energy(ipm_linear_params())
    state0 = MachineState(0.0, 0.0, np.array([m.params.phi_M, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="non-finite"):
            simulate_pmsm(
                m,
                state0,
                Drive(ConstantVoltage(1.0e200, 1.0e200)),
                SimConfig(dt=1.0e-4, t_end=1.0e-2),
            )
        with pytest.raises(SimulationError) as err:
            step_pmsm(m, state0, (1.0e200, 1.0e200), 0.0, 1.0e-4)
    assert err.value.t == pytest.approx(1.0e-4)


def test_table_drives():
    tv = TableVoltage(times=(0.0, 0.5, 1.0), u_d=(1.0, 2.0, 3.0), u_q=(0.0, 0.0, 0.0))
    assert tv(-0.1)[0] == 1.0
    assert tv(0.0)[0] == 1.0
    assert tv(0.49)[0] == 1.0
    assert tv(0.5)[0] == 2.0
    assert tv(1.2)[0] == 3.0
    tl = TableLoad(times=(0.0, 1.0), torque=(0.5, 1.5))
    assert tl(0.3, 0.0) == 0.5
    assert tl(1.0, 0.0) == 1.5
    # every breakpoint, every gap, both ends: the index rule is
    # searchsorted(side="right") - 1, clamped at the first entry
    times = (-0.25, 0.0, 0.1, 0.35, 1.0, 2.5)
    values = tuple(float(v) for v in range(10, 10 + len(times)))
    tv = TableVoltage(times=times, u_d=values, u_q=tuple(-v for v in values))
    tl = TableLoad(times=times, torque=values)
    gaps = [0.5 * (a + b) for a, b in zip(times, times[1:])]
    probes = list(times) + gaps + [times[0] - 1.0, np.nextafter(times[0], -np.inf), times[-1] + 1.0]
    for t in probes:
        k = max(int(np.searchsorted(times, t, side="right")) - 1, 0)
        assert tv(t) == (values[k], -values[k]), t
        assert tl(t, 0.0) == values[k], t
    with pytest.raises(ValueError, match="strictly increasing"):
        TableVoltage(times=(0.0, 0.0), u_d=(1.0, 1.0), u_q=(0.0, 0.0))
    with pytest.raises(ValueError, match="match the time grid"):
        TableLoad(times=(0.0, 1.0), torque=(0.5,))


def test_config_and_argument_guards():
    with pytest.raises(ValueError, match="dt"):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(dt=1.0e-3, t_end=1.0e-4)
    with pytest.raises(ValueError, match="integrator"):
        SimConfig(integrator="rk5")
    with pytest.raises(ValueError, match="record_stride"):
        SimConfig(record_stride=0)
    m = linear_energy(ipm_linear_params())
    s = MachineState(0.0, 0.0, np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match="unknown integrator"):
        step_pmsm(m, s, (0.0, 0.0), 0.0, 1.0e-4, method="heun")
    with pytest.raises(ValueError, match="two-component"):
        step_pmsm(im_energy(im_params()), MachineState(0.0, 0.0, np.zeros(4)), (0.0, 0.0), 0.0, 1e-4)
    with pytest.raises(ValueError, match="4 components"):
        simulate_im(im_params(), s, Drive(), SimConfig())


def test_write_csv_bytes_match_the_per_value_format(tmp_path):
    rng = np.random.default_rng(29)
    data = rng.standard_normal((40, 17)) * 10.0 ** rng.integers(-300, 301, (40, 17))
    data[0, :8] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-320, 1e300, -1e-300]
    columns = [f"c{k}" for k in range(17)]
    path = tmp_path / "t.csv"
    Trajectory(columns, data).write_csv(path)
    expected = ",".join(columns) + "\n"
    expected += "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in data)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("key", ["dt", "t_end", "omega_s"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sim_config_rejects_non_finite_numbers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        SimConfig(**{key: value})


def test_trajectory_access_guards():
    traj = Trajectory(("t", "x"), np.zeros((3, 2)))
    with pytest.raises(KeyError, match="no column"):
        traj.column("y")
    with pytest.raises(ValueError, match="n_samples"):
        Trajectory(("t", "x"), np.zeros((3, 5)))
    with pytest.raises(ValueError, match="at least 3"):
        power_balance(linear_energy(ipm_linear_params()), Trajectory((), np.zeros((2, 0))))


@pytest.mark.parametrize("as_input", [list, np.array, tuple], ids=["list", "ndarray", "tuple"])
def test_table_drives_hold_tuples_of_floats(as_input):
    times, u_d, u_q, torque = [0.0, 1.0e-4], [1.0, 2.0], [3, 4], [0.1, 0.2]
    tv = TableVoltage(as_input(times), as_input(u_d), as_input(u_q))
    tl = TableLoad(as_input(times), as_input(torque))
    for drive in (tv, tl):
        for f in dataclasses.fields(drive):
            value = getattr(drive, f.name)
            assert type(value) is tuple and all(type(v) is float for v in value)
    assert tv == TableVoltage((0.0, 1.0e-4), (1.0, 2.0), (3.0, 4.0))
    assert hash(tv) == hash(TableVoltage((0.0, 1.0e-4), (1.0, 2.0), (3.0, 4.0)))
    assert hash(tl) == hash(TableLoad((0.0, 1.0e-4), (0.1, 0.2)))


def test_a_table_drive_does_not_follow_the_callers_list():
    times = [0.0, 1.0]
    v = TableVoltage(times, [1.0, 2.0], [0.0, 0.0])
    times[1] = float("nan")
    assert v.times == (0.0, 1.0)
    assert v(1.5) == (2.0, 0.0)
    with pytest.raises(TypeError):
        v.times[1] = float("nan")


def test_table_drives_from_lists_simulate_as_from_tuples():
    m = linear_energy(ipm_linear_params())
    s0 = MachineState(0.1, 0.0, [0.2, 0.0])
    cfg = SimConfig(dt=1.0e-5, t_end=1.0e-3, record_stride=1)
    times, u_d, u_q = [0.0, 3.0e-4, 6.0e-4], [0.0, 10.0, -5.0], [30.0, 20.0, 40.0]
    lists = Drive(TableVoltage(times, u_d, u_q), TableLoad(np.array(times[:2]), [0.0, 0.3]))
    tuples = Drive(TableVoltage(tuple(times), tuple(u_d), tuple(u_q)), TableLoad(tuple(times[:2]), (0.0, 0.3)))
    got = simulate_pmsm(m, s0, lists, cfg).data.tobytes()
    assert got == simulate_pmsm(linear_energy(ipm_linear_params()), s0, tuples, cfg).data.tobytes()
