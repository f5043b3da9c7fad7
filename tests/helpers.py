"""Shared fixtures: two reference machines, an induction machine, and
deliberately broken model doubles used to prove the checks can fail."""

import warnings
from pathlib import Path

import numpy as np

from enermach.energy import EnergyModel, LinearPmsmParams, _cos_sin, kinetic_coefficient
from enermach.harmonics import (
    FluxPolynomial,
    HarmonicModel,
    HarmonicTerm,
    ZeroAxisSeries,
)
from enermach.induction import ImParams
from enermach.saturation import SaturationCoefficients, SaturationRangeWarning
from enermach.validate import CheckReport, default_box

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# interior magnet machine: 750 W class, 196 mWb magnet, 3 pole pairs
IPM_PHI_M = 0.196
IPM_SCALED = {
    "phiM2_inv_Ld": 4.20,
    "phiM2_inv_Lq": 2.83,
    "phiM3_alpha_30": 0.770,
    "phiM3_alpha_12": 0.702,
    "phiM4_alpha_40": 0.486,
    "phiM4_alpha_22": 0.734,
    "phiM4_alpha_04": 0.175,
}
IPM_NP = 3
IPM_RS = 1.52

# surface magnet machine: 1.5 kW class, 155 mWb magnet, 5 pole pairs
SPM_PHI_M = 0.155
SPM_SCALED = {
    "phiM2_inv_Ld": 3.06,
    "phiM2_inv_Lq": 2.94,
    "phiM3_alpha_30": 0.655,
    "phiM3_alpha_12": 0.617,
    "phiM4_alpha_40": 0.724,
    "phiM4_alpha_22": 1.010,
    "phiM4_alpha_04": 0.262,
}
SPM_NP = 5
SPM_RS = 2.1


def ipm_linear_params(R_s=IPM_RS):
    return LinearPmsmParams(
        L_d=IPM_PHI_M**2 / IPM_SCALED["phiM2_inv_Ld"],
        L_q=IPM_PHI_M**2 / IPM_SCALED["phiM2_inv_Lq"],
        phi_M=IPM_PHI_M,
        kinetic_coeff=kinetic_coefficient(1.2e-3, IPM_NP),
        n_p=IPM_NP,
        R_s=R_s,
    )


def synrm_params():
    return LinearPmsmParams(
        L_d=45.0e-3,
        L_q=12.0e-3,
        phi_M=0.0,
        kinetic_coeff=kinetic_coefficient(2.0e-3, 2),
        n_p=2,
        R_s=0.9,
    )


def ipm_saturation(R_s=IPM_RS):
    return SaturationCoefficients.from_scaled(
        IPM_PHI_M,
        **IPM_SCALED,
        kinetic_coeff=kinetic_coefficient(1.2e-3, IPM_NP),
        n_p=IPM_NP,
        R_s=R_s,
    )


def spm_saturation(R_s=SPM_RS):
    return SaturationCoefficients.from_scaled(
        SPM_PHI_M,
        **SPM_SCALED,
        kinetic_coeff=kinetic_coefficient(2.4e-3, SPM_NP),
        n_p=SPM_NP,
        R_s=R_s,
    )


def ipm_harmonic_model():
    m = IPM_PHI_M
    terms = (
        HarmonicTerm(
            k=1,
            a_poly=FluxPolynomial({(0, 0): 8.0e-3, (1, 0): 2.0e-2, (2, 0): 5.0e-2, (0, 2): 3.0e-2}),
            b_poly=FluxPolynomial({(0, 1): 1.5e-2, (1, 1): 4.0e-2, (0, 3): 0.3}),
        ),
        HarmonicTerm(
            k=2,
            a_poly=FluxPolynomial({(0, 0): 2.0e-3, (2, 2): 0.8}),
            b_poly=FluxPolynomial({(2, 1): 0.2}),
        ),
    )
    zero = ZeroAxisSeries(cos_coeffs=(4.0e-3, 1.0e-3), sin_coeffs=(2.0e-3,))
    return HarmonicModel(base=ipm_saturation(), terms=terms, zero_axis=zero)


def im_params():
    return ImParams(
        L_s=0.12,
        L_r=0.12,
        L_m=0.11,
        R_s=2.0,
        R_r=1.5,
        kinetic_coeff=kinetic_coefficient(5.0e-3, 2),
        n_p=2,
    )


def _reference_poly(terms, xp, yp):
    acc = 0.0
    for (i, j), c in terms.items():
        acc = acc + c * xp[i] * yp[j]
    return acc


def reference_kernel(tables, degree, theta, x, y, zero):
    """The table interpreter the compiled kernels replaced, kept as their reference.

    Evaluates each table at (theta, x, y), totals starting from ``zero``;
    ``degree`` must be at least the highest exponent in the tables.
    """
    xp, yp = [1.0, x], [1.0, y]
    for _ in range(degree - 1):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    trig = {}
    out = []
    for t in tables:
        total = zero
        for w, a, b in t:
            value = _reference_poly(a, xp, yp)
            if w:
                if w not in trig:
                    trig[w] = _cos_sin(w, theta)
                cos_w, sin_w = trig[w]
                value = value * cos_w + _reference_poly(b, xp, yp) * sin_w
            total = total + value
        out.append(total)
    return out


def reference_simulate(model, state0, drive, cfg):
    """The stage-by-stage simulator loop the generated step replaced, kept as its reference.

    Returns the record rows as a float array.  Every stage evaluates the
    model through ``_step_gradient``; the state is a list of Python floats.
    """
    n_p = model.pole_pairs
    R_s = float(model.params.R_s)
    R_r = float(model.params.R_r) if model.flux_dim == 4 else 0.0
    rotor = model.flux_dim == 4
    omega_s = cfg.omega_s

    def observe(t, y):
        theta, rho, *phi = y
        i, omega, h_theta = model._step_gradient(theta, rho, phi)
        te = -n_p * h_theta + n_p * (i[1] * phi[0] - i[0] * phi[1])
        u_d, u_q = drive.voltage(t)
        return theta, rho, phi, i, omega, te, u_d, u_q, drive.load(t, omega)

    def rhs(t, y):
        _, _, phi, i, omega, te, u_d, u_q, t_load = observe(t, y)
        w_s = omega_s if rotor else omega
        dy = [
            omega,
            (te - t_load) / n_p,
            u_d - R_s * i[0] + w_s * phi[1],
            u_q - R_s * i[1] - w_s * phi[0],
        ]
        if rotor:
            slip = omega_s - omega
            dy += [-R_r * i[2] + slip * phi[3], -R_r * i[3] - slip * phi[2]]
        return dy

    def record(t, y):
        theta, rho, phi, i, omega, te, u_d, u_q, t_load = observe(t, y)
        row = [t, theta, rho, omega, phi[0], phi[1], i[0], i[1], u_d, u_q, te, t_load]
        if rotor:
            row += [phi[2], phi[3], i[2], i[3], omega_s * t]
        return row

    def advance(t, y, dt):
        if cfg.integrator == "euler":
            return [a + dt * b for a, b in zip(y, rhs(t, y))]
        h = 0.5 * dt
        k1 = rhs(t, y)
        k2 = rhs(t + h, [a + h * b for a, b in zip(y, k1)])
        k3 = rhs(t + h, [a + h * b for a, b in zip(y, k2)])
        k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
        h6 = dt / 6.0
        return [
            a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]

    n = max(1, int(round(cfg.t_end / cfg.dt)))
    y = [float(state0.theta), float(state0.rho), *state0.phi.tolist()]
    rows = [record(0.0, y)]
    for k in range(n):
        y = advance(k * cfg.dt, y, cfg.dt)
        if (k + 1) % cfg.record_stride == 0 or k + 1 == n:
            rows.append(record((k + 1) * cfg.dt, y))
    return np.array(rows)


def reference_check_reciprocity(
    m, n_samples=10_000, tol=1.0e-10, seed=0, box=None, fd_step=1.0e-5
):
    """The one-pass reciprocity check the blocked one replaced, kept as its reference.

    Calls ``d_flux`` 4 * flux_dim times on all samples at once and builds
    the (n_samples, flux_dim, flux_dim) Jacobian row-major.
    """
    box = box or default_box(m)
    rng = np.random.default_rng(seed)
    theta, rho, phi = box.draw(rng, n_samples)
    dim = phi.shape[1]
    h = fd_step * np.maximum(1.0, np.linalg.norm(phi, axis=1))

    def central(step_sizes):
        out = np.empty((n_samples, dim, dim))
        for j in range(dim):
            step = np.zeros_like(phi)
            step[:, j] = step_sizes
            out[:, :, j] = (
                m.d_flux(theta, rho, phi + step) - m.d_flux(theta, rho, phi - step)
            ) / (2.0 * step_sizes[:, None])
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationRangeWarning)
        jac = (4.0 * central(h) - central(2.0 * h)) / 3.0

    asym = np.abs(jac - np.transpose(jac, (0, 2, 1)))
    per_point = asym.reshape(n_samples, -1).max(axis=1)
    worst = int(np.argmax(per_point))
    max_abs = float(per_point[worst])
    scale = max(float(np.max(np.abs(jac))), 1.0e-30)
    point = {"theta": float(theta[worst]), "rho": float(rho[worst])}
    for k in range(dim):
        point[f"phi_{k}"] = float(phi[worst, k])
    return CheckReport(
        name="reciprocity",
        samples=n_samples,
        tolerance=tol,
        max_abs=max_abs,
        scale=scale,
        max_rel=max_abs / scale,
        passed=bool(max_abs / scale < tol),
        worst_point=point,
    )


class _Delegate(EnergyModel):
    """Pass-through wrapper; subclasses override one derivative to break it."""

    def __init__(self, inner):
        self.inner = inner
        self.flux_dim = inner.flux_dim
        self.pole_pairs = inner.pole_pairs
        self.params = getattr(inner, "params", None)

    def evaluate(self, theta, rho, phi):
        return self.inner.evaluate(theta, rho, phi)

    def d_flux(self, theta, rho, phi):
        return self.inner.d_flux(theta, rho, phi)

    def d_theta(self, theta, rho, phi):
        return self.inner.d_theta(theta, rho, phi)

    def d_rho(self, theta, rho, phi):
        return self.inner.d_rho(theta, rho, phi)


class BrokenReciprocity(_Delegate):
    """i_q picks up eps*phi_d with no matching term in i_d."""

    def __init__(self, inner, eps=1.0e-3):
        super().__init__(inner)
        self.eps = eps

    def d_flux(self, theta, rho, phi):
        phi = np.asarray(phi, dtype=float)
        i = np.array(self.inner.d_flux(theta, rho, phi), dtype=float)
        i[..., 1] = i[..., 1] + self.eps * phi[..., 0]
        return i


class InjectedAngleTerm(_Delegate):
    """Adds amp*cos(mult*theta) to the energy (period spoiler for mult=3)."""

    def __init__(self, inner, amp=1.0e-3, mult=3.0):
        super().__init__(inner)
        self.amp = amp
        self.mult = mult

    def evaluate(self, theta, rho, phi):
        theta = np.asarray(theta, dtype=float)
        return self.inner.evaluate(theta, rho, phi) + self.amp * np.cos(self.mult * theta)

    def d_theta(self, theta, rho, phi):
        theta = np.asarray(theta, dtype=float)
        return self.inner.d_theta(theta, rho, phi) - self.amp * self.mult * np.sin(
            self.mult * theta
        )


class BrokenParity(_Delegate):
    """Adds c*phi_q**3: odd in phi_q, consistent gradient (reciprocity-safe)."""

    def __init__(self, inner, c=1.0e-3):
        super().__init__(inner)
        self.c = c

    def evaluate(self, theta, rho, phi):
        phi = np.asarray(phi, dtype=float)
        return self.inner.evaluate(theta, rho, phi) + self.c * phi[..., 1] ** 3

    def d_flux(self, theta, rho, phi):
        phi = np.asarray(phi, dtype=float)
        i = np.array(self.inner.d_flux(theta, rho, phi), dtype=float)
        i[..., 1] = i[..., 1] + 3.0 * self.c * phi[..., 1] ** 2
        return i


class BrokenImRotation(_Delegate):
    """Adds eps*phi_sd**2: singles out one direction of the common frame."""

    def __init__(self, inner, eps=1.0e-3):
        super().__init__(inner)
        self.eps = eps

    def evaluate(self, theta, rho, phi):
        phi = np.asarray(phi, dtype=float)
        return self.inner.evaluate(theta, rho, phi) + self.eps * phi[..., 0] ** 2

    def d_flux(self, theta, rho, phi):
        phi = np.asarray(phi, dtype=float)
        i = np.array(self.inner.d_flux(theta, rho, phi), dtype=float)
        i[..., 0] = i[..., 0] + 2.0 * self.eps * phi[..., 0]
        return i
