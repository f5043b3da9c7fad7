"""Exact certificates of the structural identities, on the code the library runs.

Each shipped model's stage source, the lines the simulator's generated step
inlines for one evaluation, runs here on sympy symbols for theta, rho and
the flux.  Every float it binds is taken as the exact Rational it holds, the
flux-box test is dropped and the one-state trig branch is taken.  What the
floating-point checks of :mod:`enermach.validate` sample at random states is
then an identity in the symbols, and its residual must expand to exactly 0:

* reciprocity, d i_j / d phi_k = d i_k / d phi_j;
* the energy balance grad H . f = p_in - p_diss - p_mech, with f and the
  powers from ``dynamics._equations`` and the torque from ``energy._TORQUE``;
* the pi/3 period of the currents and of h_theta;
* parity (five two-flux configs), SynRM evenness and the IM rotation, as
  the symmetries of the gradient they imply.

The zero-axis series is certified on its compiled table kernel, rebuilt
from its code object with sympy values in its closure cells.  Each kind of
certificate is shown to catch a broken copy: the residual of a mutant is
non-zero, and it is printed.
"""

import re
import types

import pytest

sympy = pytest.importorskip("sympy")

from enermach.config import load_config  # noqa: E402
from enermach.dynamics import _EQUATIONS, _equations  # noqa: E402
from enermach.energy import _CURRENT_NAMES, _FLUX_NAMES, _TORQUE, _TORQUE_ANGLE, PolynomialEnergy  # noqa: E402
from enermach.harmonics import ZeroAxisSeries  # noqa: E402

from helpers import CONFIG_DIR  # noqa: E402

CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))
MODELS = {name: load_config(CONFIG_DIR / f"{name}.yaml").model for name in CONFIGS}
TWO_FLUX = [name for name in CONFIGS if MODELS[name].flux_dim == 2]

THETA, RHO = sympy.symbols("theta rho", real=True)
FLUX = sympy.symbols(_FLUX_NAMES, real=True)
C, S = sympy.symbols("c s", real=True)

_FLOAT = re.compile(r"(?<![\w.])\d+\.\d*(?:e[-+]?\d+)?")


def _exact(value):
    """A bound value for sympy: a float as its exact Rational, math.cos/sin as sympy's."""
    if isinstance(value, float):
        return sympy.Rational(value)
    return {"cos": sympy.cos, "sin": sympy.sin}.get(getattr(value, "__name__", None), value)


def _one_state(lines) -> str:
    """The stage lines without the box test, with the trig branch taken and float literals exact."""
    kept, branch = [], None
    for line in lines:
        if line.startswith("if ") or line == "else:":
            branch = "trig" if line.startswith("if A") else None
        elif line.startswith(" "):
            if branch == "trig":
                kept.append(line.strip())
        else:
            kept.append(line)
    return "\n".join(_FLOAT.sub(lambda m: f"Rational({m.group()})", line) for line in kept)


def _gradient(model, theta=THETA, rho=RHO, phi=FLUX) -> list:
    """``[i_d, i_q, (i_rd, i_rq,) omega, h_theta]`` of the model's stage source, in sympy."""
    env: dict = {}
    source = _one_state(model._stage_source(env))
    names = {k: _exact(v) for k, v in env.items()}
    names.update(Rational=sympy.Rational, theta=theta, rho=rho, ts=sympy.Symbol("ts"))
    names.update(zip(_FLUX_NAMES, phi[: model.flux_dim]))
    exec(source, names)
    return [names.get(n, sympy.Integer(0)) for n in (*_CURRENT_NAMES[: model.flux_dim], "omega", "h_theta")]


def _zero(name: str, residual) -> None:
    residual = sympy.expand(residual)
    print(f"{name}: residual {residual}")
    assert residual == 0, f"{name}: residual {residual}"


def _balance(model, table=_EQUATIONS, torque=_TORQUE):
    """grad H . f - (p_in - p_diss - p_mech) of the model on ``table`` with the torque ``torque``."""
    dim = model.flux_dim
    *i, omega, h_theta = _gradient(model)
    names = dict(zip(_CURRENT_NAMES, i), omega=omega, h_theta=h_theta, **dict(zip(_FLUX_NAMES, FLUX)))
    names.update({k: sympy.Symbol(k, real=True) for k in ("u_d", "u_q", "t_load", "omega_s", "R_s", "R_r", "n_p")})
    names["nR_r"] = -names["R_r"]
    slip, slopes, powers = _equations(dim, table)
    exec("\n".join([*slip, f"te = {torque}"]), names)
    f = [eval(slope, names) for slope in slopes]
    p_in, p_diss, p_mech = (eval(powers[p], names) for p in ("p_in", "p_diss", "p_mech"))
    return sum(g * fk for g, fk in zip([h_theta, omega, *i], f)) - (p_in - p_diss - p_mech)


# ---------------------------------------------------------------------------
# the identities on the six shipped configs


@pytest.mark.parametrize("name", CONFIGS)
def test_reciprocity_is_exact(name):
    model = MODELS[name]
    i = _gradient(model)[: model.flux_dim]
    for j in range(model.flux_dim):
        for k in range(j + 1, model.flux_dim):
            _zero(f"{name} d i_{j}/d phi_{k}", sympy.diff(i[j], FLUX[k]) - sympy.diff(i[k], FLUX[j]))


@pytest.mark.parametrize("name", CONFIGS)
def test_the_energy_balance_is_exact(name):
    _zero(f"{name} balance", _balance(MODELS[name]))


@pytest.mark.parametrize("name", CONFIGS)
def test_currents_and_h_theta_have_period_pi_over_3(name):
    model = MODELS[name]
    labels = (*_CURRENT_NAMES[: model.flux_dim], "omega", "h_theta")
    for label, a, b in zip(labels, _gradient(model, theta=THETA + sympy.pi / 3), _gradient(model)):
        _zero(f"{name} {label}(theta + pi/3) - {label}(theta)", a - b)


@pytest.mark.parametrize("name", TWO_FLUX)
def test_parity_is_exact(name):
    # H(theta, rho, phi_d, phi_q) = H(-theta, -rho, phi_d, -phi_q): i_d is even under
    # the mirror, and i_q, omega and h_theta are odd
    phi_d, phi_q = FLUX[:2]
    mirrored = _gradient(MODELS[name], theta=-THETA, rho=-RHO, phi=(phi_d, -phi_q))
    signs = (1, -1, -1, -1)
    for label, a, b, sign in zip(("i_d", "i_q", "omega", "h_theta"), mirrored, _gradient(MODELS[name]), signs):
        _zero(f"{name} parity of {label}", a - sign * b)


def test_synrm_evenness_is_exact():
    # H(theta, rho, -phi) = H(theta, rho, phi): the currents are odd in the flux, the rest even
    model = MODELS["synrm"]
    flipped = _gradient(model, phi=tuple(-p for p in FLUX))
    for label, a, b, sign in zip(("i_d", "i_q", "omega", "h_theta"), flipped, _gradient(model), (-1, -1, 1, 1)):
        _zero(f"synrm evenness of {label}", a - sign * b)


def test_im_currents_turn_with_both_fluxes():
    # H(theta, rho, R phi) = H(theta, rho, phi) for R a common rotation of both pairs:
    # i(R phi) = R i(phi), for any c and s
    def turn(v):
        return (C * v[0] - S * v[1], S * v[0] + C * v[1], C * v[2] - S * v[3], S * v[2] + C * v[3])

    model = MODELS["im_2kw"]
    *i_turned, omega_turned, _ = _gradient(model, phi=turn(FLUX))
    *i, omega, _ = _gradient(model)
    for label, a, b in zip(_CURRENT_NAMES, i_turned, turn(i)):
        _zero(f"im_2kw rotation of {label}", a - b)
    _zero("im_2kw rotation of omega", omega_turned - omega)


# ---------------------------------------------------------------------------
# the zero-axis series on its table kernel


def _symbolic_kernel(kernel):
    """``kernel`` rebuilt from its code object, with sympy values in its closure cells and constants."""
    code = kernel.__code__
    consts = tuple(sympy.Rational(c) if isinstance(c, float) else c for c in code.co_consts)
    cells = {"_cos_sin": lambda w, theta: (sympy.cos(w * theta), sympy.sin(w * theta))}
    values = [cells.get(n, _exact(cell.cell_contents)) for n, cell in zip(code.co_freevars, kernel.__closure__)]
    closure = tuple(map(types.CellType, values))
    return types.FunctionType(code.replace(co_consts=consts), {}, code.co_name, None, closure)


# the slope's coefficients are the floats w * c of the derivative table: exact
# for these dyadic coefficients, one rounding off for decimal ones
DYADIC = ZeroAxisSeries((0.5, -0.25, 0.125), (7.0, 0.0, 1.5))
SERIES = {"harmonic_ipm": MODELS["harmonic_ipm"].harmonic_model.zero_axis, "dyadic": DYADIC}


def _series(series, theta=THETA):
    return _symbolic_kernel(series._series_kernel)(theta, sympy.Integer(0))


@pytest.mark.parametrize("name", sorted(SERIES))
def test_the_zero_axis_kernel_has_period_2pi_over_3(name):
    phi0, _ = _series(SERIES[name])
    assert phi0 != 0
    _zero(f"{name} phi0(theta + 2 pi/3) - phi0(theta)", _series(SERIES[name], THETA + 2 * sympy.pi / 3)[0] - phi0)


def test_the_zero_axis_kernel_slope_is_the_derivative_of_its_value():
    phi0, slope = _series(DYADIC)
    _zero("dyadic d phi0/d theta - slope", sympy.diff(phi0, THETA) - slope)


def test_the_zero_axis_kernel_slope_of_decimal_coefficients_is_off_by_one_rounding_per_term():
    phi0, slope = _series(SERIES["harmonic_ipm"])
    exact = sympy.expand(sympy.diff(phi0, THETA)).as_coefficients_dict()
    kernel = sympy.expand(slope).as_coefficients_dict()
    assert exact.keys() == kernel.keys()
    for term, c in exact.items():
        assert abs(kernel[term] - c) <= abs(c) * sympy.Rational(1, 2**53), term


# ---------------------------------------------------------------------------
# each certificate catches a broken copy


def _nonzero(name: str, residual, term) -> None:
    residual = sympy.expand(residual)
    print(f"{name}: residual {residual}")
    assert residual != 0
    assert residual.has(term), residual


def test_a_row_of_angle_order_4_breaks_the_period():
    model = MODELS["harmonic_ipm"]
    mutant = PolynomialEnergy([*model._h, (4, {(1, 0): 0.01}, {})], model._phi_M, model._kappa, model.pole_pairs)
    (i_d, *_), (i_d0, *_) = _gradient(mutant, theta=THETA + sympy.pi / 3), _gradient(mutant)
    _nonzero("harmonic_ipm + order 4: i_d(theta + pi/3) - i_d(theta)", i_d - i_d0, sympy.cos(4 * THETA))


def test_a_flipped_frame_term_breaks_the_balance():
    table = {**_EQUATIONS, "phi_d": _EQUATIONS["phi_d"].replace("+ {frame}", "- {frame}")}
    # the flipped term is 2 i_d frame phi_q, with the frame speed kappa rho or omega_s
    for name, speed in (("saturated_ipm", RHO), ("im_2kw", sympy.Symbol("omega_s", real=True))):
        _nonzero(f"{name} with phi_d' = {table['phi_d']}", _balance(MODELS[name], table), speed)


def test_dropping_the_torque_cross_term_breaks_the_balance():
    for name in ("linear_ipm", "harmonic_ipm", "im_2kw"):
        _nonzero(f"{name} with te = {_TORQUE_ANGLE}", _balance(MODELS[name], torque=_TORQUE_ANGLE), RHO)
