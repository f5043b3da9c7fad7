"""The blocked reciprocity check against the one-pass reference, its d_flux call count,
the input checks of every check_*, and the simulate summary computed only when printed."""

import dataclasses
import math

import numpy as np
import pytest

from enermach import cli, energy, validate
from enermach.energy import linear_energy, synrm_energy
from enermach.harmonics import harmonic_energy
from enermach.induction import im_energy
from enermach.saturation import saturated_energy
from enermach.validate import (
    check_im_rotation,
    check_parity,
    check_period,
    check_reciprocity,
    check_synrm_evenness,
)
from helpers import (
    CONFIG_DIR,
    BrokenReciprocity,
    _Delegate,
    im_params,
    ipm_harmonic_model,
    ipm_linear_params,
    ipm_saturation,
    reference_check_reciprocity,
    synrm_params,
)

MODELS = {
    "linear": lambda: linear_energy(ipm_linear_params()),
    "synrm": lambda: synrm_energy(synrm_params()),
    "saturated": lambda: saturated_energy(ipm_saturation()),
    "harmonic": lambda: harmonic_energy(ipm_harmonic_model()),
    "induction": lambda: im_energy(im_params()),
}

WRAPPERS = {
    "bare": lambda m: m,
    "delegate": _Delegate,
    "broken": BrokenReciprocity,
}


def _block(m):
    return validate._BLOCK // m.flux_dim**2


class _Counting(_Delegate):
    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def d_flux(self, theta, rho, phi):
        self.calls += 1
        return super().d_flux(theta, rho, phi)


@pytest.mark.parametrize("wrap", WRAPPERS)
@pytest.mark.parametrize("kind", MODELS)
def test_blocked_check_equals_the_reference(kind, wrap):
    m = WRAPPERS[wrap](MODELS[kind]())
    b = _block(m)
    for n in (1, b - 1, b, b + 1, 40_000):
        for seed in (0, 11):
            new = check_reciprocity(m, n_samples=n, seed=seed)
            old = reference_check_reciprocity(m, n_samples=n, seed=seed)
            assert repr(dataclasses.asdict(new)) == repr(dataclasses.asdict(old)), (n, seed)


def test_blocked_check_keeps_the_reference_fd_step_and_tolerance():
    m = BrokenReciprocity(harmonic_energy(ipm_harmonic_model()))
    kwargs = dict(n_samples=3001, tol=1.0e-3, seed=4, fd_step=-3.0e-4)
    new = check_reciprocity(m, **kwargs)
    assert repr(dataclasses.asdict(new)) == repr(dataclasses.asdict(reference_check_reciprocity(m, **kwargs)))


@pytest.mark.parametrize("kind", ["saturated", "induction"])
def test_one_d_flux_call_per_block(kind):
    inner = MODELS[kind]()
    b = _block(inner)
    for n in (1, b - 1, b, b + 1, 3 * b + 5):
        m = _Counting(inner)
        check_reciprocity(m, n_samples=n)
        assert m.calls == math.ceil(n / b), n


def test_harmonic_model_takes_one_cos_sin_per_block(monkeypatch):
    m = harmonic_energy(ipm_harmonic_model())
    seen = []
    real = np.cos

    def cos(x, *args, **kwargs):
        seen.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(energy.np, "cos", cos)
    b = _block(m)
    check_reciprocity(m, n_samples=2 * b)
    orders = len(ipm_harmonic_model().terms)
    assert seen == [(b,)] * (2 * orders)


@pytest.mark.parametrize("wrap", ["bare", "delegate"])
def test_a_model_without_column_probes_takes_the_trig_once_per_sample(wrap, monkeypatch):
    # the default probe path hands d_flux 4 * flux_dim probes of each sample at once, more
    # states than one kernel call takes: they are cut along the samples, not the probes
    m = WRAPPERS[wrap](harmonic_energy(ipm_harmonic_model()))
    seen = []
    real = np.cos

    def cos(x, *args, **kwargs):
        seen.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(energy.np, "cos", cos)
    b = _block(m)
    check_reciprocity(m, n_samples=b)
    orders = len(ipm_harmonic_model().terms)
    assert sum(math.prod(shape) for shape in seen) == orders * b
    assert seen == ([(b,)] * orders if wrap == "bare" else [(b // 2,)] * (2 * orders))


CHECKS = {
    "reciprocity": (check_reciprocity, "saturated"),
    "period": (check_period, "saturated"),
    "parity": (check_parity, "saturated"),
    "synrm_evenness": (check_synrm_evenness, "synrm"),
    "im_rotation": (check_im_rotation, "induction"),
}


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("check", CHECKS)
def test_fewer_than_one_sample_is_rejected(check, n):
    fn, kind = CHECKS[check]
    with pytest.raises(ValueError, match="n_samples"):
        fn(MODELS[kind](), n_samples=n)


@pytest.mark.parametrize("fd_step", [0.0, -0.0, math.nan, math.inf, -math.inf])
def test_reciprocity_rejects_a_zero_or_non_finite_fd_step(fd_step):
    with pytest.raises(ValueError, match="fd_step"):
        check_reciprocity(MODELS["saturated"](), n_samples=10, fd_step=fd_step)


def _counting_power_balance(monkeypatch):
    calls = []
    real = cli.power_balance

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cli, "power_balance", counted)
    return calls


def test_quiet_simulate_computes_no_summary(tmp_path, monkeypatch, capsys):
    calls = _counting_power_balance(monkeypatch)
    out = tmp_path / "t.csv"
    argv = ["simulate", "--config", str(CONFIG_DIR / "linear_ipm.yaml"), "--out", str(out), "--quiet"]
    assert cli.main(argv) == cli.EXIT_OK
    assert calls == []
    assert capsys.readouterr().out == ""
    assert out.exists()


def test_simulate_summary_computes_the_balance_once(tmp_path, monkeypatch, capsys):
    calls = _counting_power_balance(monkeypatch)
    out = tmp_path / "t.csv"
    argv = ["simulate", "--config", str(CONFIG_DIR / "linear_ipm.yaml"), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith(f"wrote {out} (")
    assert lines[1].startswith("final state: t=")
    assert lines[2].startswith("mean torque: ")
    assert lines[3] == f"power balance residual: {calls[0]:.3e}"
