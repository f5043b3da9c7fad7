"""Command-line front end: verbs, exit codes, output files."""

import concurrent.futures
import csv
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from enermach.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from enermach.config import _YAML_LOADER, MotorConfig
from enermach.identify import generate_synthetic, write_samples_csv
from enermach.saturation import SCALED_KEYS, SaturationCoefficients

from helpers import CONFIG_DIR, IPM_SCALED

SRC_DIR = CONFIG_DIR.parent / "src"

PMSM_CONFIGS = ["linear_ipm", "synrm", "saturated_ipm", "saturated_spm", "harmonic_ipm"]


def config_path(name):
    return str(CONFIG_DIR / f"{name}.yaml")


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


def rewrite(config_name, tmp_path, mutate):
    """Load a shipped config, apply mutate(dict), save to tmp, return path."""
    with open(config_path(config_name)) as f:
        d = yaml.safe_load(f)
    mutate(d)
    out = tmp_path / "cfg.yaml"
    with open(out, "w") as f:
        yaml.safe_dump(d, f)
    return str(out)


def ipm_samples_csv(tmp_path, noise=0.0, name="samples.csv"):
    c = SaturationCoefficients.from_scaled(phi_M=0.196, n_p=3, R_s=1.52, **IPM_SCALED)
    d = np.linspace(-0.15, 0.15, 6) + c.phi_M
    q = np.linspace(-0.15, 0.15, 5)
    samples = generate_synthetic(c, d, q, noise=noise, seed=11)
    path = tmp_path / name
    write_samples_csv(path, samples)
    return str(path)


# ---------------------------------------------------------------------------
# argument parsing


def test_help_lists_all_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--config", "--out", "--seed", "--quiet"):
        assert flag in text


def test_top_level_help_lists_verbs(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for verb in ("simulate", "im-sim", "identify", "ripple", "validate", "flux-map", "sweep"):
        assert verb in text


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", config_path("linear_ipm"), "--bogus"])
    assert exc.value.code != 0
    assert "--bogus" in capsys.readouterr().err


def test_config_flag_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code != 0


# ---------------------------------------------------------------------------
# shipped configs round-trip


@pytest.mark.parametrize("name", PMSM_CONFIGS)
def test_shipped_pmsm_configs_simulate(name, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", config_path(name), "--out", str(out)])
    assert code == EXIT_OK
    header, data = read_csv(out)
    assert header[:2] == ["t", "theta"]
    assert data.shape[0] > 100
    assert np.all(np.isfinite(data))


def test_shipped_im_config_simulates(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["im-sim", "--config", config_path("im_2kw"), "--out", str(out)])
    assert code == EXIT_OK
    header, data = read_csv(out)
    assert "phi_rd" in header
    assert np.all(np.isfinite(data))


@pytest.mark.parametrize("name", PMSM_CONFIGS + ["im_2kw"])
def test_shipped_configs_validate_clean(name, tmp_path, capsys):
    code = main(["validate", "--config", config_path(name)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "checks passed" in out
    assert "FAIL" not in out


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["simulate", "--config", config_path("saturated_ipm"), "--out", str(out), "--quiet"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# simulate output contract


def test_simulate_prints_summary(tmp_path, capsys):
    out = tmp_path / "t.csv"
    main(["simulate", "--config", config_path("linear_ipm"), "--out", str(out)])
    text = capsys.readouterr().out
    assert "final state:" in text
    assert "mean torque:" in text
    assert "power balance residual:" in text


def test_quiet_suppresses_summary(tmp_path, capsys):
    out = tmp_path / "t.csv"
    main(["simulate", "--config", config_path("linear_ipm"), "--out", str(out), "--quiet"])
    assert capsys.readouterr().out == ""
    assert out.exists()


def test_simulate_rejects_im_model(capsys):
    code = main(["simulate", "--config", config_path("im_2kw")])
    assert code == EXIT_CONFIG
    assert "im-sim" in capsys.readouterr().err


def test_im_sim_rejects_single_winding_model(capsys):
    code = main(["im-sim", "--config", config_path("linear_ipm")])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# exit codes


def test_invalid_parameter_exits_1(tmp_path, capsys):
    path = rewrite("linear_ipm", tmp_path, lambda d: d["model"].__setitem__("L_d", -1.0))
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    assert "model" in capsys.readouterr().err


def test_unknown_key_exits_1_with_dotted_path(tmp_path, capsys):
    path = rewrite("linear_ipm", tmp_path, lambda d: d["model"].__setitem__("L_x", 1.0))
    code = main(["simulate", "--config", path])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "model" in err and "L_x" in err


@pytest.mark.parametrize(
    "key, value",
    [("t_end", float("inf")), ("dt", float("nan")), ("t_end", 10**400)],
    ids=["t_end-inf", "dt-nan", "t_end-huge-int"],
)
def test_non_finite_number_exits_1_naming_the_key(key, value, tmp_path):
    path = rewrite("saturated_ipm", tmp_path, lambda d: d["sim"].__setitem__(key, value))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    argv = ["simulate", "--config", path, "--out", str(tmp_path / "o.csv")]
    run = subprocess.run(
        [sys.executable, "-m", "enermach.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == EXIT_CONFIG
    assert f"sim.{key}" in run.stderr
    assert "Traceback" not in run.stderr


def test_malformed_yaml_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("model: [n_p: 3\n")
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "not valid YAML" in err and "Traceback" not in err


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_config_loader_reads_the_pure_python_loaders_mapping(path):
    # repr tells an int from an equal float, which a run could tell apart
    text = path.read_text()
    assert repr(yaml.load(text, Loader=_YAML_LOADER)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_importing_the_cli_leaves_the_process_pool_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, enermach.cli; print('concurrent.futures' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_missing_config_exits_3(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.yaml")])
    assert code == EXIT_IO


def test_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "o.csv"
    code = main(["simulate", "--config", config_path("linear_ipm"), "--out", str(out)])
    assert code == EXIT_IO


def test_schema_version_is_checked(tmp_path, capsys):
    path = rewrite("linear_ipm", tmp_path, lambda d: d.__setitem__("schema_version", 99))
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert "schema_version" in capsys.readouterr().err

    path = rewrite("linear_ipm", tmp_path, lambda d: d.pop("schema_version"))
    assert main(["simulate", "--config", path]) == EXIT_CONFIG


def test_scaled_coefficients_need_the_flag(tmp_path, capsys):
    path = rewrite("saturated_ipm", tmp_path, lambda d: d["model"]["saturation"].pop("scaled"))
    assert main(["simulate", "--config", path]) == EXIT_CONFIG
    assert "scaled" in capsys.readouterr().err


def test_raw_coefficient_form_runs(tmp_path):
    def swap(d):
        d["model"]["saturation"] = {
            "scaled": False,
            "coefficients": {
                "inv_L_d": 4.20 / 0.196**2,
                "inv_L_q": 2.83 / 0.196**2,
                "alpha_30": 0.770 / 0.196**3,
            },
        }
        d["sim"]["t_end"] = 0.01

    path = rewrite("saturated_ipm", tmp_path, swap)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o.csv"), "--quiet"]) == EXIT_OK


# ---------------------------------------------------------------------------
# identify verb


def test_identify_matches_published_coefficients(tmp_path, capsys):
    samples = ipm_samples_csv(tmp_path)
    out = tmp_path / "fit.csv"
    code = main([
        "identify", "--config", config_path("saturated_ipm"),
        "--samples", samples, "--out", str(out),
    ])
    assert code == EXIT_OK
    with open(out, newline="") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == ["name", "value", "std_error"]
        rows = {row["name"]: float(row["value"]) for row in reader}
    assert set(rows) == set(SCALED_KEYS)
    for key, published in IPM_SCALED.items():
        assert rows[key] == pytest.approx(published, rel=1e-6)
    text = capsys.readouterr().out
    assert "condition number" in text


def test_identify_six_rows_is_insufficient(tmp_path, capsys):
    full = ipm_samples_csv(tmp_path)
    short = tmp_path / "six.csv"
    with open(full) as f:
        lines = f.readlines()
    short.write_text("".join(lines[:7]))
    code = main(["identify", "--config", config_path("saturated_ipm"), "--samples", str(short)])
    assert code == EXIT_CONFIG
    assert "insufficient samples" in capsys.readouterr().err


def test_identify_reports_rank_deficiency(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    with open(flat, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["phi_d", "phi_q", "i_d", "i_q"])
        for k in range(10):
            x = 0.196 + 0.01 * k
            w.writerow([x, 0.0, 10.0 * (x - 0.196), 0.0])
    code = main(["identify", "--config", config_path("saturated_ipm"), "--samples", str(flat)])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "rank" in err and "unobservable" in err


def test_identify_with_refinement(tmp_path, capsys):
    samples = ipm_samples_csv(tmp_path, noise=0.002)
    code = main([
        "identify", "--config", config_path("saturated_spm"),
        "--samples", samples, "--out", str(tmp_path / "fit.csv"),
    ])
    # saturated_spm.yaml turns refine_phi_M on; phi_M starts from the SPM
    # value and must walk to the IPM truth
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "refinement converged" in text


# ---------------------------------------------------------------------------
# ripple and flux-map verbs


def test_ripple_without_harmonics_is_constant(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["ripple", "--config", config_path("synrm"), "--out", str(out), "--quiet"]) == EXIT_OK
    header, data = read_csv(out)
    assert header == ["theta", "torque"]
    assert np.ptp(data[:, 1]) == 0.0


def test_ripple_with_harmonics_varies(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["ripple", "--config", config_path("harmonic_ipm"), "--out", str(out), "--quiet"]) == EXIT_OK
    _, data = read_csv(out)
    assert np.ptp(data[:, 1]) > 1e-3


def test_flux_map_linear_model_is_affine(tmp_path):
    out = tmp_path / "fm.csv"
    assert main(["flux-map", "--config", config_path("synrm"), "--out", str(out), "--quiet"]) == EXIT_OK
    header, data = read_csv(out)
    assert header == ["phi_d", "phi_q", "i_d", "i_q", "energy"]
    phi_d, i_d = data[:, 0], data[:, 2]
    # i_d = phi_d / L_d exactly, independent of phi_q
    coef = np.polyfit(phi_d, i_d, 1)
    assert coef[0] == pytest.approx(1.0 / 40.0e-3, rel=1e-12)
    residual = i_d - np.polyval(coef, phi_d)
    assert np.max(np.abs(residual)) < 1e-9 * np.max(np.abs(i_d))


# ---------------------------------------------------------------------------
# sweep verb


def test_sweep_writes_per_run_files(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code = main(["sweep", "--config", config_path("im_2kw"), "--out", str(out_dir)])
    assert code == EXIT_OK
    files = sorted(out_dir.glob("*.csv"))
    assert len(files) == 3
    finals = []
    for f in files:
        _, data = read_csv(f)
        finals.append(data[-1, :])
    # different drive voltages give different end states
    assert not np.allclose(finals[0], finals[1])
    assert not np.allclose(finals[1], finals[2])


def test_sweep_point_matches_direct_run(tmp_path):
    out_dir = tmp_path / "runs"
    main(["sweep", "--config", config_path("im_2kw"), "--out", str(out_dir), "--quiet"])
    direct = tmp_path / "direct.csv"
    main(["im-sim", "--config", config_path("im_2kw"), "--out", str(direct), "--quiet"])
    # sweep value 60.0 equals the base config drive
    swept = out_dir / "im_2kw_sweep_001.csv"
    assert swept.read_bytes() == direct.read_bytes()


def test_sweep_rejects_bad_value_before_running(tmp_path, capsys):
    path = rewrite(
        "im_2kw", tmp_path,
        lambda d: d.__setitem__("sweep", {"parameter": "model.L_m", "values": [0.11, 0.5], "workers": 1}),
    )
    out_dir = tmp_path / "runs"
    code = main(["sweep", "--config", path, "--out", str(out_dir)])
    assert code == EXIT_CONFIG
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("workers, started", [(2, 2), (64, 3)])
def test_sweep_pool_starts_no_more_workers_than_points(workers, started, tmp_path, monkeypatch):
    made = []

    class InlinePool:
        """Records max_workers and maps in this process; no worker is started."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    path = rewrite("im_2kw", tmp_path, lambda d: d["sweep"].update(workers=workers))
    out_dir = tmp_path / "runs"
    assert main(["sweep", "--config", path, "--out", str(out_dir), "--quiet"]) == EXIT_OK
    assert made == [started]
    assert len(list(out_dir.glob("*.csv"))) == 3


def test_a_sweep_builds_one_config_per_point(tmp_path, monkeypatch):
    built = []

    class CountingConfig(MotorConfig):
        def __init__(self, raw):
            built.append(raw["drive"]["voltage"]["u_d"])
            super().__init__(raw)

    monkeypatch.setattr("enermach.cli.MotorConfig", CountingConfig)
    path = rewrite("im_2kw", tmp_path, lambda d: d["sweep"].update(workers=1))
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "runs"), "--quiet"]) == EXIT_OK
    with open(path) as f:
        sweep = yaml.safe_load(f)["sweep"]
    assert built == sweep["values"]


def test_sweep_requires_section(tmp_path, capsys):
    code = main(["sweep", "--config", config_path("linear_ipm")])
    assert code == EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# environment and seeds


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "outputs"
    monkeypatch.setenv("ENERMACH_OUT_DIR", str(target))
    code = main(["ripple", "--config", config_path("harmonic_ipm"), "--quiet"])
    assert code == EXIT_OK
    assert (target / "harmonic_ipm_ripple.csv").exists()


def test_seed_flag_changes_validate_draws(capsys):
    main(["validate", "--config", config_path("saturated_ipm"), "--seed", "1"])
    first = capsys.readouterr().out
    main(["validate", "--config", config_path("saturated_ipm"), "--seed", "2"])
    second = capsys.readouterr().out
    main(["validate", "--config", config_path("saturated_ipm"), "--seed", "1"])
    third = capsys.readouterr().out
    assert first != second
    assert first == third
