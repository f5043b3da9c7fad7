"""Non-finite and non-positive inputs are rejected where they enter, by name or line."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from enermach.cli import EXIT_CONFIG, main
from enermach.dynamics import TableLoad, TableVoltage
from enermach.energy import LinearPmsmParams
from enermach.harmonics import ZeroAxisSeries
from enermach.identify import FluxSample, generate_synthetic, write_samples_csv
from enermach.induction import ImParams
from enermach.saturation import SaturationCoefficients
from helpers import CONFIG_DIR, im_params, ipm_linear_params, ipm_saturation

BAD_NUMBERS = [math.nan, math.inf, -math.inf]


def _sample_file(tmp_path, with_weight):
    samples = generate_synthetic(ipm_saturation(), np.linspace(0.1, 0.3, 4), np.linspace(-0.1, 0.1, 3))
    path = tmp_path / "samples.csv"
    write_samples_csv(path, samples, with_weight=with_weight)
    return path


@pytest.mark.parametrize(
    "column, value, with_weight",
    [
        (0, "nan", False),
        (1, "inf", False),
        (3, "-inf", False),
        (2, "nan", True),
        (4, "nan", True),
        (4, "inf", True),
        (4, "-1", True),
        (4, "0", True),
    ],
)
def test_identify_names_the_line_of_a_bad_field(tmp_path, capsys, column, value, with_weight):
    path = _sample_file(tmp_path, with_weight)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = value
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "identify", "--config", str(CONFIG_DIR / "saturated_ipm.yaml"),
            "--samples", str(path), "--out", str(tmp_path / "fit.csv"),
        ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 4: ")
    name = ("phi_d", "phi_q", "i_d", "i_q", "weight")[column]
    assert name in err
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize("value", BAD_NUMBERS + [0.0, -1.0])
def test_flux_sample_rejects_a_bad_weight(value):
    with pytest.raises(ValueError, match="weight"):
        FluxSample(0.2, 0.0, 1.0, 0.0, weight=value)


def _fields(params):
    return [f.name for f in dataclasses.fields(params)]


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("field", _fields(ImParams))
def test_im_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        dataclasses.replace(im_params(), **{field: value})


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("field", _fields(LinearPmsmParams))
def test_linear_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        dataclasses.replace(ipm_linear_params(), **{field: value})


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("field", _fields(SaturationCoefficients))
def test_saturation_coefficients_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        dataclasses.replace(ipm_saturation(), **{field: value})


def _tables():
    """One valid instance of each class that holds sequences of numbers."""
    return [
        TableVoltage(times=(0.0, 1.0, 2.0), u_d=(1.0, 2.0, 3.0), u_q=(0.0, 0.5, 0.0)),
        TableLoad(times=(0.0, 1.0, 2.0), torque=(0.5, 1.5, 0.0)),
        ZeroAxisSeries(cos_coeffs=(4.0e-3, 1.0e-3), sin_coeffs=(2.0e-3, 0.0)),
    ]


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize(
    "table, field",
    [(table, field) for table in _tables() for field in _fields(table)],
    ids=lambda p: p if isinstance(p, str) else type(p).__name__,
)
def test_sequence_fields_reject_non_finite_entries(table, field, value):
    # a NaN time would pass the ordering check on its own: NaN compares False
    entries = list(getattr(table, field))
    entries[1] = value
    with pytest.raises(ValueError, match=rf"^{field}\[1\] must be finite"):
        dataclasses.replace(table, **{field: tuple(entries)})
