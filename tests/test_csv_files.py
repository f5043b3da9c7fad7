"""Trajectory.read_csv, the library's one CSV reader: any finite array reads back
bit for bit, ``#`` starts no comment, and a malformed line is named by file and
line number, in a trajectory file and in a sample file alike."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from enermach.dynamics import Trajectory  # noqa: E402
from enermach.identify import read_samples_csv  # noqa: E402

FINITE = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 6), st.integers(1, 5)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, database=None, deadline=None)
@given(data=FINITE)
@example(data=np.empty((0, 3)))
@example(data=np.array([[-0.0, 0.0, 5.0e-324, -2.5e-310, 1.0e308, -1.0e308, np.finfo(float).max]]))
def test_any_finite_array_reads_back_bit_for_bit(data):
    columns = tuple(f"c{j}" for j in range(data.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        Trajectory(columns, data).write_csv(path)
        back = Trajectory.read_csv(path)
    assert back.columns == columns
    assert back.data.shape == data.shape
    assert back.data.tobytes() == np.ascontiguousarray(data).tobytes()


@pytest.mark.parametrize(
    "body, line, error",
    [
        ("1,2,3\n4,5\n", 3, "expected 3 fields, got 2"),
        ("1,2,3\n4,5,6,7\n", 3, "expected 3 fields, got 4"),
        ("1,2,3\n4,abc,6\n", 3, "non-numeric field"),
        ("1,2,3\n4,5,6 # a note\n", 3, "non-numeric field"),
        ("# a note\n1,2,3\n", 2, "expected 3 fields, got 1"),
        ("1,2\n3,4\n", 2, "expected 3 fields, got 2"),
        ("1,2,3\n\n4,5,6\n7,8\n", 5, "expected 3 fields, got 2"),
        ("1,2,3\r\n4,1_0,6\r\n", 3, "non-numeric field"),
    ],
    ids=["short", "long", "non-numeric", "comment", "comment-line", "narrower-than-header", "empty-line", "crlf"],
)
def test_a_malformed_trajectory_line_is_named(tmp_path, body, line, error):
    path = tmp_path / "t.csv"
    path.write_text("t,a,b\n" + body, newline="")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: {error}$"):
        Trajectory.read_csv(path)


@pytest.mark.parametrize("field", ["1_0", '"1.5"'])
def test_a_sample_file_rejects_what_a_trajectory_file_rejects(tmp_path, field):
    path = tmp_path / "samples.csv"
    path.write_text(f"phi_d,phi_q,i_d,i_q\n0.1,0.0,1.0,2.0\n0.1,{field},1.0,2.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: non-numeric field$"):
        read_samples_csv(path)


def test_a_bad_sample_after_an_empty_line_is_named_by_its_own_line(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("phi_d,phi_q,i_d,i_q,weight\n0.1,0.0,1.0,2.0,1.0\n\n0.1,0.0,1.0,2.0,-1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: sample weight must be positive"):
        read_samples_csv(path)
