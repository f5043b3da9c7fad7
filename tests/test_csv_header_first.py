"""A CSV's header is read and checked before its rows, and empty lines are no rows."""

import re
import warnings

import pytest

from enermach.dynamics import Trajectory
from enermach.identify import read_samples_csv


@pytest.mark.parametrize("body", ["a,b\n\n\n", "a,b\r\n\r\n", "a,b\n\n"])
def test_a_header_over_empty_lines_reads_back_with_no_rows(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text(body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = Trajectory.read_csv(path)
    assert back.columns == ("a", "b")
    assert back.data.shape == (0, 2)


def test_rows_after_leading_empty_lines_read_back(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n\n\n1,2\n\n3,4\n")
    assert Trajectory.read_csv(path).data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("row", ["0.1,0.0,1.0,2.0", "0.1,0.0,1.0", "0.1,abc,1.0"])
def test_a_sample_header_is_named_at_line_1_whatever_the_rows(tmp_path, row):
    path = tmp_path / "samples.csv"
    path.write_text(f"phi_d,phi_q,i_d\n{row}\n")
    message = f"{path}: line 1: header must be phi_d,phi_q,i_d,i_q[,weight], got phi_d,phi_q,i_d"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_samples_csv(path)
