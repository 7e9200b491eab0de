"""What the tools print: tools/paired_bench.py per workload and metric, tools/same_outputs.py per differing CSV
and per source tree."""

import importlib.util
from pathlib import Path

import pytest


def _paired_bench():
    path = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
    spec = importlib.util.spec_from_file_location("paired_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = _paired_bench().summarize


def test_summary_counts_wins_and_reads_the_quartiles():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0], "lower", 0.25)
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["change"] == {"median": 3.0, "q1": 2.0, "q3": 3.5}
    assert (s["wins"], s["losses"], s["pairs"]) == (3, 1, 5)
    assert not s["median_gap_exceeds_parent_iqr"] and not s["worse_beyond_bound"]


@pytest.mark.parametrize(
    "change, better, beyond",
    [
        pytest.param(10.9, "lower", False, id="lower-within"),
        pytest.param(11.1, "lower", True, id="lower-beyond"),
        pytest.param(8.0, "lower", False, id="lower-better"),
        pytest.param(9.1, "higher", False, id="higher-within"),
        pytest.param(8.9, "higher", True, id="higher-beyond"),
        pytest.param(12.0, "higher", False, id="higher-better"),
    ],
)
def test_bound_flag_marks_a_median_worse_than_the_bound_share(change, better, beyond):
    # a parent IQR of 0.01 around 10: every change here is outside it, and only the
    # ones worse by more than 10% of the parent median are flagged against the bound
    parent = [9.99, 10.0, 10.0, 10.01, 10.02]
    s = summarize(parent, [change] * 5, better, 0.1)
    assert s["median_gap_exceeds_parent_iqr"]
    assert s["worse_beyond_bound"] is beyond


def _same_outputs():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "parent, change, line",
    [
        pytest.param(
            "a,b\n1,0.5\n2,0.5\n", "a,b\n1,0.5\n2,0.25\n", "    row 2, b: 0.5 -> 0.25 (relative 5.00e-01)", id="number"
        ),
        pytest.param("a,side\n1,left\n", "a,side\n1,right\n", "    row 1, side: 'left' -> 'right'", id="text"),
        pytest.param("a,b\n1,0.5\n2,0.5\n", "a,b\n1,0.5\n", "    2 -> 1 rows", id="row count"),
    ],
)
def test_csv_difference_names_the_first_differing_cell(parent, change, line):
    assert _same_outputs().csv_difference(parent, change) == line


def test_source_lines_counts_every_python_file_of_the_tree(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text("import os\n\nx = 1\n")
    (tmp_path / "sub" / "b.py").write_text("y = 2\nz = 3")  # no final newline: still two lines
    (tmp_path / "notes.txt").write_text("not\ncounted\n")
    assert _same_outputs().source_lines(tmp_path) == 5
