"""Tests for the shared report generators and the CLI tool."""

import io
import json
import pathlib

import pytest

from repro.perfmodel import reportgen


@pytest.fixture(scope="module")
def cells():
    return reportgen.measure_all_cells()


def test_measure_all_cells_covers_grid(cells):
    assert set(cells) == {(b, p) for b in ("bt", "lu", "sp") for p in (8, 16)}


def test_table_texts_render(cells):
    for name, builder in [
        ("Table 1", lambda: reportgen.table1()),
        ("Table 3", lambda: reportgen.table3()),
        ("Table 4", lambda: reportgen.table4()),
        ("Table 5", lambda: reportgen.table5(cells)),
        ("Table 6", lambda: reportgen.table6(cells)),
        ("Figure 7", lambda: reportgen.figure7(cells)),
    ]:
        text, data = builder()
        assert name in text
        assert "BT" in text
        assert data


def test_committed_table1_is_what_table1_renders():
    """The committed Table 1 artifact counts the proxies as they are:
    it goes stale whenever an app's DRMS call sites change."""
    out = pathlib.Path(__file__).parents[2] / "benchmarks" / "out"
    assert (out / "table1_loc.txt").read_text() == reportgen.table1()[0] + "\n"


def test_committed_table6_metrics_hold_no_wall_clock_key():
    """The committed Table 6 metrics dump holds simulated series only:
    a wall-clock value differs between two regenerations of one tree."""
    out = pathlib.Path(__file__).parents[2] / "benchmarks" / "out"
    cells = json.loads((out / "table6_metrics.txt").read_text())
    assert len(cells) == 6
    wall = [
        f"{cell}:{key}"
        for cell, flat in cells.items()
        for key in flat
        if "wall_seconds" in key or key == "plancache.saved_seconds"
    ]
    assert wall == []


def test_cli_writes_artifacts(tmp_path):
    from repro.tools.report import generate_report

    buf = io.StringIO()
    generate_report(out_dir=str(tmp_path), stream=buf)
    out = buf.getvalue()
    for anchor in ("Table 1", "Table 3", "Table 4", "Table 5", "Table 6", "Figure 7"):
        assert anchor in out
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "table1.txt", "table3.txt", "table4.txt",
        "table5.txt", "table6.txt", "figure7.txt",
    }


def test_cli_main_exit_code(tmp_path, capsys):
    from repro.tools.report import main

    assert main(["--out", str(tmp_path)]) == 0
    assert "Table 5" in capsys.readouterr().out
