"""The ``python -m repro.verify`` gates print exactly what they always
printed, and the case streams behind them stay byte-identical
(tests/verify)."""

import hashlib

import pytest

from repro.verify import __main__ as cli
from repro.verify.gen import CaseGen, known_bad_case

pytestmark = pytest.mark.verify


def _run(capsys, *argv):
    status = cli.main(list(argv))
    return status, capsys.readouterr().out.splitlines()


def test_run_prints_the_suite_summary(capsys, tmp_path):
    status, out = _run(capsys, "run", "--cases", "8", "--fault-cases", "4",
                       "--out", str(tmp_path))
    assert status == 0
    assert out == [
        "verify: seed=20260806 cases=12 passed=12 failed=0 invariants=212 "
        "[drms=4, fault=4, incremental=4]"
    ]


def test_mlck_prints_both_schedules_and_the_suite(capsys, tmp_path):
    status, out = _run(capsys, "mlck", "--cases", "4", "--out", str(tmp_path))
    assert status == 0
    assert out == [
        "ok   node-loss: chose app.ck.000003 from tier l1 (failed nodes "
        "[1], 0 PFS reads during the walk)",
        "ok   mid-drain-crash: chose app.ck.000002 from tier l2 (failed "
        "nodes [0, 1], 5 PFS reads during the walk)",
        "verify: seed=20260806 cases=4 passed=4 failed=0 invariants=48 "
        "[mlck=4]",
    ]


@pytest.mark.parametrize(
    "mode, invariants", [("localized", 105), ("workflow", 140)]
)
def test_mode_gates_count_their_invariants(capsys, tmp_path, mode,
                                           invariants):
    status, out = _run(capsys, mode, "--cases", "4", "--out", str(tmp_path))
    assert status == 0
    assert len(out) == 3
    assert all(line.startswith("ok   ") for line in out[:2])
    assert out[2] == (
        f"verify: seed=20260806 cases=4 passed=4 failed=0 "
        f"invariants={invariants} [{mode}=4]"
    )


def test_failing_canonical_schedule_fails_the_gate(capsys, tmp_path,
                                                   monkeypatch):
    help_text, schedules, ok = cli.MODES["mlck"]
    broken = (("node-loss", known_bad_case),) + schedules[1:]
    monkeypatch.setitem(cli.MODES, "mlck", (help_text, broken, ok))
    status, out = _run(capsys, "mlck", "--cases", "0", "--out", str(tmp_path))
    assert status == 1
    assert out[0].startswith("FAIL node-loss: ")
    assert out[1].startswith("ok   mid-drain-crash: ")


def test_interleaved_case_stream_is_pinned():
    gen = CaseGen(20260806)
    blob = "".join(
        draw().to_json()
        for _ in range(30)
        for draw in (gen.fault_case, gen.mlck_fault_case, gen.localized_case,
                     gen.workflow_case, gen.reconfig_case)
    )
    assert hashlib.sha1(blob.encode()).hexdigest() == (
        "32e55470f7aed4a0920903602ba9d8d9dba50492"
    )
