"""Self-test of the benchmark harness (not of the program under test).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

from benchmarks.e2e import cli, layers, spans
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import WORKLOADS

E2E_DIR = pathlib.Path(cli.__file__).resolve().parent
SPEC = cli.load_spec()
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in END_TO_END
    assert not END_TO_END & PER_LAYER


def test_quick_mode_reports_every_named_metric(tmp_path):
    """2 rotations on 64x64 arrays: all eight workloads, all three
    passes, every metric BENCHMARK.json names and no cycle failed."""
    out = tmp_path / "BENCH_e2e.json"
    assert cli.main(["--quick", "--check", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, entry in record["workloads"].items():
        assert entry["failed"] == 0, name
        # failed_share is reported through attempted/failed in the
        # driver's line, so BENCHMARK.json does not name it
        assert set(entry["metrics"]) - {"failed_share"} == END_TO_END | PER_LAYER, name
        assert entry["metrics"]["trace.unresolved"]["median"] == 0, name
        passes = {run["pass"]: run["modes"] for run in entry["runs"]}
        assert passes == {"e2e": ["plain"], "layers": ["plain", "traced", "obs"]}


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_line(trace, names):
    done = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--workload", "many_small",
         "--seed", "7", "--seconds", "1", "--trace", trace, "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == names
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result,
    non-zero exit."""
    shutil.copy(cli.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E_DIR, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "many_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- span arithmetic -----------------------------------------------------------------


def _span(sid, parent, stem, thread, start, end, value=0.0):
    return [sid, parent, stem, thread, 0, start, end, value]


def test_self_time_of_a_nested_multi_thread_tree():
    tree = [
        # thread 1: root [0, 10] > a [1, 3], b [4, 6] > c [4.5, 5]
        _span(0, -1, "root", 1, 0.0, 10.0),
        _span(1, 0, "a", 1, 1.0, 3.0, value=5),
        _span(2, 0, "b", 1, 4.0, 6.0),
        _span(3, 2, "a", 1, 4.5, 5.0, value=7),
        # thread 2: a root of its own, concurrent with thread 1
        _span(4, -1, "b", 2, 2.0, 8.0),
        # a cross-thread parent link is not subtracted from the parent
        _span(5, 0, "a", 2, 8.5, 9.0),
    ]
    own = spans.self_seconds(tree)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.5, 3: 0.5, 4: 6.0, 5: 0.5})
    agg = spans.aggregate(tree)
    assert agg["a"] == pytest.approx(
        {"self_s": 3.0, "total_s": 3.0, "calls": 3, "value": 12}
    )
    assert agg["b"]["self_s"] == pytest.approx(7.5)  # summed over threads
    # union over threads: b's self parts are [4, 4.5] + [5, 6] and [2, 8]
    assert spans.covered_seconds(tree, {"b"}) == pytest.approx(6.0)
    assert spans.covered_seconds(tree, {"a", "b"}) == pytest.approx(7.5)
    assert spans.union_seconds([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_recorder_links_parents_per_thread():
    rec = SpanRecorder()
    outer = rec.enter("outer")

    def other_thread():
        rec.exit(rec.enter("worker"))

    t = threading.Thread(target=other_thread)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.exit(rec.enter("inner"), value=3.0)
    rec.exit(outer)
    by_stem = {s[spans.STEM]: s for s in rec.spans}
    assert by_stem["inner"][spans.PARENT] == outer[spans.SID]
    assert by_stem["worker"][spans.PARENT] == -1
    assert by_stem["inner"][spans.VALUE] == 3.0


# -- install / remove ------------------------------------------------------------------


def test_every_patched_attribute_is_restored_by_identity():
    import repro.checkpoint.drms as engine
    from repro.checkpoint.format import sha1_hex
    from repro.pfs.piofs import PIOFS

    write_at = vars(PIOFS)["write_at"]
    done = layers.install(SpanRecorder())
    try:
        assert done.unresolved == []
        assert len({b.target for b in layers.BOUNDARIES}) == len(layers.BOUNDARIES)
        assert vars(PIOFS)["write_at"] is not write_at
        # a ``from x import y`` call site is covered too
        assert engine.sha1_hex is not sha1_hex
        patches = list(done.patches)
    finally:
        layers.remove(done)
    assert patches
    for holder, name, original, wrapper in patches:
        assert vars(holder)[name] is original, (holder, name)
    assert engine.sha1_hex is sha1_hex


def test_inactive_wrappers_pass_through_and_active_ones_record():
    from repro.checkpoint.format import sha1_hex

    rec = SpanRecorder()
    done = layers.install(rec)
    try:
        import repro.checkpoint.format as fmt

        assert fmt.sha1_hex(b"abc") == sha1_hex(b"abc")
        assert rec.spans == []
        rec.active = True
        fmt.sha1_hex(b"abcd")
        rec.active = False
    finally:
        layers.remove(done)
    assert [(s[spans.STEM], s[spans.VALUE]) for s in rec.spans] == [
        ("checkpoint.sha1", 4.0)
    ]


def test_unresolvable_boundary_is_listed_not_raised():
    gone = (
        layers.Boundary("x.module", "repro.no_such_module:fn"),
        layers.Boundary("x.function", "repro.checkpoint.format:no_such_fn"),
        layers.Boundary("x.method", "repro.pfs.piofs:PIOFS.no_such_method"),
        layers.Boundary("x.class", "repro.pfs.piofs:NoSuchClass.method"),
    )
    done = layers.install(SpanRecorder(), gone)
    layers.remove(done)
    assert done.patches == []
    assert [u.split(":")[0] for u in done.unresolved] == [
        "repro.no_such_module", "repro.checkpoint.format",
        "repro.pfs.piofs", "repro.pfs.piofs",
    ]
