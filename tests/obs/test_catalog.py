"""Static scans of ``src/repro``: every metric literal published
anywhere matches a documented family, and every event record is
written by the one writer."""

import pathlib
import re

import pytest

from repro.obs import METRIC_FAMILIES, match_family

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: instrument constructor calls with a literal (possibly f-string) name
_CALL_RE = re.compile(
    r"""\.(?:counter|gauge|histogram)\(\s*f?(['"])(?P<name>[^'"]+)\1"""
)

#: how to resolve the template variables that appear inside f-string
#: metric names — one representative runtime value each
_TEMPLATE_VALUES = {
    "root": "checkpoint",
    "direction": "out",
    "op": "write",
    "tier": "l1",
    "state.value": "running",
    "domain": "0",
    "fname": "ckpt.seg",
    "name": "ckpt.seg",
    "kind.value": "write",
    "kind": "transfer",
    "plan.mode": "fail",
    "names.metrics": "recover",
}

_BRACE_RE = re.compile(r"\{([^}:!]+)(?:[:!][^}]*)?\}")


def _resolve(template: str) -> str:
    def sub(m: re.Match) -> str:
        var = m.group(1).strip()
        if var not in _TEMPLATE_VALUES:
            pytest.fail(
                f"metric template variable {var!r} has no representative "
                f"value in _TEMPLATE_VALUES (template: {template!r})"
            )
        return _TEMPLATE_VALUES[var]

    return _BRACE_RE.sub(sub, template)


def _published_names():
    names = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for m in _CALL_RE.finditer(text):
            names.append((path.relative_to(SRC), _resolve(m.group("name"))))
    return names


def test_the_scan_actually_finds_the_instrumentation():
    names = {n for _, n in _published_names()}
    # spot-check the scan sees all the major layers
    for expected in (
        "pfs.write.bytes",
        "stream.out.bytes",
        "flight.recorded",
        "health.nodes.up",
        "jsa.recoveries",
        "rc.failures",
    ):
        assert expected in names, f"scan lost {expected!r}"
    assert len(names) > 30


def test_every_published_metric_matches_a_documented_family():
    undocumented = [
        (str(path), name)
        for path, name in _published_names()
        if match_family(name) is None
    ]
    assert undocumented == [], (
        "metrics outside every documented family (add a family with a "
        f"description to repro.obs.catalog.METRIC_FAMILIES): {undocumented}"
    )


def test_families_are_well_formed():
    seen = set()
    for family, pattern, doc in METRIC_FAMILIES:
        assert family not in seen, f"duplicate family {family!r}"
        seen.add(family)
        re.compile(pattern)  # must be a valid regex
        assert doc.strip(), f"family {family!r} missing its description"


def test_match_family_is_full_match_only():
    assert match_family("pfs.write.bytes") == "pfs"
    assert match_family("pfs.write.bytes[ckpt.segment]") == "pfs"
    assert match_family("health.l1.replicas[3]") == "health"
    # prefixes, suffixes, and typos don't match
    assert match_family("pfs.write.bytes.extra.deep.path") is None
    assert match_family("xpfs.write.bytes") is None
    assert match_family("mlck.drian.pending") is None
    assert match_family("") is None


#: the module holding the record type and its one write, ``emit_event``
_WRITER = pathlib.Path("obs") / "flight.py"
#: a call of a flight recorder's ring write
_RECORD_CALL_RE = re.compile(r"\.record\(")
#: a construction of the record type (``threading.Event(`` is not one)
_BUILD_RE = re.compile(r"(?<![\w.])Event\(")


def _scan(pattern: re.Pattern):
    return [
        (path.relative_to(SRC), n)
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_a_record_is_written_in_one_place():
    """No module but the writer calls a flight recorder's ``.record(``
    or builds an ``Event``; the writer does each once, in
    ``emit_event``.  A record reaches the log and the rings only
    through that one write."""
    calls, builds = _scan(_RECORD_CALL_RE), _scan(_BUILD_RE)
    assert [where for where in calls if where[0] != _WRITER] == []
    assert [where for where in builds if where[0] != _WRITER] == []
    assert len(calls) == 1 and len(builds) == 1


#: the ``clock`` parameters a signature in ``src/repro`` may take: the
#: wall-time callable of a wallclock rule, and the committed line's clock
_CLOCK_ALLOWED = {
    ("policy/rules.py", "WallclockRule.__init__"),
    ("workflow/coordinator.py", "WorkflowLine"),
}


def _clock_signatures():
    """``(module, qualified name)`` of every function taking a
    ``clock`` argument, and of every class declaring a ``clock`` field
    (a dataclass's constructor takes it)."""
    import ast

    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                if any(p.arg == "clock" for p in params):
                    found.append((module, name))
                visit(child, module, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                if any(
                    isinstance(s, ast.AnnAssign)
                    and getattr(s.target, "id", None) == "clock"
                    for s in child.body
                ):
                    found.append((module, ".".join(scope + [child.name])))
                visit(child, module, scope + [child.name])

    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text()), module, [])
    return found


def test_a_record_takes_its_time_from_the_active_clock():
    """A record, a black-box dump and a health sample are stamped with
    the active clock's ``now()``: none of their writers takes a time,
    and no signature passes a ``clock`` down to them — the clock is
    found, not passed."""
    import inspect

    from repro.infra.events import EventLog
    from repro.obs import FlightRecorder, HealthRegistry, NullFlightRecorder
    from repro.obs.flight import emit_event

    writers = [
        emit_event, EventLog.emit,
        FlightRecorder.blackbox, FlightRecorder.auto_blackbox,
        NullFlightRecorder.blackbox, NullFlightRecorder.auto_blackbox,
    ] + [
        fn for name, fn in vars(HealthRegistry).items()
        if name.startswith("sample_")
    ]
    timed = [
        fn.__qualname__ for fn in writers
        if {"time", "clock"} & set(inspect.signature(fn).parameters)
    ]
    assert timed == []
    assert list(inspect.signature(emit_event).parameters) == [
        "events", "kind", "detail",
    ]
    found = _clock_signatures()
    assert ("policy/rules.py", "WallclockRule.__init__") in found  # scan works
    assert [where for where in found if where not in _CLOCK_ALLOWED] == []
