"""The layer boundaries the traced pass wraps, and the code that wraps them.

One table, :data:`BOUNDARIES`: metric stem -> ``module:qualname`` of a
*public* callable of ``repro``.  :func:`install` replaces each target by
a wrapper that records a span (see :mod:`benchmarks.e2e.spans`) —
functions in every loaded ``repro.*`` module that holds the same object
(so ``from x import y`` call sites are covered), methods on their class
— and :func:`remove` puts the originals back by identity.  A target that
no longer resolves is returned in the ``unresolved`` list and reported
as ``trace.unresolved``; it never raises, so a later refactoring of
``src/`` shows up as a missing layer number, not as a broken benchmark.

Nothing under ``src/`` is edited: spans inside the program are a later
change.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from benchmarks.e2e.spans import SpanRecorder

__all__ = ["Boundary", "BOUNDARIES", "TASK_STEM", "Installed", "install", "remove"]

#: container span opened on every SPMD task thread around the program
#: body (recorded by the ``run_spmd`` wrapper); its self time is the
#: workload program's own code, which no layer boundary explains
TASK_STEM = "app.task"

_UNSET = object()


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable.

    ``kind`` is ``"busy"`` (self time is work), ``"wait"`` (self time is
    blocked time, reported apart) or ``"container"`` (self time is spent
    waiting for other threads that carry their own spans).  ``value``
    maps ``(args, kwargs, result)`` to the number stored in the span.
    ``hook`` names a special wrapper in :data:`_HOOKS`.
    """

    stem: str
    target: str
    kind: str = "busy"
    value: Optional[Callable[[tuple, dict, Any], float]] = None
    hook: Optional[str] = None


def _result_nbytes(args, kwargs, result) -> float:
    return float(result.nbytes)


def _result_len(args, kwargs, result) -> float:
    return float(len(result))


def _result_number(args, kwargs, result) -> float:
    return float(result)


def _streamed(args, kwargs, result) -> float:
    return float(result.bytes_streamed)


def _sim_seconds(args, kwargs, result) -> float:
    return float(result.total_seconds)


def _restart_sim_seconds(args, kwargs, result) -> float:
    return float(result.restart_breakdown.total_seconds)


BOUNDARIES: Tuple[Boundary, ...] = (
    # -- plancache: time the compute callback of each miss, by kind
    Boundary("plancache.build", "repro.plancache.cache:PlanCache.get_or_compute",
             hook="plan_compute"),
    # -- streaming
    Boundary("streaming.gather", "repro.streaming.vectorized:gather_section_flat",
             value=_result_nbytes),
    Boundary("streaming.scatter", "repro.streaming.vectorized:scatter_section_flat",
             value=lambda a, k, r: float(a[2].nbytes)),
    Boundary("streaming.redis_acct",
             "repro.streaming.vectorized:range_redistribution_bytes"),
    Boundary("streaming.out_self", "repro.streaming.parallel:stream_out_parallel",
             value=_streamed),
    Boundary("streaming.in_self", "repro.streaming.parallel:stream_in_parallel",
             value=_streamed),
    Boundary("streaming.order_bytes", "repro.streaming.order:stream_order_bytes",
             value=_result_len),
    # -- arrays
    Boundary("arrays.to_global", "repro.arrays.darray:DistributedArray.to_global",
             value=_result_nbytes),
    Boundary("arrays.assign", "repro.arrays.assignment:array_assign"),
    Boundary("arrays.update_shadows",
             "repro.arrays.darray:DistributedArray.update_shadows"),
    Boundary("arrays.set_global", "repro.arrays.darray:DistributedArray.set_global",
             value=lambda a, k, r: float(a[0].nbytes_global)),
    # -- checkpoint
    Boundary("checkpoint.sha1", "repro.checkpoint.format:sha1_hex",
             value=lambda a, k, r: float(len(a[0]))),
    Boundary("checkpoint.validate", "repro.checkpoint.validate:verify_stored_sha1"),
    Boundary("checkpoint.validate", "repro.checkpoint.validate:validate_checkpoint"),
    Boundary("checkpoint.select", "repro.checkpoint.recover:select_restart_state"),
    Boundary("checkpoint.manifest_commit", "repro.checkpoint.format:write_manifest"),
    Boundary("checkpoint.manifest_read", "repro.checkpoint.format:read_manifest"),
    Boundary("checkpoint.engine_self", "repro.checkpoint.drms:drms_checkpoint"),
    Boundary("checkpoint.engine_self", "repro.checkpoint.drms:drms_restart"),
    # -- pfs (HostFS inherits these; its overrides call super())
    Boundary("pfs.write", "repro.pfs.piofs:PIOFS.write_at", value=_result_number),
    Boundary("pfs.read", "repro.pfs.piofs:PIOFS.read_at", value=_result_len),
    Boundary("pfs.phase_wait", "repro.pfs.piofs:PIOFS.begin_phase", kind="wait"),
    Boundary("pfs.phase_end", "repro.pfs.piofs:PIOFS.end_phase"),
    # -- mlck
    Boundary("mlck.capture", "repro.mlck.store:L1Store.capture_drms"),
    Boundary("mlck.validate", "repro.mlck.store:L1Store.validate_generation"),
    Boundary("mlck.restore", "repro.mlck.store:L1Store.restore_drms"),
    Boundary("mlck.drain", "repro.mlck.drain:DrainController.schedule"),
    Boundary("mlck.select", "repro.mlck.recovery:select_tiered_restart_state"),
    Boundary("mlck.localized_restore",
             "repro.mlck.localized:localized_restore_drms"),
    Boundary("mlck.rebuild_scope", "repro.mlck.localized:compute_rebuild_scope"),
    Boundary("mlck.rereplicate", "repro.mlck.localized:rereplicate_after_failure"),
    # -- runtime
    Boundary("runtime.barrier_wait", "repro.runtime.comm:CommWorld.barrier",
             kind="wait"),
    Boundary("runtime.recv_wait", "repro.runtime.comm:CommWorld.recv", kind="wait"),
    Boundary("runtime.spmd", "repro.runtime.executor:run_spmd", kind="container",
             hook="spmd_tasks"),
    # -- drms
    Boundary("drms.engine_checkpoint", "repro.drms.app:AppRuntime.engine_checkpoint",
             value=_sim_seconds),
    Boundary("drms.distribute", "repro.drms.context:DRMSContext.distribute"),
    Boundary("drms.restart_self", "repro.drms.app:DRMSApplication.restart",
             value=_restart_sim_seconds),
    Boundary("drms.restart_self", "repro.drms.app:DRMSApplication.restart_localized",
             value=_restart_sim_seconds),
    # -- infra
    Boundary("infra.run_self", "repro.infra.jsa:JobSchedulerAnalyzer.run"),
    Boundary("infra.recover_self", "repro.infra.jsa:JobSchedulerAnalyzer.recover"),
    Boundary("infra.recover_self",
             "repro.infra.jsa:JobSchedulerAnalyzer.recover_localized"),
    # -- workflow
    Boundary("workflow.exchange_wait",
             "repro.drms.context:DRMSContext.workflow_exchange", kind="wait"),
    Boundary("workflow.commit", "repro.workflow.manifest:write_workflow_manifest"),
    Boundary("workflow.select",
             "repro.workflow.manifest:select_workflow_restart_state"),
)


# -- wrappers ---------------------------------------------------------------


def _span_wrapper(rec: SpanRecorder, b: Boundary, fn: Callable) -> Callable:
    stem, value = b.stem, b.value

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.enter(stem)
        result = _UNSET
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.exit(
                span,
                value(args, kwargs, result)
                if value is not None and result is not _UNSET
                else 0.0,
            )

    return wrapper


def _plan_compute_wrapper(rec: SpanRecorder, b: Boundary, fn: Callable) -> Callable:
    """``PlanCache.get_or_compute``: the lookup itself is not a span;
    the ``compute`` callback it is handed (run on a miss only) is,
    under ``<stem>/<kind>``."""

    @functools.wraps(fn)
    def wrapper(self, kind, key, compute, *rest, **kwargs):
        if not rec.active:
            return fn(self, kind, key, compute, *rest, **kwargs)

        def timed_compute():
            span = rec.enter(f"{b.stem}/{kind}")
            try:
                return compute()
            finally:
                rec.exit(span)

        return fn(self, kind, key, timed_compute, *rest, **kwargs)

    return wrapper


def _spmd_tasks_wrapper(rec: SpanRecorder, b: Boundary, fn: Callable) -> Callable:
    """``run_spmd``: besides its own span on the calling thread, open a
    :data:`TASK_STEM` container span around the program body on every
    task thread, so spans there have a root and the time ``run_spmd``
    spends outside any task body (spawn, join) can be told apart."""
    plain = _span_wrapper(rec, b, fn)

    @functools.wraps(fn)
    def wrapper(program, *args, **kwargs):
        if not rec.active:
            return fn(program, *args, **kwargs)

        def traced_program(*pargs, **pkwargs):
            span = rec.enter(TASK_STEM)
            try:
                return program(*pargs, **pkwargs)
            finally:
                rec.exit(span)

        return plain(traced_program, *args, **kwargs)

    return wrapper


_HOOKS = {
    None: _span_wrapper,
    "plan_compute": _plan_compute_wrapper,
    "spmd_tasks": _spmd_tasks_wrapper,
}


# -- install / remove ---------------------------------------------------------


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``module:qualname`` -> (owner, attribute name, current object);
    the owner is the module for a function, the class for a method."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


@dataclass
class Installed:
    """What :func:`install` changed, for :func:`remove` and the report."""

    #: (owner, attribute, original, wrapper) for every replaced attribute
    patches: List[Tuple[Any, str, Any, Any]]
    #: targets that did not resolve, as ``"target: reason"``
    unresolved: List[str]


def install(
    rec: SpanRecorder, boundaries: Tuple[Boundary, ...] = BOUNDARIES
) -> Installed:
    """Wrap every boundary; unresolvable targets are listed, not raised."""
    done = Installed(patches=[], unresolved=[])
    for b in boundaries:
        try:
            owner, attr, original = _resolve(b.target)
        except (ImportError, AttributeError, KeyError) as exc:
            done.unresolved.append(f"{b.target}: {type(exc).__name__}: {exc}")
            continue
        wrapper = _HOOKS[b.hook](rec, b, original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (module, name)
                for module in _repro_modules()
                for name, held in list(vars(module).items())
                if held is original
            ]
        for holder, name in sites:
            setattr(holder, name, wrapper)
            done.patches.append((holder, name, original, wrapper))
    return done


def remove(done: Installed) -> None:
    """Put every original back — also into modules that were first
    imported, and so picked up a wrapper, after :func:`install` ran."""
    for holder, name, original, _ in done.patches:
        setattr(holder, name, original)
    originals = {id(w): o for _, _, o, w in done.patches}
    for module in _repro_modules():
        for name, held in list(vars(module).items()):
            if id(held) in originals:
                setattr(module, name, originals[id(held)])
