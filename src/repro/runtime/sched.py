"""One runnable thread at a time: the scheduler every system thread runs under.

SPMD ranks, workflow members and asynchronous drains all start here, and
only the one holding the *baton* runs (DESIGN.md §11, "Who runs next").
A wait is :meth:`Scheduler.wait`; the baton goes to the runnable thread
with the least (simulated clock, name); a crash kills its group, whose
waiters raise :class:`~repro.errors.GroupKilled`; nobody runnable while
someone waits raises :class:`~repro.errors.DeadlockError` in every
waiter.  A thread started elsewhere is *adopted* as a task of its own at
its first scheduler call, and from then on holds the baton whenever it
is not in a wait, until it ends.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import Context
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import CommunicationError, DeadlockError, GroupKilled
from repro.runtime.clock import now

__all__ = ["SCHED", "Group", "Scheduler", "Task"]


class Group:
    """Threads launched together; killing it kills the groups beneath."""

    __slots__ = ("parent", "live", "killed")

    def __init__(self, parent: Optional["Group"] = None):
        self.parent, self.live, self.killed = parent, 0, False

    @property
    def dead(self) -> bool:
        return self.killed or (self.parent is not None and self.parent.dead)


class Task:
    """A scheduled or adopted thread: its place in the run order, what
    it waits for, and its outcome."""

    __slots__ = ("name", "key", "group", "adopted", "baton", "reason", "until",
                 "killable", "fault", "done", "value", "error")

    def __init__(self, name: str, group: Group, key: tuple, adopted: bool = False):
        self.name, self.group, self.adopted = name, group, adopted
        self.key = key  # (simulated clock, name, start order)
        # held by the scheduler until it hands this task the run
        self.baton = threading.Lock()
        self.baton.acquire()
        self.reason, self.until, self.killable = "", None, True
        self.fault: Optional[BaseException] = None
        self.done, self.value, self.error = False, None, None


class _Seat:
    """What an adopted thread's thread-local holds: when the thread ends
    (or leaves), the seat goes and takes its task out of the scheduler."""

    __slots__ = ("sched", "task")

    def __init__(self, sched: "Scheduler", task: Task):
        self.sched, self.task = sched, task

    def __del__(self) -> None:
        self.sched._drop(self.task)


class Scheduler:
    """The baton and every thread that can hold it."""

    def __init__(self) -> None:
        # an adopting or ending thread reaches the run order without the baton
        self._lock = threading.Lock()
        self._live: List[Task] = []
        self._running: Optional[Task] = None
        self._here = threading.local()
        self._seq = itertools.count()

    def current(self) -> Task:
        """The calling thread's task.  A thread started elsewhere is
        adopted at its first call: a task in a group of its own, keyed
        (``now()``, thread name), that returns once it holds the baton."""
        task = getattr(self._here, "task", None)
        if task is None:
            name = threading.current_thread().name
            task = Task(name, Group(), (now(), name, next(self._seq)), adopted=True)
            with self._lock:
                self._live.append(task)
                if self._running is None:
                    self._switch()
            self._here.task, self._here.seat = task, _Seat(self, task)
            task.baton.acquire()
        return task

    def start(self, name: str, fn: Callable[[], Any], context: Optional[Context] = None) -> Task:
        """Start ``fn`` on a scheduled thread named ``<caller>/<name>``
        (``<name>`` when the caller is adopted), in a group of its own,
        runnable at the caller's ``now()``, in ``context`` (default: a
        new thread's own)."""
        return self._start([(name, fn)], Group(), context)[0]

    def _start(self, jobs, group: Group, context: Optional[Context]) -> List[Task]:
        me, at = self.current(), now()
        tasks = []
        for name, _ in jobs:
            name = name if me.adopted else f"{me.name}/{name}"
            tasks.append(Task(name, group, (at, name, next(self._seq))))
        with self._lock:  # every task registered before any can run
            group.live += len(tasks)
            self._live.extend(tasks)
        for task, (_, fn) in zip(tasks, jobs):
            threading.Thread(
                target=self._main, args=(task, fn, context), name=task.name, daemon=True
            ).start()
        return tasks

    def _main(self, task: Task, fn: Callable[[], Any], context: Optional[Context]) -> None:
        task.baton.acquire()
        self._here.task = task
        try:
            task.value = fn() if context is None else context.run(fn)
        except BaseException as exc:  # noqa: BLE001 - kept for the launcher
            task.error = exc
        with self._lock:
            task.group.killed |= task.error is not None
            task.group.live -= 1
            task.done = True
            self._live.remove(task)
            self._running = None
            self._switch()

    def run(self, names: Sequence[str], body: Callable[[int], Any],
            timeout: Optional[float] = None) -> List[Any]:
        """The group launcher: ``body(i)`` on one scheduled thread per
        ``names[i]``, runnable at the caller's clock; their return values
        in order.  A crash kills the group; the launcher waits for every
        thread to unwind, then re-raises the root cause — the first error
        that is not a kill's echo.  ``timeout`` is the watchdog of an
        adopted launcher."""
        group = Group(self.current().group)
        jobs = [(name, lambda i=i: body(i)) for i, name in enumerate(names)]
        tasks = self._start(jobs, group, None)
        if not self.wait(f"{len(tasks)} threads to finish", lambda: group.live == 0,
                         killable=False, timeout=timeout):
            with self._lock:
                group.killed = True
                if self._running is None:
                    self._switch()
            hung = [t.name for t in tasks if not t.done]
            raise CommunicationError(f"threads did not finish in {timeout}s: {hung}")
        errors = [t.error for t in tasks if t.error is not None]
        if errors:
            raise next((e for e in errors if not isinstance(e, GroupKilled)), errors[0])
        return [t.value for t in tasks]

    def wait(self, reason: str, until: Callable[[], bool], killable: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Return once ``until()`` holds and no runnable thread comes
        first in (clock, name) order, running the others meanwhile.  A
        killable wait raises when the caller's group is killed, and any
        wait raises when nobody can end it.  Only an adopted caller
        honours ``timeout``: when a baton wait runs out, it leaves the
        scheduler (its next call adopts it afresh) and returns
        ``until()``."""
        me = self.current()
        patience = timeout if me.adopted and timeout is not None else -1
        while True:
            if me.fault is not None:
                fault, me.fault = me.fault, None
                raise fault
            if killable and me.group.dead:
                raise GroupKilled(f"task group has been killed ({me.name} waited for {reason})")
            with self._lock:
                me.reason, me.until, me.killable = reason, until, killable
                me.key = (now(),) + me.key[1:]
                if until() and self._pick(me.key) is None:
                    # nobody runnable runs before me; an adopted thread
                    # must not keep what its predicate holds alive
                    me.until = None
                    return True
                self._running = None
                self._switch()
            if not me.baton.acquire(timeout=patience):
                del self._here.task, self._here.seat  # the seat drops the task
                return until()

    def _drop(self, task: Task) -> None:
        # an adopted thread ended or left: out of the run order, and
        # the baton on if it held it
        with self._lock:
            self._live.remove(task)
            if self._running is task:
                self._running = None
                self._switch()

    def _switch(self) -> None:
        # lock held, nobody running: the baton to the least runnable
        # task; none and someone waits: deadlock
        nxt = self._pick()
        if nxt is None and self._live:
            error = "deadlock, nobody runnable: " + "; ".join(
                f"{t.name} waits for {t.reason}" for t in self._live
            )
            for t in self._live:
                if t.killable:
                    t.fault = DeadlockError(error)
            nxt = self._pick()
        self._running = nxt
        if nxt is not None:
            nxt.baton.release()

    def _pick(self, below: Optional[tuple] = None) -> Optional[Task]:
        # the least runnable task (whose key is below ``below``, if given)
        best = None
        for t in self._live:
            bound = below if best is None else best.key
            if (bound is None or t.key < bound) and (
                t.until is None or t.fault is not None
                or (t.killable and t.group.dead) or t.until()
            ):
                best = t
        return best


#: the one scheduler of the process: one baton over every thread it starts
SCHED = Scheduler()
