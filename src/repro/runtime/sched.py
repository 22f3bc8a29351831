"""One runnable thread at a time: the scheduler every system thread runs under.

SPMD ranks, workflow members and asynchronous drains all start here, and
only the one holding the *baton* runs (DESIGN.md §11, "Who runs next").
A wait is :meth:`Scheduler.wait`; the baton goes to the runnable thread
with the least (simulated clock, name); a crash kills its group, whose
waiters raise :class:`~repro.errors.GroupKilled`; nobody runnable while
someone waits raises :class:`~repro.errors.DeadlockError` in every
waiter.  A thread started elsewhere runs beside the baton; what it holds
that a scheduled thread may wait for it declares with :meth:`Scheduler.hold`.
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
    """A scheduled thread (or an outside thread's wait): its place in
    the run order, what it waits for, and its outcome."""

    __slots__ = ("name", "key", "group", "baton", "reason", "until",
                 "killable", "fault", "done", "value", "error")

    def __init__(self, name: str, group: Optional[Group], key: tuple):
        self.name, self.group = name, group
        self.key = key  # (simulated clock, name, start order)
        self.baton = threading.Lock()
        self.baton.acquire()
        self.reason, self.until, self.killable = "", None, True
        self.fault: Optional[BaseException] = None
        self.done, self.value, self.error = False, None, None


class Scheduler:
    """The baton and every thread that can hold it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: List[Task] = []
        self._running: Optional[Task] = None
        self._holds = 0
        self._here = threading.local()
        self._seq = itertools.count()

    def current(self) -> Optional[Task]:
        """The calling thread's task; None for a thread started elsewhere."""
        return getattr(self._here, "task", None)

    def start(self, name: str, fn: Callable[[], Any], context: Optional[Context] = None) -> Task:
        """Start ``fn`` on a scheduled thread named ``<caller>/<name>``,
        in a group of its own, runnable at the caller's ``now()``, in
        ``context`` (default: a new thread's own)."""
        return self._start([(name, fn)], Group(), context)[0]

    def _start(self, jobs, group: Group, context: Optional[Context]) -> List[Task]:
        me, at = self.current(), now()
        tasks = []
        for name, _ in jobs:
            name = name if me is None else f"{me.name}/{name}"
            tasks.append(Task(name, group, (at, name, next(self._seq))))
        with self._lock:  # every task registered before any can run
            group.live += len(tasks)
            self._live.extend(tasks)
            if self._running is None:
                self._switch()
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
        that is not a kill's echo.  ``timeout`` is the watchdog of a
        launcher the scheduler did not start."""
        me = self.current()
        group = Group(me.group if me is not None else None)
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
        wait raises when nobody can end it.  Only a caller the scheduler
        did not start honours ``timeout`` (and returns False when it
        runs out)."""
        me = self.current()
        if me is None:
            return self._wait_outside(reason, until, killable, timeout)
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
                    return True  # nobody runnable runs before me
                self._running = None
                self._switch()
            me.baton.acquire()

    def _wait_outside(self, reason: str, until: Callable[[], bool],
                      killable: bool, timeout: Optional[float]) -> bool:
        # a thread started elsewhere waits as a task of its own, and
        # hands the baton straight on when it is picked
        if until():
            return True
        me = Task(threading.current_thread().name, Group(), (now(), "", next(self._seq)))
        me.reason, me.until, me.killable = reason, until, killable
        with self._lock:
            self._live.append(me)
            if self._running is None:
                self._switch()
        woken = me.baton.acquire(timeout=-1 if timeout is None else timeout)
        with self._lock:
            self._live.remove(me)
            if self._running is me:
                self._running = None
                self._switch()
        if me.fault is not None:
            raise me.fault
        return woken or until()

    def hold(self) -> bool:
        """The caller took something a scheduled thread may wait for;
        counted (True) only when the caller is not scheduled."""
        if self.current() is not None:
            return False
        with self._lock:
            self._holds += 1
        return True

    def release(self) -> None:
        """End a counted :meth:`hold`: its waiters may run again."""
        with self._lock:
            self._holds -= 1
            if self._running is None:
                self._switch()

    def _switch(self) -> None:
        # lock held, nobody running: the baton to the least runnable
        # task; none, nothing held outside and someone waits: deadlock
        nxt = self._pick()
        if nxt is None and self._holds == 0 and self._live:
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
