"""MPMD applications: coordinated collections of SPMD structures.

The paper (Section 2.2) views an MPMD computation as a small collection
of SPMD control structures, each with its own distributed data set; the
components reconfigure individually or collectively, and a globally
consistent checkpoint is a *set* of SOPs — one per component.

:class:`MPMDApplication` composes named
:class:`~repro.drms.app.DRMSApplication` components that share one
machine and one parallel file system.  A coordinated checkpoint stores
each component under ``<prefix>.<component>`` plus a group manifest;
restart re-launches every component, each on its own (possibly new)
task count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.checkpoint.format import manifest_name
from repro.checkpoint.recover import OpenedGeneration, first_rejections
from repro.drms.app import DRMSApplication, RunReport
from repro.errors import ReconfigurationError, RestartError
from repro.pfs.piofs import PIOFS
from repro.runtime.machine import Machine
from repro.workflow.manifest import check_member_name, newest_consistent_generations

__all__ = ["MPMDApplication", "MPMDRunReport"]

_GROUP_SUFFIX = ".mpmd"


@dataclass
class MPMDRunReport:
    """Per-component reports of one MPMD run."""

    components: Dict[str, RunReport] = field(default_factory=dict)

    @property
    def sim_elapsed(self) -> float:
        """MPMD wall time: the slowest component."""
        return max((r.sim_elapsed for r in self.components.values()), default=0.0)


class MPMDApplication:
    """A set of named SPMD components run as one application."""

    def __init__(self, machine: Optional[Machine] = None, pfs: Optional[PIOFS] = None):
        self.machine = machine or Machine()
        self.pfs = pfs or PIOFS(machine=self.machine)
        self._components: Dict[str, Tuple[DRMSApplication, tuple, dict]] = {}

    def add_component(
        self,
        name: str,
        main,
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
        **app_options: Any,
    ) -> DRMSApplication:
        """Register an SPMD component (its ``main`` plus fixed args).
        Component checkpoint prefixes are namespaced automatically; the
        name rules of
        :func:`~repro.workflow.manifest.check_member_name` keep the
        namespaces disjoint (a dotted or six-digit name would alias
        another component's checkpoint files)."""
        check_member_name(name, taken=self._components)
        app = DRMSApplication(
            main, name=name, machine=self.machine, pfs=self.pfs, **app_options
        )
        self._components[name] = (app, tuple(args), dict(kwargs or {}))
        return app

    @property
    def component_names(self) -> List[str]:
        return list(self._components)

    def component(self, name: str) -> DRMSApplication:
        return self._components[name][0]

    def _component_prefix(self, prefix: str, name: str) -> str:
        return f"{prefix}.{name}"

    # -- running -----------------------------------------------------------------

    def start(self, tasks: Dict[str, int]) -> MPMDRunReport:
        """Run every component on its own task count.  The degenerate
        single-task component is allowed (paper Section 2.2)."""
        self._check_tasks(tasks)
        report = MPMDRunReport()
        for name, (app, args, kwargs) in self._components.items():
            report.components[name] = app.start(tasks[name], args=args, kwargs=kwargs)
        return report

    def checkpointed_start(self, tasks: Dict[str, int], prefix: str) -> MPMDRunReport:
        """Run all components (each taking its own checkpoints under its
        namespaced prefix) and record the group manifest, making the set
        of per-component SOPs one globally consistent MPMD checkpoint."""
        report = self.start(
            {n: tasks[n] for n in self._components}
        )
        group = {
            "components": {
                name: {
                    "prefix": self._component_prefix(prefix, name),
                    "ntasks": tasks[name],
                }
                for name in self._components
            }
        }
        self.pfs.create(prefix + _GROUP_SUFFIX, virtual=False)
        self.pfs.write_at(prefix + _GROUP_SUFFIX, 0, json.dumps(group).encode())
        return report

    def restart(self, prefix: str, tasks: Dict[str, int]) -> MPMDRunReport:
        """Restart every component from its namespaced checkpoint, each
        with an independently chosen new task count (components
        reconfigure individually or collectively).

        The component states must form one **consistent logical
        generation**: when the components keep rotated generations under
        their namespaces (``<prefix>.<name>.NNNNNN``), the set restarted
        from is resolved *jointly* — the newest generation number at
        which every component is byte-valid — instead of each component
        falling back newest-to-oldest on its own, which could silently
        mix generations when one component's newest state is torn.  That
        walk opens every component's state onto its new task count, and
        the components run on from the states that opened."""
        self._check_tasks(tasks)
        resolved = self._resolve_component_states(prefix, tasks)
        report = MPMDRunReport()
        for name, (app, args, kwargs) in self._components.items():
            report.components[name] = app.restart(
                resolved[name],
                tasks[name],
                args=args,
                kwargs=kwargs,
            )
        return report

    def _has_state(self, app: DRMSApplication, prefix: str) -> bool:
        """A restartable state exists at exactly ``prefix`` (a committed
        PFS manifest, or an L1 generation of a memory-tier component)."""
        if self.pfs.exists(manifest_name(prefix)):
            return True
        return any(ck.store.has(prefix) for ck in app._mlck.values())

    def _resolve_component_states(
        self, prefix: str, tasks: Dict[str, int]
    ) -> Dict[str, Union[str, OpenedGeneration]]:
        """The per-component restart states under ``prefix``.

        When every component has a state at its exact namespaced prefix
        (un-rotated coordinated checkpoints), that set *is* the logical
        generation, and each component opens its own.  Otherwise the
        components checkpointed under rotating generation numbers, and
        the set is resolved through the workflow line walk
        (:func:`~repro.workflow.manifest.newest_consistent_generations`):
        the newest number at which every component opens onto its count
        in ``tasks``, torn numbers rejected as a unit."""
        exact = {
            name: self._component_prefix(prefix, name)
            for name in self._components
        }
        if all(
            self._has_state(app, exact[name])
            for name, (app, _, _) in self._components.items()
        ):
            return exact
        resolved, rejected = newest_consistent_generations(
            self.pfs, exact, lambda m, p: self.component(m).open(p, tasks[m])
        )
        if resolved is None:
            raise RestartError(
                f"no MPMD generation under {prefix!r} has every "
                "component byte-valid" + first_rejections(rejected, "gen ")
            )
        return resolved

    def _check_tasks(self, tasks: Dict[str, int]) -> None:
        missing = set(self._components) - set(tasks)
        if missing:
            raise ReconfigurationError(
                f"no task counts for MPMD components {sorted(missing)}"
            )
        for name, n in tasks.items():
            if name in self._components:
                self._components[name][0].soq.check(n)
