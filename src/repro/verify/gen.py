"""Seeded generators for the differential reconfiguration harness.

Hypothesis-style random construction of the paper's geometry vocabulary
— ranges, slices, per-axis distribution kinds (BLOCK, CYCLIC,
CYCLIC(k), GENBLOCK, INDEXED, replicated), process grids — and of whole
:class:`~repro.verify.case.Case` experiments.  Everything is driven by
one :class:`random.Random` so a suite run is a pure function of its
seed; a failing case is replayable from its JSON dump alone.

The generators deliberately favor the degenerate corners example-based
tests skip: 1-element axes, task counts larger than axis extents (empty
assigned sections), partial INDEXED coverage (undefined elements),
shadowed mapped sections, and ``t1 > t2`` shrinking reconfigurations as
well as ``t1 < t2`` growing ones.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from repro.arrays.distributions import (
    AxisDistribution,
    Block,
    BlockCyclic,
    Cyclic,
    Distribution,
    GenBlock,
    Indexed,
    Replicated,
)
from repro.arrays.ranges import Range
from repro.arrays.slices import Slice
from repro.checkpoint.format import axis_to_spec
from repro.verify.case import ArrayCase, Case, FaultEvent

__all__ = [
    "CaseGen",
    "GENERATORS",
    "known_bad_case",
    "localized_equivalence_case",
    "localized_pfs_fallback_case",
    "lost_member_generation_case",
    "mid_drain_crash_case",
    "node_loss_case",
    "random_axis",
    "random_distribution",
    "random_grid",
    "random_range",
    "random_shape",
    "random_slice",
    "torn_workflow_case",
]

_DTYPES = ("float64", "float32", "int64", "int32", "int16", "uint8")
_TARGET_BYTES = (64, 256, 1024, 4096)


def _stored_offset(rng: random.Random) -> int:
    """The stored byte a write fault hits: below a power of two drawn
    log-uniformly from 8 B to 2 KiB, the span of the files a fault case
    writes (array files of a few bytes to a few hundred, a manifest of
    about 0.5 KiB, a segment whose 0.2 KiB header and sparse pad run to
    2.8 KiB).  Plans land in every part of a file; one past the end of
    every matching file stays inert."""
    return rng.randrange(1 << rng.randint(3, 11))


def random_shape(rng: random.Random, max_rank: int = 3, max_extent: int = 9) -> List[int]:
    """A small random array shape, biased toward degenerate extents."""
    rank = rng.randint(1, max_rank)
    shape = []
    for _ in range(rank):
        if rng.random() < 0.2:
            shape.append(1)  # degenerate 1-element axis
        else:
            shape.append(rng.randint(2, max_extent))
    return shape


def random_range(rng: random.Random, extent: int) -> Range:
    """A random subrange of ``0..extent-1``: regular (any stride),
    indexed, or empty."""
    roll = rng.random()
    if roll < 0.1 or extent == 0:
        return Range.empty()
    if roll < 0.75:
        lo = rng.randrange(extent)
        hi = rng.randrange(lo, extent)
        step = rng.choice([1, 1, 1, 2, 3])
        return Range.regular(lo, hi, step)
    k = rng.randint(1, extent)
    return Range(sorted(rng.sample(range(extent), k)))


def random_slice(rng: random.Random, shape: Sequence[int]) -> Slice:
    """A random section of an array of the given shape."""
    return Slice([random_range(rng, int(n)) for n in shape])


def random_grid(rng: random.Random, ntasks: int, rank: int) -> List[int]:
    """A random process grid: ``rank`` factors multiplying to
    ``ntasks`` (prime factors thrown onto random axes)."""
    grid = [1] * rank
    m = ntasks
    f = 2
    while m > 1:
        while m % f == 0:
            grid[rng.randrange(rank)] *= f
            m //= f
        f += 1 if f == 2 else 2
        if f * f > m and m > 1:
            grid[rng.randrange(rank)] *= m
            m = 1
    return grid


def _composition(rng: random.Random, total: int, parts: int) -> List[int]:
    """``parts`` non-negative integers summing to ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_axis(
    rng: random.Random,
    nprocs: int,
    extent: int,
    allow_indexed: bool = True,
    allow_replicated: bool = True,
) -> AxisDistribution:
    """A random per-axis distribution legal for ``nprocs`` grid coords
    over ``extent`` elements."""
    if allow_replicated and nprocs == 1 and rng.random() < 0.15:
        return Replicated()
    kinds = ["block", "cyclic", "block_cyclic", "gen_block"]
    weights = [30, 20, 20, 15]
    if allow_indexed:
        kinds.append("indexed")
        weights.append(15)
    kind = rng.choices(kinds, weights=weights)[0]
    if kind == "block":
        return Block()
    if kind == "cyclic":
        return Cyclic()
    if kind == "block_cyclic":
        return BlockCyclic(block=rng.randint(1, 3))
    if kind == "gen_block":
        return GenBlock(_composition(rng, extent, nprocs))
    # indexed: contiguous chunks with random boundaries; occasionally
    # partial (a chunk shrunk or dropped — undefined elements)
    sizes = _composition(rng, extent, nprocs)
    ranges: List[Range] = []
    start = 0
    for size in sizes:
        if size == 0:
            ranges.append(Range.empty())
        else:
            lo, hi = start, start + size - 1
            if rng.random() < 0.25:  # partial coverage
                if rng.random() < 0.5:
                    ranges.append(Range.empty())
                else:
                    hi = rng.randint(lo, hi)
                    ranges.append(Range.regular(lo, hi, 1))
            else:
                ranges.append(Range.regular(lo, hi, 1))
        start += size
    return Indexed(ranges)


def _random_shadow(
    rng: random.Random, axes: Sequence[AxisDistribution]
) -> List[int]:
    """Shadow widths; nonzero only where assigned ranges are contiguous
    enough for halo expansion to mean anything."""
    out = []
    for ax in axes:
        if isinstance(ax, (Block, GenBlock)) and rng.random() < 0.3:
            out.append(rng.randint(1, 2))
        else:
            out.append(0)
    return out


def random_distribution(
    rng: random.Random,
    shape: Sequence[int],
    ntasks: int,
    allow_indexed: bool = True,
) -> Distribution:
    """A full random :class:`Distribution` of ``shape`` over
    ``ntasks`` tasks (random grid, per-axis kinds, shadows)."""
    grid = random_grid(rng, ntasks, len(shape))
    axes = [
        random_axis(rng, grid[i], int(shape[i]), allow_indexed=allow_indexed)
        for i in range(len(shape))
    ]
    return Distribution(
        shape, axes, ntasks=ntasks, grid=grid, shadow=_random_shadow(rng, axes)
    )


class CaseGen:
    """Deterministic case factory: one seed → one reproducible stream
    of reconfiguration and fault cases."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = random.Random(self.seed)

    # -- geometry for one case ------------------------------------------

    def _axes(
        self, shape: List[int], grid: List[int], allow_replicated: bool
    ) -> List[AxisDistribution]:
        return [
            random_axis(
                self.rng, grid[k], shape[k], allow_replicated=allow_replicated
            )
            for k in range(len(shape))
        ]

    def _array_cases(
        self,
        shape: List[int],
        grid1: List[int],
        grid2: List[int],
        allow_replicated: bool = True,
    ) -> List[ArrayCase]:
        rng = self.rng
        out = []
        for i in range(rng.choice([1, 1, 2])):
            axes1 = self._axes(shape, grid1, allow_replicated)
            axes2 = self._axes(shape, grid2, allow_replicated)
            out.append(
                ArrayCase(
                    name=f"A{i}",
                    dtype=rng.choice(_DTYPES),
                    axes1=[axis_to_spec(a) for a in axes1],
                    axes2=[axis_to_spec(a) for a in axes2],
                    shadow1=_random_shadow(rng, axes1),
                    shadow2=_random_shadow(rng, axes2),
                )
            )
        return out

    # -- reconfiguration cases ------------------------------------------

    def reconfig_case(self) -> Case:
        """One random ``(t1, p1) -> (t2, p2)`` equivalence case."""
        rng = self.rng
        engine = rng.choices(
            ["drms", "spmd", "incremental"], weights=[55, 15, 30]
        )[0]
        shape = random_shape(rng)
        t1 = rng.randint(1, 6)
        t2 = t1 if engine == "spmd" else rng.randint(1, 6)
        p1 = rng.randint(1, t1)
        if engine == "incremental":
            # restore() streams with the checkpointing I/O task count,
            # which must fit the restart task pool
            p1 = rng.randint(1, min(t1, t2))
        p2 = rng.randint(1, t2)
        grid1 = random_grid(rng, t1, len(shape))
        grid2 = random_grid(rng, t2, len(shape))
        return Case(
            type="reconfig",
            engine=engine,
            order=rng.choice(["F", "C"]),
            shape=shape,
            t1=t1,
            p1=p1,
            t2=t2,
            p2=p2,
            grid1=grid1,
            grid2=grid2,
            # the incremental engine restores through the stored spec's
            # adjust() path (no per-array overrides), which cannot
            # re-host a fully replicated array on a larger task pool
            arrays=self._array_cases(
                shape, grid1, grid2, allow_replicated=(engine != "incremental")
            ),
            target_bytes=rng.choice(_TARGET_BYTES),
            data_seed=rng.randrange(1 << 30),
            segment_bytes=rng.choice([256, 1024, 4096]),
            seed=self.seed,
        )

    # -- fault cases -----------------------------------------------------

    def _fault_case(
        self,
        event: Callable[..., FaultEvent],
        draws: Sequence[Tuple[str, Sequence[int]]] = (),
        **fixed,
    ) -> Case:
        """One random fault case on the drms engine: geometry, then the
        mode's own ``draws`` (``(field, choices)`` pairs, drawn in
        order), then 1-4 events from ``event(generations, **drawn)``;
        ``fixed`` sets the mode's remaining fields."""
        rng = self.rng
        shape = random_shape(rng, max_rank=2, max_extent=8)
        t1 = rng.randint(1, 4)
        t2 = rng.randint(1, 4)
        p1 = rng.randint(1, t1)
        p2 = rng.randint(1, t2)
        grid1 = random_grid(rng, t1, len(shape))
        grid2 = random_grid(rng, t2, len(shape))
        generations = rng.randint(2, 4)
        drawn = {name: rng.choice(choices) for name, choices in draws}
        events = [
            event(generations, **drawn) for _ in range(rng.randint(1, 4))
        ]
        return Case(
            type="fault",
            engine="drms",
            order=rng.choice(["F", "C"]),
            shape=shape,
            t1=t1,
            p1=p1,
            t2=t2,
            p2=p2,
            grid1=grid1,
            grid2=grid2,
            arrays=self._array_cases(shape, grid1, grid2),
            target_bytes=rng.choice(_TARGET_BYTES),
            data_seed=rng.randrange(1 << 30),
            seed=self.seed,
            generations=generations,
            events=events,
            **drawn,
            **fixed,
        )

    def _fault_event(self, generations: int) -> FaultEvent:
        rng = self.rng
        gen = rng.randint(1, generations)
        if rng.random() < 0.7:
            return FaultEvent(
                kind="write",
                gen=gen,
                match=rng.choice(["", ".segment", ".array", ".manifest"]),
                mode=rng.choices(
                    ["fail", "torn", "short"], weights=[30, 30, 40]
                )[0],
                offset=_stored_offset(rng),
            )
        return FaultEvent(
            kind="stored_flip",
            gen=gen,
            target=rng.choice(["segment", "array"]),
            array_index=0,
            offset=rng.randrange(4096),
            bit=rng.randrange(8),
        )

    def fault_case(self) -> Case:
        """One random fault-schedule case: the validated recovery policy
        must land on the newest byte-for-byte valid generation."""
        return self._fault_case(self._fault_event)

    def _mlck_event(
        self, generations: int, num_nodes: int, **_
    ) -> FaultEvent:
        rng = self.rng
        gen = rng.randint(1, generations)
        roll = rng.random()
        if roll < 0.4:
            return FaultEvent(
                kind="node_loss", gen=gen, node=rng.randrange(num_nodes)
            )
        if roll < 0.7:
            return FaultEvent(
                kind="drain_crash",
                gen=gen,
                match=rng.choice(["", ".segment", ".array", ".manifest"]),
                offset=_stored_offset(rng),
            )
        return FaultEvent(
            kind="write",
            gen=gen,
            match=rng.choice(["", ".segment", ".array"]),
            mode=rng.choice(["short", "torn"]),
            offset=_stored_offset(rng),
        )

    def mlck_fault_case(self) -> Case:
        """One random multi-level fault case: node losses, mid-drain
        crashes, and silent durable-copy corruption; the tier-aware
        recovery walk must land on the newest generation servable from
        *either* tier and name the tier the schedule's ground truth
        predicts."""
        return self._fault_case(
            self._mlck_event, [("num_nodes", [4, 8])], tier="memory+pfs"
        )

    def localized_case(self) -> Case:
        """One random localized-equivalence case: a seeded (failure
        schedule, k-replica, node-count) triple run through *both*
        recovery paths by the differential oracle — localized recovery
        must produce byte-identical state to the full restore, on the
        L1 happy path and through the PFS fallback alike."""
        return self._fault_case(
            self._mlck_event,
            [("num_nodes", [6, 8, 12]), ("k", [1, 1, 2])],
            tier="memory+pfs",
            localized=True,
        )

    def _workflow_event(self, generations: int, members: int) -> FaultEvent:
        rng = self.rng
        gen = rng.randint(1, generations)
        member = rng.randrange(members)
        if rng.random() < 0.65:
            return FaultEvent(
                kind="stored_flip",
                gen=gen,
                member=member,
                target=rng.choice(["segment", "array", "array"]),
                array_index=rng.randrange(2),
                offset=rng.randrange(4096),
                bit=rng.randrange(8),
            )
        return FaultEvent(kind="gen_loss", gen=gen, member=member)

    def workflow_case(self) -> Case:
        """One random coupled-workflow case: a ring-coupled ensemble
        commits one workflow line per exchange, post-run corruption
        tears random members of random lines, and the oracle checks the
        walk rejects torn lines as units, falls back to the newest
        fully-valid one, and restarts every member byte-identically on
        independently drawn new task counts."""
        rng = self.rng
        members = rng.choice([2, 2, 3])
        shape = random_shape(rng, max_rank=2, max_extent=8)
        generations = rng.randint(2, 4)
        mt1 = [rng.randint(1, 3) for _ in range(members)]
        mt2 = [rng.randint(1, 3) for _ in range(members)]
        events = [
            self._workflow_event(generations, members)
            for _ in range(rng.randint(1, 3))
        ]
        t1, t2 = max(mt1), max(mt2)
        return Case(
            type="fault",
            engine="drms",
            order="F",
            shape=shape,
            t1=t1,
            p1=1,
            t2=t2,
            p2=1,
            grid1=random_grid(rng, t1, len(shape)),
            grid2=random_grid(rng, t2, len(shape)),
            arrays=[],
            target_bytes=rng.choice(_TARGET_BYTES),
            data_seed=rng.randrange(1 << 30),
            seed=self.seed,
            generations=generations,
            events=events,
            num_nodes=rng.choice([8, 16]),
            workflow=True,
            members=members,
            member_tasks1=mt1,
            member_tasks2=mt2,
        )


#: each suite mode (a key of ``run_suite``'s ``counts``) and the
#: :class:`CaseGen` method that draws its cases
GENERATORS: Dict[str, Callable[[CaseGen], Case]] = {
    "reconfig": CaseGen.reconfig_case,
    "fault": CaseGen.fault_case,
    "mlck": CaseGen.mlck_fault_case,
    "localized": CaseGen.localized_case,
    "workflow": CaseGen.workflow_case,
}


def _shell(seed: int, **kw) -> Case:
    """The fixed geometry every canonical schedule shares: one 6x4
    float64 array, (block, cyclic) on 2 tasks restarted as (cyclic,
    block) on 3, three generations; ``kw`` sets the rest."""
    fields = dict(
        type="fault",
        engine="drms",
        order="F",
        shape=[6, 4],
        t1=2,
        p1=2,
        t2=3,
        p2=1,
        grid1=[2, 1],
        grid2=[3, 1],
        arrays=[
            ArrayCase(
                name="A0",
                dtype="float64",
                axes1=[{"kind": "block"}, {"kind": "cyclic"}],
                axes2=[{"kind": "cyclic"}, {"kind": "block"}],
                shadow1=[0, 0],
                shadow2=[0, 0],
            )
        ],
        target_bytes=64,
        data_seed=random.Random(seed).randrange(1 << 30),
        seed=seed,
        generations=3,
    )
    fields.update(kw)
    return Case(**fields)


def node_loss_case(seed: int = 0) -> Case:
    """The canonical node-loss schedule: every generation drains, then
    one node dies after the last one.  With ``k=1`` partner replication
    the dead node's pieces survive on partners in other failure
    domains, so the tier-aware walk must serve the *newest* generation
    from L1 — without touching the PFS — and the oracle asserts exactly
    that (tier ``l1``, zero PFS reads during the walk)."""
    return _shell(
        seed,
        tier="memory+pfs",
        num_nodes=8,
        events=[FaultEvent(kind="node_loss", gen=3, node=1)],
        note=(
            "single node loss after the newest generation: partner "
            "replicas serve recovery from memory, no PFS reads"
        ),
    )


def mid_drain_crash_case(seed: int = 0) -> Case:
    """The canonical mid-drain-crash schedule: generation 3's drain
    dies on its first PFS write (no manifest commits — two-phase
    commit), leaving the generation memory-only; then the two nodes
    holding its first piece's replica set die.  Generation 3 is lost on
    both tiers, generation 2's L1 copy lost the same replica pair — so
    the walk must fall back to generation 2's *durable* copy (tier
    ``l2``), the exact double-fault the multi-level design degrades
    gracefully under."""
    return _shell(
        seed,
        tier="memory+pfs",
        num_nodes=4,
        events=[
            FaultEvent(kind="drain_crash", gen=3, offset=0),
            FaultEvent(kind="node_loss", gen=3, node=0),
            FaultEvent(kind="node_loss", gen=3, node=1),
        ],
        note=(
            "mid-drain crash orphans the newest generation in memory; "
            "losing its replica pair forces the L2 fallback"
        ),
    )


def localized_equivalence_case(seed: int = 0) -> Case:
    """The canonical localized happy path: every generation drains,
    then node 1 (which hosts restart rank 1) dies after the newest one.
    Partner replicas keep the newest generation L1-servable, so the
    differential oracle compares a zero-PFS-read localized recovery
    (survivors reload locally, rank 1's section crosses the switch to a
    spare) against the full L1 restore — bytes must match exactly."""
    return _shell(
        seed,
        tier="memory+pfs",
        num_nodes=8,
        events=[FaultEvent(kind="node_loss", gen=3, node=1)],
        localized=True,
        note=(
            "single node loss after the newest generation: localized "
            "recovery rebuilds one rank's section from partner replicas "
            "and must byte-match the full restore"
        ),
    )


def localized_pfs_fallback_case(seed: int = 0) -> Case:
    """The canonical localized degradation: generation 3's drain
    crashes (memory-only), then the replica pair holding its first
    piece dies — nodes 0 and 1, both restart-placement nodes.  The
    newest generation is lost on both tiers and generation 2's L1 copy
    lost the same pair, so *both* recovery paths must fall back to
    generation 2's durable PFS copy and still agree byte-for-byte."""
    return _shell(
        seed,
        tier="memory+pfs",
        num_nodes=4,
        events=[
            FaultEvent(kind="drain_crash", gen=3, offset=0),
            FaultEvent(kind="node_loss", gen=3, node=0),
            FaultEvent(kind="node_loss", gen=3, node=1),
        ],
        localized=True,
        note=(
            "all replicas of a piece die with the failed pair: localized "
            "recovery must degrade to the same full PFS read and still "
            "byte-match"
        ),
    )


def _workflow_shell(seed: int, **kw) -> Case:
    """The canonical workflow geometry: a two-member ring (stencil
    feeding a consumer), three committed lines, mixed task counts on
    restart; the members own their arrays, so the case lists none."""
    return _shell(
        seed,
        p1=1,
        arrays=[],
        workflow=True,
        members=2,
        member_tasks1=[2, 1],
        member_tasks2=[3, 2],
        **kw,
    )


def torn_workflow_case(seed: int = 0) -> Case:
    """The canonical torn-line schedule: after three workflow lines
    commit, a stored byte of member 1's newest generation flips.
    Member 0's newest state is still perfectly valid — but the line is
    torn, so the recovery walk must reject generation 3 *as a unit*
    (never mixing member 0's gen-3 state with member 1's gen-2 one) and
    restart the whole ensemble from line 2."""
    return _workflow_shell(
        seed,
        events=[
            FaultEvent(
                kind="stored_flip", gen=3, member=1,
                target="array", array_index=0, offset=3, bit=1,
            )
        ],
        note=(
            "one member of the newest workflow line silently corrupted: "
            "the whole line is rejected as a unit and the ensemble "
            "falls back to the previous one"
        ),
    )


def lost_member_generation_case(seed: int = 0) -> Case:
    """The canonical lost-member schedule: member 0's newest generation
    manifest disappears outright (a crash between the member commit and
    the workflow manifest would look the same).  The workflow manifest
    for line 3 still exists and member 1's state is intact, but the
    walk must treat the line as torn and fall back to line 2."""
    return _workflow_shell(
        seed,
        events=[FaultEvent(kind="gen_loss", gen=3, member=0)],
        note=(
            "one member generation of the newest line lost: the line "
            "is torn and the ensemble restarts from the previous one"
        ),
    )


def known_bad_case(seed: int = 0) -> Case:
    """The seeded known-bad schedule: a *naive* recovery policy (newest
    complete manifest, no validation) against a generation whose array
    file took a silent short write.  The schedule carries deliberately
    redundant events; :func:`repro.verify.shrink.shrink_case` reduces
    it to a single-event reproducer."""
    return _shell(
        seed,
        events=[
            # inert: the segment file is 2,816 bytes (193-byte header,
            # sparse pad), so no segment write covers byte 4096
            FaultEvent(
                kind="write", gen=1, match=".segment", mode="fail",
                offset=4096,
            ),
            # inert: byte 4000 is past the segment's end, so there is
            # no stored byte to flip
            FaultEvent(
                kind="stored_flip", gen=1, target="segment", offset=4000,
                bit=1,
            ),
            # the reproducer: a silent short write truncating the newest
            # generation's array stream at byte 5 — only a checksum can
            # catch it
            FaultEvent(
                kind="write", gen=3, match=".array", mode="short", offset=5,
            ),
            # inert: the array file is 192 bytes (6 x 4 float64), so no
            # array write covers byte 192
            FaultEvent(
                kind="write", gen=3, match=".array", mode="torn", offset=192,
            ),
            # inert: matches no file
            FaultEvent(kind="write", gen=2, match=".nosuch", mode="fail"),
        ],
        policy="naive",
        expect="fail",
        note=(
            "naive newest-complete-manifest recovery restarts from a "
            "generation whose array stream was silently truncated"
        ),
    )
