"""Unit tests for the plan cache layer."""

import numpy as np
import pytest

from repro.arrays.distributions import (
    Distribution,
    Indexed,
    Replicated,
    block_distribution,
)
from repro.arrays.slices import Slice
from repro.obs import Tracer, use_tracer
from repro.plancache import (
    NullPlanCache,
    PlanCache,
    get_plan_cache,
    streaming_plan,
    transfer_schedule,
    use_plan_cache,
)
from repro.plancache.plans import section_index_plan
from repro.streaming.partition import partition_for_target, piece_offsets


class TestPlanCacheCore:
    def test_hit_returns_same_object(self):
        cache = PlanCache()
        calls = []
        v1 = cache.get_or_compute("k", (1,), lambda: calls.append(1) or [42])
        v2 = cache.get_or_compute("k", (1,), lambda: calls.append(1) or [43])
        assert v1 is v2 and v1 == [42]
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_kind_segregates_keys(self):
        cache = PlanCache()
        a = cache.get_or_compute("a", (1,), lambda: "A")
        b = cache.get_or_compute("b", (1,), lambda: "B")
        assert (a, b) == ("A", "B")
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.get_or_compute("k", (1,), lambda: 1)
        cache.get_or_compute("k", (2,), lambda: 2)
        cache.get_or_compute("k", (1,), lambda: 0)  # hit: 1 becomes MRU
        cache.get_or_compute("k", (3,), lambda: 3)  # evicts 2 (LRU)
        assert cache.evictions == 1
        assert cache.get_or_compute("k", (2,), lambda: 22) == 22  # recompute
        assert cache.misses == 4  # 1, 2, 3, and 2 again
        # key 3 survived both evictions (it was never LRU)
        assert cache.get_or_compute("k", (3,), lambda: 0) == 3

    def test_stats_snapshot(self):
        cache = PlanCache()
        cache.get_or_compute("k", (1,), lambda: 1)
        s = cache.stats()
        assert s["misses"] == 1 and s["size"] == 1
        assert 0.0 <= s["hit_rate"] <= 1.0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestScoping:
    def test_use_plan_cache_restores(self):
        outer = get_plan_cache()
        inner = PlanCache()
        with use_plan_cache(inner) as c:
            assert get_plan_cache() is inner is c
        assert get_plan_cache() is outer

    def test_null_cache_always_computes(self):
        null = NullPlanCache()
        with use_plan_cache(null):
            s = Slice.full((16, 16))
            p1 = streaming_plan(s, 8, target_bytes=256)
            p2 = streaming_plan(s, 8, target_bytes=256)
        assert p1 == p2
        assert null.misses == 2
        assert len(null) == 0


class TestCachedPlans:
    def test_partition_matches_pure(self):
        # the cached partition is the pieces of the composite plan entry
        s = Slice.full((32, 8))
        with use_plan_cache(PlanCache()):
            pieces, _ = streaming_plan(s, 8, target_bytes=512)
        assert list(pieces) == partition_for_target(s, 8, target_bytes=512)

    def test_returned_lists_are_private_copies(self):
        # a cached schedule comes back as a fresh list each lookup
        d = block_distribution((12, 6), 3)
        with use_plan_cache(PlanCache()):
            s1 = transfer_schedule(d, d)
            s1.append("garbage")
            s2 = transfer_schedule(d, d)
        assert "garbage" not in s2

    def test_streaming_plan_composite(self):
        s = Slice.full((16, 4))
        cache = PlanCache()
        with use_plan_cache(cache):
            pieces, offsets = streaming_plan(s, 8, target_bytes=128)
            again = streaming_plan(s, 8, target_bytes=128)
        assert again == (pieces, offsets)
        assert cache.hits == 1
        assert list(offsets) == piece_offsets(list(pieces), 8)

    def test_index_plan_read_only(self):
        rows = [np.array([0, 3, 5]), np.array([1, 2, 4, 6, 7])]
        dist = Distribution((8, 8), [Indexed(rows), Replicated()], 2)
        with use_plan_cache(PlanCache()):
            plan = section_index_plan(dist, Slice.full((8, 8)))
        assert len(plan.entries) == 2
        for entry in plan.entries:
            # the irregular rows are a list in the section mesh; their
            # local positions (0..n-1) and the replicated axis are slices
            rows, *slices = entry.sbox + entry.lbox
            assert isinstance(rows, np.ndarray)
            assert all(isinstance(ix, slice) for ix in slices)
            with pytest.raises(ValueError):
                rows[0] = 0

    def test_schedule_fingerprint_sharing(self):
        # two Distribution objects with identical geometry share one entry
        cache = PlanCache()
        d1 = block_distribution((12, 6), 3)
        d2 = block_distribution((12, 6), 3)
        with use_plan_cache(cache):
            s1 = transfer_schedule(d1, d1)
            s2 = transfer_schedule(d2, d2)
        assert s1 == s2
        assert cache.hits == 1 and cache.misses == 1


class TestMetrics:
    def test_hit_miss_counters_published(self):
        with use_tracer(Tracer()) as tracer:
            with use_plan_cache(PlanCache()):
                s = Slice.full((8, 8))
                streaming_plan(s, 8, target_bytes=64)
                streaming_plan(s, 8, target_bytes=64)
            flat = tracer.metrics.flat()
        assert flat.get("plancache.miss.count") or flat.get("plancache.miss")
        assert flat.get("plancache.hit.count") or flat.get("plancache.hit")

    def test_saved_seconds_accrue_on_hits(self):
        cache = PlanCache()
        with use_plan_cache(cache):
            s = Slice.full((32, 32))
            streaming_plan(s, 8, target_bytes=64)
            assert cache.saved_seconds == 0.0
            streaming_plan(s, 8, target_bytes=64)
        assert cache.saved_seconds > 0.0


class TestResidentBytes:
    """The cache is bounded by entries; ``resident_bytes`` says what the
    entries hold: O(rank) integers for a strided-box plan, plus 8 B per
    listed position for an irregular axis — O(axis extent), never
    O(elements)."""

    SHAPE = (1024, 1024)

    def _block(self):
        return block_distribution(self.SHAPE, 4, shadow=(1, 1))

    def _indexed(self):
        from repro.arrays.distributions import Distribution, Indexed, Replicated

        owner = np.random.default_rng(3).permutation(np.arange(1024) % 4)
        rows = [np.flatnonzero(owner == t) for t in range(4)]
        return Distribution(self.SHAPE, [Indexed(rows), Replicated()], 4)

    @pytest.mark.parametrize("kind", ["assigned", "mapped"])
    def test_box_plans_are_small_and_vector_plans_are_not(self, kind):
        """A plan with an index-vector axis is larger than a box plan by
        that axis' rows, not by its elements."""
        section = Slice.full(self.SHAPE)
        cache = PlanCache()
        with use_tracer(Tracer()) as tracer, use_plan_cache(cache):
            assert cache.stats()["resident_bytes"] == 0
            section_index_plan(self._block(), section, kind=kind)
            box_bytes = cache.stats()["resident_bytes"]
            assert 0 < box_bytes < 4096
            indexed = self._indexed()
            plan = section_index_plan(indexed, section, kind=kind)
            # at most 16 B per row of the INDEXED axis (a list per
            # side), where flat index vectors held 24 B per element
            assert box_bytes < plan.nbytes <= 16 * self.SHAPE[0]
            assert cache.stats()["resident_bytes"] == box_bytes + plan.nbytes
            gauge = tracer.metrics.flat()["plancache.resident_bytes"]
            assert gauge == box_bytes + plan.nbytes
            # plans without an ``nbytes`` count 0; ndarrays count theirs
            streaming_plan(section, 8)
            assert cache.stats()["resident_bytes"] == box_bytes + plan.nbytes
            cache.clear()
            assert cache.stats()["resident_bytes"] == 0

    def test_eviction_releases_the_bytes(self):
        cache = PlanCache(maxsize=1)
        with use_plan_cache(cache):
            plan = section_index_plan(self._indexed(), Slice.full(self.SHAPE))
            assert cache.stats()["resident_bytes"] == plan.nbytes > 0
            streaming_plan(Slice.full((8, 8)), 8)  # evicts the vectors
            assert cache.evictions == 1
            assert cache.stats()["resident_bytes"] == 0


class TestNullCacheIntrospection:
    def test_null_cache_reports_an_empty_cache(self):
        """The cold baseline reports its counters like any cache: an
        empty store, a miss per lookup."""
        null = NullPlanCache()
        with use_plan_cache(null):
            streaming_plan(Slice.full((8, 8)), 8)
            streaming_plan(Slice.full((8, 8)), 8)
        assert null.stats() == {
            "size": 0,
            "maxsize": 0,
            "hits": 0,
            "misses": 2,
            "evictions": 0,
            "hit_rate": 0.0,
            "saved_seconds": 0.0,
            "resident_bytes": 0,
        }
        null.clear()
        assert len(null) == 0
