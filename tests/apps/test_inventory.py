"""The NPB proxies carry the paper's checkpoint-relevant anatomy:
array inventories (Table 3), segment composition (Table 4), and
source-line accounting (Table 1)."""

import inspect

import numpy as np
import pytest

from repro.apps import BTProxy, LUProxy, SPProxy, make_proxy
from repro.apps.meta import DRMS_CALL_RE, count_drms_lines, npb_class_n
from repro.perfmodel.paper_data import PAPER_TABLE1, PAPER_TABLE3, PAPER_TABLE4

MB = 1e6
PROXIES = {"bt": BTProxy, "lu": LUProxy, "sp": SPProxy}


class TestFactory:
    def test_make_proxy(self):
        assert isinstance(make_proxy("BT"), BTProxy)
        with pytest.raises(ValueError):
            make_proxy("mg")

    def test_class_sizes(self):
        assert npb_class_n("A") == 64
        assert npb_class_n("C") == 162
        with pytest.raises(ValueError):
            npb_class_n("Z")

    def test_store_data_defaults(self):
        assert make_proxy("bt", "toy").store_data
        assert not make_proxy("bt", "A").store_data


@pytest.mark.parametrize("name", ["bt", "lu", "sp"])
class TestTable3Sizes:
    def test_array_bytes_match_paper(self, name):
        proxy = make_proxy(name, "A")
        paper = PAPER_TABLE3[name]["drms"]["array"]
        assert proxy.array_bytes_total / MB == pytest.approx(paper, rel=0.03)

    def test_segment_bytes_match_paper(self, name):
        proxy = make_proxy(name, "A")
        paper = PAPER_TABLE3[name]["drms"]["data"]
        assert proxy.spmd_segment_bytes / MB == pytest.approx(paper, rel=0.08)

    def test_drms_state_fixed_spmd_linear(self, name):
        proxy = make_proxy(name, "A")
        drms_total = proxy.drms_state_bytes()["total"]
        for p in (4, 8, 16):
            paper = PAPER_TABLE3[name]["spmd"][p]
            assert proxy.spmd_state_bytes(p) / MB == pytest.approx(paper, rel=0.08)
        # DRMS state does not depend on P; SPMD state doubles with P
        assert proxy.spmd_state_bytes(16) == 2 * proxy.spmd_state_bytes(8)
        assert drms_total < proxy.spmd_state_bytes(4)


@pytest.mark.parametrize("name", ["bt", "lu", "sp"])
class TestTable4Segment:
    def test_components_match_paper(self, name):
        proxy = make_proxy(name, "A")
        total, local, system, private = PAPER_TABLE4[name]
        prof = proxy.segment_profile()
        assert prof.system_bytes == system  # exact constant
        assert prof.private_bytes == pytest.approx(private, rel=0.01)
        assert prof.local_section_bytes == pytest.approx(local, rel=0.08)
        assert prof.total_bytes == pytest.approx(total, rel=0.05)

    def test_local_sections_exceed_quarter_of_arrays(self, name):
        """Paper: local sections slightly larger than 1/4 of the arrays
        because of shadow regions."""
        proxy = make_proxy(name, "A")
        quarter = proxy.array_bytes_total / 4
        local = proxy.segment_profile().local_section_bytes
        assert quarter < local < 1.4 * quarter


@pytest.mark.parametrize("name", ["bt", "lu", "sp"])
class TestTable1Lines:
    def test_paper_counts_recorded(self, name):
        proxy = make_proxy(name, "toy")
        total, added = PAPER_TABLE1[name]
        assert proxy.paper_total_lines == total
        assert proxy.paper_added_lines == added
        # ~1% of the source (the paper's headline claim)
        assert 0.005 < added / total < 0.015

    def test_proxy_drms_line_count_is_small(self, name):
        proxy = make_proxy(name, "toy")
        n = count_drms_lines(proxy.spmd_main)
        assert 5 <= n <= 30  # a handful of API touch points

    def test_counted_lines_include_the_checkpoint_call(self, name):
        """Table 1 counts the SOP's checkpoint call: some counted line
        of the proxy's program calls ``reconfig_checkpoint``."""
        src = inspect.getsource(make_proxy(name, "toy").spmd_main)
        counted = [line for line in src.splitlines() if DRMS_CALL_RE.search(line)]
        assert any("reconfig_checkpoint(" in line for line in counted)


class TestGeometry:
    def test_lu_pencil_decomposition(self):
        proxy = make_proxy("lu", "A")
        d = proxy.field_distribution(proxy.fields[0], 8)
        assert d.grid[0] == 1  # components replicated
        assert d.grid[1] == 1  # z whole (2D decomposition)

    def test_bt_3d_decomposition(self):
        proxy = make_proxy("bt", "A")
        d = proxy.field_distribution(proxy.fields[0], 8)
        assert d.grid == (1, 2, 2, 2)
        assert d.shadow == (0, 2, 2, 2)

    def test_no_shadow_on_undistributed_axes(self):
        proxy = make_proxy("sp", "A")
        d = proxy.field_distribution(proxy.fields[0], 4)
        assert d.grid == (1, 1, 2, 2)
        assert d.shadow == (0, 0, 2, 2)

    def test_private_bytes_scale_with_class(self):
        a = make_proxy("lu", "A").private_bytes()
        c = make_proxy("lu", "C").private_bytes()
        assert c / a == pytest.approx((162 / 64) ** 3, rel=0.01)

    def test_soq_minimum_four_tasks_for_real_classes(self):
        assert make_proxy("bt", "A").soq_spec().min_tasks == 4
        assert make_proxy("bt", "toy").soq_spec().min_tasks == 1
