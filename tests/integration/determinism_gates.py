"""Every ``make verify-gates`` mode at the gates' own case counts, rerun
in-process under each host thread switch interval: the simulated
numbers must repeat.  About half a minute, so ``make
verify-determinism`` runs it by path; the tier-1 suite runs a tenth of
the cases (``test_determinism.py``)."""

import pytest

from tests.integration import test_determinism as tenth

pytestmark = pytest.mark.determinism


def test_the_verify_gates_repeat_at_full_counts(monkeypatch):
    tenth.test_the_verify_gates_repeat_under_any_switch_interval(
        monkeypatch, gates=tenth.GATES
    )
