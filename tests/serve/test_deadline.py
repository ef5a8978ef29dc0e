"""Deadline resolution and expiry arithmetic."""

from __future__ import annotations

import pytest

from repro.serve.deadline import Deadline, resolve_deadline_ms


class TestResolveDeadlineMs:
    def test_absent_header_uses_the_default(self):
        assert resolve_deadline_ms(None, 2000, 20000) == 2000

    def test_client_can_tighten(self):
        assert resolve_deadline_ms("250", 2000, 20000) == 250

    def test_client_can_extend_up_to_the_server_max(self):
        assert resolve_deadline_ms("5000", 2000, 20000) == 5000
        assert resolve_deadline_ms("999999", 2000, 20000) == 20000

    def test_garbage_falls_back_to_the_default(self):
        assert resolve_deadline_ms("soon", 2000, 20000) == 2000
        assert resolve_deadline_ms("", 2000, 20000) == 2000
        assert resolve_deadline_ms("-5", 2000, 20000) == 2000
        assert resolve_deadline_ms("0", 2000, 20000) == 2000

    @pytest.mark.parametrize(
        "value", ["4_7", "+50", "\u0663\u0660\u0660", "9" * 5000],
        ids=["underscore", "plus-sign", "arabic-indic-digits", "5000-digits"],
    )
    def test_only_ascii_digits_are_read(self, value):
        # int() takes every one of these; the wire digit rule takes none.
        assert resolve_deadline_ms(value, 2000, 20000) == 2000

    def test_result_is_always_at_least_one_ms(self):
        assert resolve_deadline_ms("1", 2000, 20000) == 1
        assert resolve_deadline_ms(None, 1, 20000) == 1


class TestDeadline:
    def test_remaining_counts_down_and_clamps(self):
        deadline = Deadline(started_at=10.0, budget_s=2.0)
        assert deadline.remaining(10.0) == 2.0
        assert deadline.remaining(11.5) == 0.5
        assert deadline.remaining(13.0) == 0.0
        assert deadline.remaining(99.0) == 0.0

    def test_expired_is_inclusive_at_the_boundary(self):
        deadline = Deadline(started_at=0.0, budget_s=1.0)
        assert not deadline.expired(0.999)
        assert deadline.expired(1.0)
        assert deadline.expired(2.0)

    def test_non_positive_budget_is_rejected(self):
        with pytest.raises(ValueError):
            Deadline(started_at=0.0, budget_s=0.0)
