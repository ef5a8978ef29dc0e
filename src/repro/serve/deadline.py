"""Per-request deadlines for the analysis service.

A deadline is an absolute expiry on the service's injected clock.  The
budget is resolved once at admission from the server default and the
client's ``X-Deadline-Ms`` request header, then carried through the
batch loop: each item checks :meth:`Deadline.expired` before starting,
so an expiring batch stops mid-flight and the remaining items come back
marked ``"deadline_exceeded"`` instead of holding the slot hostage.
"""

from __future__ import annotations

from typing import Optional

from repro.http.wire import decimal_value

#: Per-item marker placed in batch results for work the deadline killed.
DEADLINE_EXCEEDED = "deadline_exceeded"

#: Request header by which a client tightens (or, up to the server max,
#: extends) its own deadline.
DEADLINE_HEADER = "X-Deadline-Ms"


def resolve_deadline_ms(
    header_value: Optional[str], default_ms: int, max_ms: int
) -> int:
    """Resolve a request's deadline budget in milliseconds.

    The client's ``X-Deadline-Ms`` wins when it is a positive integer of
    1-18 ASCII digits (:func:`repro.http.wire.decimal_value`, the rule
    ``Content-Length`` obeys); anything else (absent, garbage, zero,
    signed, ``4_7``, non-ASCII digits) falls back to ``default_ms``.
    Either way the result is clamped into ``[1, max_ms]`` — a client can
    never buy more time than the server is willing to spend on one
    request.
    """
    requested = default_ms
    if header_value is not None:
        parsed = decimal_value(header_value.strip(" \t"))
        if parsed:
            requested = parsed
    return max(1, min(requested, max_ms))


class Deadline:
    """An absolute expiry instant on the service clock."""

    __slots__ = ("started_at", "budget_s", "expires_at")

    def __init__(self, started_at: float, budget_s: float) -> None:
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be > 0, got {budget_s!r}")
        self.started_at = started_at
        self.budget_s = budget_s
        self.expires_at = started_at + budget_s

    def remaining(self, now: float) -> float:
        """Seconds of budget left (clamped to >= 0)."""
        return max(0.0, self.expires_at - now)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def __repr__(self) -> str:
        return f"Deadline(started_at={self.started_at}, budget_s={self.budget_s})"
