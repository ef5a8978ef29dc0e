"""Admission control: rate limiting, a bounded waiting room, shedding.

The controller answers one question per arriving batch request: run it
now (**admit**), park it in a bounded queue (**enqueue**), or refuse it
immediately (**shed**) with an honest ``Retry-After``.  Decisions are
pure functions of injected time plus the controller's own counters:

* a :class:`~repro.defense.ratelimit.TokenBucket` caps the arrival rate
  (its :meth:`~repro.defense.ratelimit.TokenBucket.retry_after` supplies
  the advertised wait on a rate shed);
* ``max_inflight`` caps concurrently running requests;
* ``queue_depth`` caps the waiting room, and a request is shed *before*
  queueing when its predicted wait — queue position times the EWMA
  service-time estimate — exceeds ``max_queue_wait_s``.  Shedding early
  beats queueing work that will only time out (the paper's own lesson:
  unbounded patience is the amplifier's friend).

The controller does only accounting; the asyncio layer owns the actual
futures and promotion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.defense.ratelimit import TokenBucket

ADMIT = "admit"
ENQUEUE = "enqueue"
SHED = "shed"


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict for one arriving request."""

    outcome: str
    #: Advertised wait before retrying, for shed requests (seconds).
    retry_after_s: float = 0.0
    #: Why a shed happened: ``rate``, ``queue-full``, or ``wait-budget``.
    reason: str = ""


class AdmissionController:
    """Counters + policy for admit / enqueue / shed.

    The caller must mirror every lifecycle edge back into the
    controller: :meth:`promote` when a queued request starts running,
    :meth:`leave_queue` when one gives up waiting, :meth:`release` when
    a running request finishes (which also feeds the EWMA service-time
    estimate the wait predictions use).
    """

    def __init__(
        self,
        max_inflight: int,
        queue_depth: int,
        bucket: Optional[TokenBucket] = None,
        max_queue_wait_s: float = 5.0,
        initial_service_estimate_s: float = 0.05,
        ewma_alpha: float = 0.2,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.bucket = bucket
        self.max_queue_wait_s = max_queue_wait_s
        self.ewma_alpha = ewma_alpha
        self.service_estimate_s = initial_service_estimate_s
        self.inflight = 0
        self.queued = 0
        self.admitted_total = 0
        self.shed_total = 0

    # -- policy -------------------------------------------------------------

    def estimated_wait_s(self, position: int) -> float:
        """Predicted queue wait at 1-based ``position``: the requests
        ahead drain at ``max_inflight`` per service interval."""
        if position <= 0:
            return 0.0
        intervals = (position + self.max_inflight - 1) // self.max_inflight
        return intervals * self.service_estimate_s

    def decide(self, now: float) -> AdmissionDecision:
        """Admit, enqueue, or shed one request arriving at ``now``."""
        if self.bucket is not None and not self.bucket.allow(now):
            self.shed_total += 1
            return AdmissionDecision(
                SHED,
                retry_after_s=self.bucket.retry_after(now),
                reason="rate",
            )
        if self.inflight < self.max_inflight:
            self.inflight += 1
            self.admitted_total += 1
            return AdmissionDecision(ADMIT)
        if self.queued >= self.queue_depth:
            self.shed_total += 1
            return AdmissionDecision(
                SHED,
                retry_after_s=self.estimated_wait_s(self.queued),
                reason="queue-full",
            )
        predicted = self.estimated_wait_s(self.queued + 1)
        if predicted > self.max_queue_wait_s:
            self.shed_total += 1
            return AdmissionDecision(
                SHED, retry_after_s=predicted, reason="wait-budget"
            )
        self.queued += 1
        return AdmissionDecision(ENQUEUE)

    # -- lifecycle accounting ----------------------------------------------

    def promote(self) -> None:
        """A queued request starts running (caller picked it)."""
        if self.queued < 1:
            raise RuntimeError("promote() with an empty queue")
        self.queued -= 1
        self.inflight += 1
        self.admitted_total += 1

    def leave_queue(self) -> None:
        """A queued request gave up (timeout, disconnect)."""
        if self.queued < 1:
            raise RuntimeError("leave_queue() with an empty queue")
        self.queued -= 1
        self.shed_total += 1

    def release(self, service_s: float) -> None:
        """A running request finished after ``service_s`` seconds."""
        if self.inflight < 1:
            raise RuntimeError("release() with nothing in flight")
        self.inflight -= 1
        if service_s >= 0:
            alpha = self.ewma_alpha
            self.service_estimate_s = (
                alpha * service_s + (1.0 - alpha) * self.service_estimate_s
            )

    def __repr__(self) -> str:
        return (
            f"AdmissionController(inflight={self.inflight}/{self.max_inflight}, "
            f"queued={self.queued}/{self.queue_depth})"
        )
