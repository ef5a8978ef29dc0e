"""The analysis service: routing, batch processing, degradation.

:class:`AnalysisService` maps HTTP requests to responses with no I/O of
its own — the asyncio layer (:mod:`repro.serve.server`) feeds it parsed
:class:`~repro.http.message.HttpRequest` objects.  Endpoints:

* ``POST /v1/analyze`` — batch of items, each a vendor (SBR by
  default, CCFC with ``"attack": "ccfc"``) or an FCDN/BCDN pair (OBR);
  ``"attack"`` names a family of :data:`~repro.analysis.families.FAMILIES`
  and answers are that family's closed-form finding for the subject,
  optionally augmented with an exact simulated factor
  (``"exact": true``);
* ``POST /v1/recommend`` — same item shapes; answers add the cheapest
  sufficient mitigation from :func:`~repro.analysis.recommend.recommend`;
* ``GET /healthz`` / ``GET /readyz`` — liveness and drain-aware
  readiness;
* ``GET /metrics`` — Prometheus text exposition of the service registry.

Batch processing is written as a generator that yields once per item:
the synchronous driver (:meth:`AnalysisService.handle`) just drains it,
while the asyncio driver (:meth:`AnalysisService.handle_async`) awaits
between steps, which is what makes deadline expiry and task
cancellation land on item boundaries — never mid-computation, never
with a half-written memo entry.

The exact-simulation path sits behind the circuit breaker.  When the
breaker refuses, or the simulation errors, the item still gets its
closed-form answer plus ``"degraded": true`` — bounds are upper bounds,
so a degraded answer is conservative rather than wrong.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from repro.analysis.families import FAMILIES, Family, Subject, resolve_sizes
from repro.analysis.recommend import DEFAULT_THRESHOLD, recommend
from repro.analysis.report import AnalysisReport, Finding
from repro.cdn.vendors import all_vendor_names
from repro.defense.ratelimit import TokenBucket
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.status import StatusCode
from repro.obs.metrics import (
    SERVE_BREAKER_STATE,
    SERVE_INFLIGHT,
    SERVE_QUEUE_DEPTH,
    MetricsRegistry,
    use_metrics,
)
from repro.origin.resource import MAX_RESOURCE_SIZE
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.breaker import CircuitBreaker
from repro.serve.deadline import (
    DEADLINE_EXCEEDED,
    DEADLINE_HEADER,
    Deadline,
    resolve_deadline_ms,
)
from repro.serve.memo import SharedMemoRegistry

MB = 1 << 20

#: A monotonic clock; wall time never enters the service logic.
Clock = Callable[[], float]
#: (vendor, resource_size) -> measured amplification factor; replaces
#: every family's exact measurement when injected.
ExactRunner = Callable[[str, int], float]

_Result = Tuple[HttpResponse, str]
_Steps = Generator[None, None, _Result]


@dataclass(frozen=True)
class ServeConfig:
    """All service knobs in one injectable bundle."""

    max_inflight: int = 8
    queue_depth: int = 16
    default_deadline_ms: int = 2000
    #: Hard per-request ceiling; ``X-Deadline-Ms`` is clamped to this.
    max_deadline_ms: int = 20000
    #: Token-bucket burst; ``rate_refill <= 0`` disables rate limiting.
    rate_capacity: float = 256.0
    rate_refill: float = 0.0
    max_queue_wait_s: float = 5.0
    max_body_bytes: int = 1 * MB
    max_batch_items: int = 64
    max_resource_size: int = MAX_RESOURCE_SIZE
    #: Exact simulations refuse sizes above this (simulation cost grows
    #: with the resource, and the bounds already cover large sizes).
    exact_max_size: int = 8 * MB
    #: An exact simulation slower than this counts as a breaker failure.
    exact_timeout_s: float = 1.0
    breaker_failure_threshold: int = 3
    breaker_reset_timeout_s: float = 5.0
    breaker_half_open_probes: int = 1
    memo_entries: int = 4096

    def make_bucket(self) -> Optional[TokenBucket]:
        if self.rate_refill <= 0:
            return None
        return TokenBucket(capacity=self.rate_capacity, refill_rate=self.rate_refill)


def _json_body(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _json_response(
    status: int,
    payload: Dict[str, Any],
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> HttpResponse:
    body = _json_body(payload)
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
        ("Connection", "close"),
    ]
    headers.extend(extra_headers)
    return HttpResponse(status, headers=Headers(headers), body=body)


def _retry_after_header(retry_after_s: float) -> Tuple[str, str]:
    """Format a ``Retry-After`` header: integer seconds, ceiling, >= 1.

    An unbounded wait (bucket can never refill that far) is advertised
    as a long-but-finite backoff rather than infinity.
    """
    if not math.isfinite(retry_after_s):
        seconds = 3600
    else:
        seconds = max(1, math.ceil(retry_after_s))
    return ("Retry-After", str(seconds))


def drive(steps: _Steps) -> _Result:
    """Drain a batch generator synchronously."""
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return cast(_Result, stop.value)


async def drive_async(steps: _Steps) -> _Result:
    """Drain a batch generator, yielding to the event loop per item."""
    try:
        while True:
            next(steps)
            await asyncio.sleep(0)
    except StopIteration as stop:
        return cast(_Result, stop.value)


@dataclass
class _Item:
    """One validated batch item."""

    family: Family
    subject: Subject
    size: int
    exact: bool
    threshold: float


class AnalysisService:
    """Routing and batch semantics; deterministic under injected clocks."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        clock: Optional[Clock] = None,
        exact_runner: Optional[ExactRunner] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.clock: Clock = clock if clock is not None else time.monotonic
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fault_plan = fault_plan
        self._exact_runner = exact_runner
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout_s=self.config.breaker_reset_timeout_s,
            half_open_probes=self.config.breaker_half_open_probes,
        )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            bucket=self.config.make_bucket(),
            max_queue_wait_s=self.config.max_queue_wait_s,
        )
        self.memo = SharedMemoRegistry(total_entries=self.config.memo_entries)
        self.draining = False
        self._vendors = frozenset(all_vendor_names())

    # -- public drivers -----------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Synchronous entry point: route, process, record metrics."""
        started = self.clock()
        with use_metrics(self.metrics):
            endpoint, routed = self._route(request)
            if isinstance(routed, tuple):
                response, outcome = routed
            else:
                response, outcome = drive(routed)
            self._observe(endpoint, outcome, started)
        return response

    async def handle_async(self, request: HttpRequest) -> HttpResponse:
        """Asyncio entry point: batch work yields to the loop per item,
        so cancellation and concurrent requests interleave cleanly."""
        started = self.clock()
        with use_metrics(self.metrics):
            endpoint, routed = self._route(request)
            if isinstance(routed, tuple):
                response, outcome = routed
            else:
                try:
                    response, outcome = await drive_async(routed)
                except asyncio.CancelledError:
                    self._observe(endpoint, "cancelled", started)
                    raise
            self._observe(endpoint, outcome, started)
        return response

    def shed_response(
        self, request: HttpRequest, decision: AdmissionDecision
    ) -> HttpResponse:
        """The 429 a shed request receives (also records the metric)."""
        endpoint = self._endpoint(request)
        started = self.clock()
        with use_metrics(self.metrics):
            self._observe(endpoint, "shed", started)
        return _json_response(
            StatusCode.TOO_MANY_REQUESTS,
            {"error": "overloaded", "reason": decision.reason},
            extra_headers=(_retry_after_header(decision.retry_after_s),),
        )

    # -- routing ------------------------------------------------------------

    @staticmethod
    def _endpoint(request: HttpRequest) -> str:
        path = request.path
        if path == "/v1/analyze":
            return "analyze"
        if path == "/v1/recommend":
            return "recommend"
        if path in ("/healthz", "/readyz", "/metrics"):
            return path[1:]
        return "other"

    def _route(
        self, request: HttpRequest
    ) -> Tuple[str, Union[_Result, _Steps]]:
        endpoint = self._endpoint(request)
        path = request.path
        if endpoint in ("analyze", "recommend"):
            if request.method != "POST":
                return endpoint, self._error(
                    StatusCode.METHOD_NOT_ALLOWED, f"{path} requires POST"
                )
            return endpoint, self._batch_steps(endpoint, request)
        if endpoint in ("healthz", "readyz", "metrics"):
            if request.method != "GET":
                return endpoint, self._error(
                    StatusCode.METHOD_NOT_ALLOWED, f"{path} requires GET"
                )
            if endpoint == "healthz":
                return endpoint, (
                    _json_response(StatusCode.OK, {"status": "ok"}),
                    "ok",
                )
            if endpoint == "readyz":
                if self.draining:
                    return endpoint, (
                        _json_response(
                            StatusCode.SERVICE_UNAVAILABLE,
                            {"status": "draining"},
                        ),
                        "error",
                    )
                return endpoint, (
                    _json_response(StatusCode.OK, {"status": "ready"}),
                    "ok",
                )
            return endpoint, (self._metrics_response(), "ok")
        return endpoint, self._error(
            StatusCode.NOT_FOUND, f"no such endpoint: {path}"
        )

    @staticmethod
    def _error(status: int, message: str) -> _Result:
        return _json_response(status, {"error": message}), "error"

    def _metrics_response(self) -> HttpResponse:
        self.refresh_gauges()
        body = self.metrics.to_prometheus().encode("utf-8")
        return HttpResponse(
            StatusCode.OK,
            headers=Headers(
                [
                    ("Content-Type", "text/plain; version=0.0.4"),
                    ("Content-Length", str(len(body))),
                    ("Connection", "close"),
                ]
            ),
            body=body,
        )

    def refresh_gauges(self) -> None:
        """Bring point-in-time gauges up to date before an export."""
        self.metrics.gauge(SERVE_QUEUE_DEPTH, "requests in the waiting room").set(
            float(self.admission.queued)
        )
        self.metrics.gauge(SERVE_INFLIGHT, "requests currently running").set(
            float(self.admission.inflight)
        )
        self.metrics.gauge(
            SERVE_BREAKER_STATE,
            "exact-sim breaker state (0 closed, 1 half-open, 2 open)",
        ).set(self.breaker.gauge_value())
        self.memo.export(self.metrics)

    def _observe(self, endpoint: str, outcome: str, started: float) -> None:
        self.metrics.record_serve_request(
            endpoint, outcome, max(0.0, self.clock() - started)
        )

    # -- batch processing ---------------------------------------------------

    def _batch_steps(self, endpoint: str, request: HttpRequest) -> _Steps:
        body = request.body.materialize()
        if len(body) > self.config.max_body_bytes:
            return self._error(
                StatusCode.PAYLOAD_TOO_LARGE,
                f"body exceeds {self.config.max_body_bytes} bytes",
            )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return self._error(StatusCode.BAD_REQUEST, f"malformed JSON: {exc}")
        except RecursionError:
            return self._error(StatusCode.BAD_REQUEST, "malformed JSON: nested too deeply")
        if not isinstance(payload, dict) or not isinstance(
            payload.get("items"), list
        ):
            return self._error(
                StatusCode.BAD_REQUEST, 'body must be {"items": [...]}'
            )
        items = payload["items"]
        if not items:
            return self._error(StatusCode.BAD_REQUEST, "items must be non-empty")
        if len(items) > self.config.max_batch_items:
            return self._error(
                StatusCode.BAD_REQUEST,
                f"batch exceeds {self.config.max_batch_items} items",
            )
        budget_ms = resolve_deadline_ms(
            request.headers.get(DEADLINE_HEADER),
            self.config.default_deadline_ms,
            self.config.max_deadline_ms,
        )
        deadline = Deadline(self.clock(), budget_ms / 1000.0)

        results: List[Dict[str, Any]] = []
        partial = False
        degraded = False
        for raw in items:
            if deadline.expired(self.clock()):
                results.append({"error": DEADLINE_EXCEEDED})
                partial = True
                continue
            result = self._run_item(endpoint, raw)
            if result.get("degraded"):
                degraded = True
            results.append(result)
            yield
        response = _json_response(
            StatusCode.OK,
            {
                "results": results,
                "partial": partial,
                "degraded": degraded,
                "deadline_ms": budget_ms,
            },
        )
        if partial:
            outcome = "deadline"
        elif degraded:
            outcome = "degraded"
        else:
            outcome = "ok"
        return response, outcome

    def _parse_item(self, raw: Any) -> Union[_Item, str]:
        """A validated item, or the error string explaining why not."""
        if not isinstance(raw, dict):
            return "item must be an object"
        has_vendor = "vendor" in raw
        has_pair = "fcdn" in raw or "bcdn" in raw
        if has_vendor == has_pair:
            vendor_labels = "/".join(f.label for f in FAMILIES if not f.pair)
            pair_labels = "/".join(f.label for f in FAMILIES if f.pair)
            return (
                f'item needs either "vendor" ({vendor_labels}) '
                f'or "fcdn"+"bcdn" ({pair_labels})'
            )
        attack = raw.get("attack")
        named = [f for f in FAMILIES if attack is None or f.name == attack]
        if not named:
            return f"unknown attack {attack!r}"
        shaped = [f for f in named if f.pair == has_pair]
        if not shaped:
            if has_vendor:
                return f'attack "{attack}" needs "fcdn"+"bcdn"'
            return f'attack {attack!r} needs "vendor"'
        family = shaped[0]
        subject: Subject
        if has_vendor:
            vendor = raw["vendor"]
            if vendor not in self._vendors:
                return f"unknown vendor {vendor!r}"
            subject = (vendor,)
        else:
            fcdn, bcdn = raw.get("fcdn"), raw.get("bcdn")
            if fcdn not in self._vendors or bcdn not in self._vendors:
                return f"unknown cascade {fcdn!r} -> {bcdn!r}"
            if fcdn == bcdn:
                return "fcdn and bcdn must differ"
            subject = (fcdn, bcdn)
        size = raw.get("size", family.default_size)
        if isinstance(size, bool) or not isinstance(size, int):
            return "size must be an integer"
        if not 1 <= size <= self.config.max_resource_size:
            return f"size must be in [1, {self.config.max_resource_size}]"
        exact = raw.get("exact", False)
        if not isinstance(exact, bool):
            return "exact must be a boolean"
        threshold = raw.get("threshold", DEFAULT_THRESHOLD)
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            return "threshold must be a number"
        if threshold <= 0:
            return "threshold must be > 0"
        return _Item(family, subject, size, exact, float(threshold))

    def _run_item(self, endpoint: str, raw: Any) -> Dict[str, Any]:
        item = self._parse_item(raw)
        if isinstance(item, str):
            return {"error": f"invalid item: {item}"}
        finding = self._finding(item)
        out: Dict[str, Any] = {"finding": finding.to_dict()}
        if endpoint == "recommend":
            out.update(self._recommendation(item, finding))
        elif item.exact:
            out.update(self._exact(item, finding))
        return out

    # -- findings and recommendations (memoized) ----------------------------

    def _finding(self, item: _Item) -> Finding:
        family = item.family
        key = (family.name, *item.subject, item.size)
        return cast(Finding, self.memo.get_or_compute(
            "findings", key, lambda: family.finding(item.subject, item.size)
        ))

    def _recommendation(self, item: _Item, finding: Finding) -> Dict[str, Any]:
        if finding.kind == "safe":
            return {"recommendation": None, "resolved": True}
        key = ("rec", finding.kind, finding.subject, item.size, item.threshold)

        def compute() -> Dict[str, Any]:
            sizes = resolve_sizes(**{item.family.size_field: item.size})
            report = AnalysisReport(findings=(finding,), sizes=sizes)
            recommendation = recommend(
                threshold=item.threshold, report=report
            ).recommendations[0]
            return {
                "recommendation": recommendation.to_dict(),
                "resolved": recommendation.resolved,
            }

        return cast(
            Dict[str, Any],
            self.memo.get_or_compute("recommendations", key, compute),
        )

    # -- the breaker-guarded exact path -------------------------------------

    def _exact(self, item: _Item, finding: Finding) -> Dict[str, Any]:
        if finding.kind != item.family.name or not item.family.measurable:
            labels = "/".join(f.label for f in FAMILIES if f.measurable)
            return {
                "exact_skipped": f"exact measurement applies to {labels} items only"
            }
        if item.size > self.config.exact_max_size:
            return {
                "exact_skipped": (
                    f"size above exact limit {self.config.exact_max_size}"
                )
            }
        now = self.clock()
        if not self.breaker.allow(now):
            return {"degraded": True, "degraded_reason": "breaker-open"}
        started = self.clock()
        try:
            factor = self._measure(item)
        except Exception as exc:
            self.breaker.record_failure(self.clock())
            return {
                "degraded": True,
                "degraded_reason": f"exact-sim-failed: {exc}",
            }
        elapsed = self.clock() - started
        if elapsed > self.config.exact_timeout_s:
            # Completed, but too slow to keep trusting the path.
            self.breaker.record_failure(self.clock())
        else:
            self.breaker.record_success(self.clock())
        return {"exact_factor": round(factor, 2)}

    def _measure(self, item: _Item) -> float:
        if self._exact_runner is not None:
            return self._exact_runner(item.subject[0], item.size)
        family = item.family
        if self.fault_plan is not None:
            # A fault plan is stateful across calls; bypass the memo so
            # the breaker sees the true failure/recovery sequence.
            return family.measure(item.subject, item.size, self.fault_plan)
        key = (family.name, *item.subject, item.size)
        return cast(float, self.memo.get_or_compute(
            "exact", key, lambda: family.measure(item.subject, item.size)
        ))

