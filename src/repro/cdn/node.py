"""The CDN edge-node request pipeline.

A :class:`CdnNode` sits between a downstream client (the attacker, or
another CDN) and an upstream handler (the origin, or another CDN) and:

1. enforces the vendor's request-header limits;
2. answers from its edge cache when it can;
3. otherwise runs the vendor's fetch flow (forwarding policy + any
   special multi-connection behavior), recording every upstream exchange
   on the traffic ledger;
4. builds the client response — relaying a laziness passthrough, or
   serving the requested range(s) out of the fetched content window,
   honoring/coalescing/rejecting multi-range requests per the vendor's
   reply behavior;
5. stamps the vendor's response headers (whose byte weight drives the
   per-vendor amplification slopes).
"""

from __future__ import annotations

import logging
from typing import Callable, List, Optional, Tuple, Union

from repro.cdn.cache import CdnCache
from repro.cdn.multirange import apply_reply_behavior
from repro.cdn.vendors.base import VendorConfig, VendorContext, VendorProfile
from repro.cdn.window import ContentWindow
from repro.errors import RangeNotSatisfiableError, RequestRejectedError
from repro.faults.plan import current_faults
from repro.faults.retry import RetryPolicy, retry_policy_for
from repro.handler import HttpHandler
from repro.http.body import Body, SyntheticBody
from repro.http.encoding import IDENTITY, accepts_encoding
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.http.multipart import MultipartByteranges, MultipartPart
from repro.http.ranges import (
    RangeSpecifier,
    ResolvedRange,
    format_content_range,
    format_unsatisfied_content_range,
    group_ranges,
    try_parse_range_header,
)
from repro.http.status import StatusCode
from repro.netsim.connection import ExchangeRecord
from repro.netsim.tap import CDN_ORIGIN, TrafficLedger
from repro.obs.metrics import current_metrics
from repro.obs.tracer import NullSpan, Span, current_tracer

_FIXED_DATE = "Fri, 05 Jun 2020 08:00:00 GMT"

logger = logging.getLogger(__name__)


def convert_encoded_response(
    profile: VendorProfile,
    response: HttpResponse,
    size_hint: Optional[int],
    client_accept: Optional[str],
) -> HttpResponse:
    """Edge-side compression format conversion (arXiv 2409.00712 §III).

    When the vendor decompresses at the edge and the client cannot
    accept the coding the origin chose, the edge inflates the body back
    to the identity representation before replying: ``Content-Encoding``
    is dropped and ``Content-Length`` grows to the decompressed size
    (taken from the deployment's size hint — without one the edge cannot
    know the inflated size and relays the response untouched).  Returns
    ``response`` itself when no conversion applies.

    This is the module-level single source of truth shared by the live
    pipeline and the closed-form CCFC mirror in
    :mod:`repro.core.ccfc` — bound == simulation holds by construction.
    """
    if not profile.edge_decompresses:
        return response
    if int(response.status) != int(StatusCode.OK):
        return response
    encoding = response.headers.get("Content-Encoding")
    if encoding is None or encoding.lower() == IDENTITY:
        return response
    if client_accept is None or accepts_encoding(client_accept, encoding):
        return response
    if size_hint is None:
        return response
    converted = response.copy()
    converted.headers.remove("Content-Encoding")
    converted.headers.set("Content-Length", str(size_hint))
    converted.body = SyntheticBody(size_hint)
    return converted


def finalize_client_response(profile: VendorProfile, response: HttpResponse) -> HttpResponse:
    """Stamp vendor identity headers and pad to the calibrated weight.

    Module-level so the CCFC mirror applies byte-identical header
    weighting without instantiating a node.
    """
    headers = response.headers
    headers.set("Server", profile.server_header)
    if "Date" not in headers:
        headers.add("Date", _FIXED_DATE)
    if "Accept-Ranges" not in headers:
        headers.add("Accept-Ranges", "bytes")
    for name, value in profile.response_headers():
        if name not in headers:
            headers.add(name, value)
    profile.pad_response(response)
    return response


class CdnNode(HttpHandler):
    """One simulated CDN edge node."""

    def __init__(
        self,
        profile: VendorProfile,
        upstream: HttpHandler,
        ledger: Optional[TrafficLedger] = None,
        upstream_segment: str = CDN_ORIGIN,
        config: Optional[VendorConfig] = None,
        cache: Optional[CdnCache] = None,
        size_hint_fn: Optional[Callable[[str], Optional[int]]] = None,
        node_label: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.profile = profile
        self.retry_policy = retry_policy
        self.upstream = upstream
        self.ledger = ledger if ledger is not None else TrafficLedger()
        self.upstream_segment = upstream_segment
        self.config = config if config is not None else profile.effective_config()
        cache_enabled = self.config.cache_enabled and not self.config.bypass_cache
        self.cache = cache if cache is not None else CdnCache(enabled=cache_enabled)
        self.size_hint_fn = size_hint_fn
        self.node_label = node_label if node_label is not None else profile.name

    # -- pipeline -----------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        with current_tracer().span("cdn.handle") as hop:
            if hop.recording:
                hop.set(
                    vendor=self.profile.name,
                    node=self.node_label,
                    target=request.target,
                    range=request.headers.get("Range") or "",
                )
            return self._handle_traced(request, hop)

    def _handle_traced(self, request: HttpRequest, hop: Union[Span, NullSpan]) -> HttpResponse:
        tracer = current_tracer()
        registry = current_metrics()
        try:
            self.profile.limits.check(request)
        except RequestRejectedError as rejected:
            logger.debug(
                "%s rejected %s %s: %s", self.node_label, request.method,
                request.target, rejected,
            )
            if hop.recording:
                hop.set(outcome="rejected", reason=str(rejected))
            return self._text_error(rejected.status_code, str(rejected))

        spec = try_parse_range_header(request.headers.get("Range"))

        with tracer.span("cdn.cache.lookup") as lookup:
            cached = self.cache.get(request)
            if lookup.recording:
                lookup.set(
                    vendor=self.profile.name,
                    hit=cached is not None,
                    enabled=self.cache.enabled,
                )
        if registry is not None and self.cache.enabled:
            registry.record_cache_lookup(self.profile.name, cached is not None)
        if cached is not None:
            logger.debug("%s cache hit for %s", self.node_label, request.target)
            if hop.recording:
                hop.set(cache="hit")
            window = ContentWindow.full(cached.body)
            response = self._serve(request, spec, window, cached.headers)
            # Shared caches report the entry's age (RFC 7234 §5.1); the
            # deterministic clock makes it a stable "0" or the simulated
            # elapsed seconds.
            response.headers.set("Age", str(int(self.cache.clock.now)))
            return response
        if hop.recording:
            hop.set(cache="miss" if self.cache.enabled else "bypass")

        ctx = VendorContext(config=self.config, resource_size_hint=self._size_hint(request))
        with tracer.span("cdn.fetch") as fetch_span:
            result = self.profile.fetch(request, spec, ctx, self._exchange)
            policy = result.policy.value if result.policy is not None else None
            if fetch_span.recording:
                fetch_span.set(
                    vendor=self.profile.name,
                    policy=policy,
                    passthrough=result.passthrough is not None,
                )
        if hop.recording and policy is not None:
            hop.set(policy=policy)
        if registry is not None and policy is not None:
            registry.record_rewrite(self.profile.name, policy)

        if result.passthrough is not None:
            passthrough = convert_encoded_response(
                self.profile,
                result.passthrough,
                self._size_hint(request),
                request.headers.get("Accept-Encoding"),
            )
            if result.cacheable_full:
                self.cache.put(request, passthrough)
            if passthrough.status >= 300:
                return self._relay_error(passthrough)
            return self._finalize(passthrough.copy())

        window = result.window
        source_headers = result.source_headers if result.source_headers else Headers()
        if result.cacheable_full and window.is_full:
            self.cache.put(request, self._cache_entry(window, source_headers))
        return self._serve(request, spec, window, source_headers)

    # -- upstream exchange ----------------------------------------------------

    def _active_retry_policy(self) -> Optional[RetryPolicy]:
        """The policy governing back-to-origin retries, if any.

        An explicitly configured policy always applies.  Otherwise the
        vendor's stock policy engages only while a fault injector is
        installed — the clean happy-path simulation (and its pinned
        traffic totals) must never see a retry.
        """
        if self.retry_policy is not None:
            return self.retry_policy
        if current_faults() is not None:
            return retry_policy_for(self.profile.name)
        return None

    def _exchange(
        self,
        upstream_request: HttpRequest,
        payload_cap: Optional[int] = None,
        note: str = "",
    ) -> HttpResponse:
        """Send one request upstream, re-fetching per the retry policy.

        Each attempt opens a fresh connection and re-ships the whole
        fetch window — the re-amplification the faulted experiments
        measure.  Backoff delays are accounted (never slept), with
        deterministic jitter drawn from the fault injector.
        """
        policy = self._active_retry_policy()
        if policy is None:
            response, _ = self._exchange_once(upstream_request, payload_cap, note)
            return response

        injector = current_faults()
        registry = current_metrics()
        attempt = 0
        while True:
            attempt += 1
            if attempt == 1:
                attempt_note = note
            else:
                retry_tag = f"retry{attempt - 1}"
                attempt_note = f"{note}+{retry_tag}" if note else retry_tag
            response, record = self._exchange_once(
                upstream_request, payload_cap, attempt_note
            )
            # An intentional payload cap (Azure's 8 MB cut) truncates by
            # design; only an *unexpected* truncation is a failure.
            failed_transfer = payload_cap is None and record.truncated
            needs_retry = policy.should_retry(int(record.status), truncated=failed_transfer)
            if not needs_retry or attempt >= policy.max_attempts:
                if registry is not None:
                    registry.record_fetch_attempts(
                        self.profile.name, attempt, ok=not needs_retry
                    )
                if injector is not None:
                    injector.note_fetch(self.profile.name, attempt, ok=not needs_retry)
                return response
            unit = injector.jitter_unit() if injector is not None else 0.5
            delay = policy.backoff_s(attempt, unit=unit)
            if injector is not None:
                injector.note_retry(self.profile.name, delay)
            if registry is not None:
                registry.record_retry(self.profile.name, delay)
            logger.debug(
                "%s retrying upstream fetch (attempt %d, backoff %.3fs)",
                self.node_label, attempt + 1, delay,
            )

    def _exchange_once(
        self,
        upstream_request: HttpRequest,
        payload_cap: Optional[int] = None,
        note: str = "",
    ) -> Tuple[HttpResponse, ExchangeRecord]:
        """One upstream attempt over a fresh connection.

        ``payload_cap`` models this node cutting the connection after
        roughly that many response *payload* bytes have arrived (Azure's
        8 MB cut): the ledger records both the full size the upstream
        pushed and the capped delivery, and the returned response carries
        only the delivered body prefix.
        """
        logger.debug(
            "%s -> upstream %s %s (Range: %s)%s",
            self.node_label,
            upstream_request.method,
            upstream_request.target,
            upstream_request.headers.get("Range", "-"),
            f" [{note}]" if note else "",
        )
        with current_tracer().span("cdn.upstream") as span:
            if span.recording:
                span.set(
                    vendor=self.profile.name,
                    segment=self.upstream_segment,
                    range=upstream_request.headers.get("Range") or "",
                )
                if note:
                    span.set(note=note)
                if payload_cap is not None:
                    span.set(payload_cap=payload_cap)
            connection = self.ledger.open_connection(
                self.upstream_segment, client_label=self.node_label,
                server_label="upstream",
            )
            response = self.upstream.handle(upstream_request)
            deliver_cap = None
            if payload_cap is not None:
                deliver_cap = response.header_block_size() + max(0, payload_cap)
            record = connection.exchange(
                upstream_request, response, deliver_cap=deliver_cap, note=note
            )
            if span.recording:
                span.set(status=record.status, truncated=record.truncated)
        if record.truncated:
            received = response.copy()
            received.body = response.body.slice(
                0, max(0, record.response_bytes_delivered - response.header_block_size())
            )
            return received, record
        return response, record

    def _size_hint(self, request: HttpRequest) -> Optional[int]:
        if self.size_hint_fn is None:
            return None
        return self.size_hint_fn(request.path)

    # -- response construction ---------------------------------------------------

    def _serve(
        self,
        request: HttpRequest,
        spec: Optional[RangeSpecifier],
        window: ContentWindow,
        source_headers: Headers,
    ) -> HttpResponse:
        content_type = source_headers.get("Content-Type", "application/octet-stream")

        if spec is None:
            if not window.is_full:
                return self._text_error(
                    StatusCode.BAD_GATEWAY, "partial window but no Range request"
                )
            return self._finalize(
                self._base_response(
                    StatusCode.OK,
                    content_type,
                    body=window.body,
                    source_headers=source_headers,
                )
            )

        try:
            resolved = spec.resolve(window.complete_length)
            parts = apply_reply_behavior(
                self.profile.reply_behavior,
                resolved,
                window.complete_length,
                max_parts=self.profile.reply_max_parts,
            )
        except RangeNotSatisfiableError:
            return self._not_satisfiable(window.complete_length)

        runs = group_ranges(parts)
        if any(not window.covers(part) for part, _ in runs):
            return self._text_error(
                StatusCode.BAD_GATEWAY,
                "fetched window does not cover the requested range",
            )

        if len(parts) == 1:
            part = parts[0]
            response = self._base_response(
                StatusCode.PARTIAL_CONTENT,
                content_type,
                body=window.slice_range(part),
                source_headers=source_headers,
            )
            response.headers.add(
                "Content-Range",
                format_content_range(part.start, part.end, window.complete_length),
            )
            return self._finalize(response)

        return self._finalize(
            self._multipart_response(window, runs, content_type, source_headers)
        )

    def _multipart_response(
        self,
        window: ContentWindow,
        runs: List[Tuple[ResolvedRange, int]],
        content_type: str,
        source_headers: Headers,
    ) -> HttpResponse:
        with current_tracer().span("cdn.multipart") as span:
            multipart = MultipartByteranges(
                [
                    (
                        MultipartPart(
                            content_type=content_type,
                            content_range=part,
                            complete_length=window.complete_length,
                            payload=window.slice_range(part),
                        ),
                        count,
                    )
                    for part, count in runs
                ],
                boundary=self.profile.multipart_boundary,
            )
            body = multipart.to_body()
            response = self._base_response(
                StatusCode.PARTIAL_CONTENT,
                multipart.content_type_header,
                body=body,
                source_headers=source_headers,
            )
            if span.recording:
                span.set(
                    vendor=self.profile.name,
                    parts=len(multipart),
                    body_bytes=len(body),
                )
            return response

    def _base_response(
        self,
        status: StatusCode,
        content_type: str,
        body: Body,
        source_headers: Headers,
    ) -> HttpResponse:
        headers = Headers([("Date", _FIXED_DATE)])
        for relayed in ("Last-Modified", "ETag", "Cache-Control"):
            value = source_headers.get(relayed)
            if value is not None:
                headers.add(relayed, value)
        headers.add("Content-Type", content_type)
        headers.add("Content-Length", str(len(body)))
        return HttpResponse(status, headers=headers, body=body)

    def _cache_entry(self, window: ContentWindow, source_headers: Headers) -> HttpResponse:
        return self._base_response(
            StatusCode.OK,
            source_headers.get("Content-Type", "application/octet-stream"),
            body=window.body,
            source_headers=source_headers,
        )

    def _finalize(self, response: HttpResponse) -> HttpResponse:
        """Stamp vendor identity headers and pad to the calibrated weight."""
        return finalize_client_response(self.profile, response)

    def _relay_error(self, upstream_response: HttpResponse) -> HttpResponse:
        response = upstream_response.copy()
        response.headers.set("Server", self.profile.server_header)
        return response

    def _not_satisfiable(self, complete_length: int) -> HttpResponse:
        headers = Headers(
            [
                ("Date", _FIXED_DATE),
                ("Server", self.profile.server_header),
                ("Content-Range", format_unsatisfied_content_range(complete_length)),
                ("Content-Length", "0"),
            ]
        )
        return HttpResponse(StatusCode.RANGE_NOT_SATISFIABLE, headers=headers)

    def _text_error(self, status: int, message: str) -> HttpResponse:
        body = f"{message}\n"
        headers = Headers(
            [
                ("Date", _FIXED_DATE),
                ("Server", self.profile.server_header),
                ("Content-Type", "text/plain"),
                ("Content-Length", str(len(body))),
            ]
        )
        return HttpResponse(status, headers=headers, body=body)

    def __repr__(self) -> str:
        return f"CdnNode({self.profile.name}, upstream_segment={self.upstream_segment!r})"
