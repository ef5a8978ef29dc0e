"""Static vulnerability classification from vendor configuration.

This module is the one place outside the CDN pipeline that asks a vendor
profile for its forwarding decision: :func:`build_probe` builds the probe
request and the :class:`~repro.cdn.vendors.base.VendorContext` it is
decided in, and every static reader — the classifiers below, the
``repro matrix`` table and the closed-form bounds of
:mod:`repro.analysis.bounds` — goes through it.  Answers come from a
profile's *pure* decision surface — ``forward_decision``, the
multi-range reply behavior, the stateful second-request policy, and the
``amplifies_via_fetch_flow`` flag.  No deployment is wired, no
connection is opened, no ledger records a byte: this is the "audit the
config, not the wire" pass the paper performs analytically in §IV before
measuring anything.

* SBR (§IV-B): a vendor is vulnerable when any single-range shape makes
  it *Delete* or *Expand* the Range header (Table I), when its second
  sighting of an identical request does (KeyCDN), or when its fetch flow
  pulls the full representation despite a lazy decision table
  (StackPath).
* OBR (§IV-C): a cascade is vulnerable when the front CDN forwards an
  overlapping multi-range shape *unchanged* (Laziness, Table II) and the
  back CDN *honors* overlapping ranges with a multipart reply
  (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, Union

from repro.cdn.multirange import MultiRangeReplyBehavior
from repro.cdn.policy import ForwardDecision, ForwardPolicy
from repro.cdn.vendors import create_profile
from repro.cdn.vendors.base import (
    EncodingPolicy,
    VendorConfig,
    VendorContext,
    VendorProfile,
)
from repro.http.message import HttpRequest
from repro.http.ranges import RangeSpecifier, try_parse_range_header

#: Builds a fresh profile per probe (profiles are stateful).  Passing one
#: lets every classification run against a wrapped/mitigated profile
#: instead of the registry vendor it names.
ProfileFactory = Callable[[], VendorProfile]

MB = 1 << 20

#: Single-range probe shapes (Range value templates), covering Table I's
#: three formats.  Size-dependent vendors (Azure, Huawei) flip policy
#: with the resource size, so every shape is probed per size regime.
SINGLE_RANGE_SHAPES: Tuple[str, ...] = ("bytes=0-0", "bytes=5-", "bytes=-1")

#: Overlapping multi-range probe shapes, covering Table II and the
#: exploited leading-spec variants of Table V (CDN77's suffix lead,
#: CDNsun's ``1-`` lead).
MULTI_RANGE_SHAPES: Tuple[str, ...] = (
    "bytes=0-,0-,0-",
    "bytes=-1024,0-,0-",
    "bytes=1-,0-,0-",
)

#: Size regimes probed when the caller does not pin one: below and above
#: every size threshold the profiles encode (Azure's 8 MB, Huawei's
#: 10 MB).
DEFAULT_PROBE_SIZES: Tuple[int, ...] = (1 * MB, 25 * MB)


#: Target and Host of a probe request; only a caller whose verdict
#: depends on the request's size (the max-n search) passes its own.
PROBE_PATH = "/probe.bin"
PROBE_HOST = "victim.example"


@dataclass(frozen=True)
class Probe:
    """One probe request and the context a profile decides it in."""

    request: HttpRequest
    context: VendorContext

    def decide(
        self, profile: VendorProfile, spec: Optional[RangeSpecifier] = None
    ) -> ForwardDecision:
        """``profile``'s forwarding decision for the probe; ``spec`` spares
        the re-parse when the caller already holds the parsed Range."""
        if spec is None:
            spec = try_parse_range_header(self.request.range_header)
        return profile.forward_decision(self.request, spec, self.context)


def build_probe(
    profile: VendorProfile,
    range_value: str,
    resource_size: int,
    config: Optional[VendorConfig] = None,
    path: str = PROBE_PATH,
    host: str = PROBE_HOST,
) -> Probe:
    """A GET for ``range_value``, decided under ``config`` (the profile's
    own effective configuration when None) for a ``resource_size``-byte
    representation."""
    return Probe(
        request=HttpRequest(
            "GET", path, headers=[("Host", host), ("Range", range_value)]
        ),
        context=VendorContext(
            config=config if config is not None else profile.effective_config(),
            resource_size_hint=resource_size,
        ),
    )


@dataclass(frozen=True)
class ProbeDecision:
    """One vendor's forwarding decision for one probed Range shape."""

    range_value: str
    resource_size: int
    policy: ForwardPolicy
    forwarded_range: Optional[str]

    @property
    def amplifying(self) -> bool:
        """Deletion/Expansion — the SBR-exploitable policies."""
        return self.policy in (ForwardPolicy.DELETION, ForwardPolicy.EXPANSION)

    @property
    def lazy_unchanged(self) -> bool:
        """Forwarded verbatim — the OBR front-end requirement."""
        return (
            self.policy is ForwardPolicy.LAZINESS
            and self.forwarded_range == self.range_value
        )


def probe_decision(
    vendor: str,
    range_value: str,
    resource_size: int,
    config: Optional[VendorConfig] = None,
    profile_factory: Optional[ProfileFactory] = None,
) -> ProbeDecision:
    """Ask a fresh profile for its first-sighting forwarding decision."""
    return _decided(
        vendor, range_value, resource_size, config, profile_factory, second=False
    )


def second_request_decision(
    vendor: str,
    range_value: str,
    resource_size: int,
    config: Optional[VendorConfig] = None,
    profile_factory: Optional[ProfileFactory] = None,
) -> ProbeDecision:
    """The decision for the *second identical* request on one profile
    instance (KeyCDN's second-sighting Deletion)."""
    return _decided(
        vendor, range_value, resource_size, config, profile_factory, second=True
    )


def _decided(
    vendor: str,
    range_value: str,
    resource_size: int,
    config: Optional[VendorConfig],
    profile_factory: Optional[ProfileFactory],
    second: bool,
) -> ProbeDecision:
    """The decision one fresh profile makes on its first identical probe,
    or on its ``second``."""
    profile = profile_factory() if profile_factory is not None else create_profile(vendor)
    probe = build_probe(profile, range_value, resource_size, config)
    spec = try_parse_range_header(range_value)
    decision = probe.decide(profile, spec)
    if second:
        decision = probe.decide(profile, spec)
    return ProbeDecision(
        range_value=range_value,
        resource_size=resource_size,
        policy=decision.policy,
        forwarded_range=decision.forwarded_range,
    )


@dataclass(frozen=True)
class SbrClassification:
    """Whether (and why) one vendor is SBR-vulnerable."""

    vendor: str
    display_name: str
    #: Probes whose first-sighting decision already amplifies.
    amplifying_probes: Tuple[ProbeDecision, ...]
    #: Probes that amplify only on the second identical request.
    stateful_probes: Tuple[ProbeDecision, ...]
    #: StackPath-style amplification hidden in the fetch flow.
    fetch_flow_amplifies: bool

    @property
    def vulnerable(self) -> bool:
        return bool(
            self.amplifying_probes or self.stateful_probes or self.fetch_flow_amplifies
        )

    @property
    def mechanism(self) -> str:
        """The dominant exploitation mechanism, for the findings report."""
        if any(p.policy is ForwardPolicy.EXPANSION for p in self.amplifying_probes):
            return "expansion"
        if self.amplifying_probes:
            return "deletion"
        if self.stateful_probes:
            return "stateful-deletion"
        if self.fetch_flow_amplifies:
            return "fetch-flow"
        return "none"


def classify_sbr(
    vendor: str,
    resource_sizes: Tuple[int, ...] = DEFAULT_PROBE_SIZES,
    config: Optional[VendorConfig] = None,
    profile_factory: Optional[ProfileFactory] = None,
) -> SbrClassification:
    """Statically classify one vendor's SBR susceptibility (Table I).

    ``profile_factory`` substitutes a wrapped profile (e.g. a
    ``MitigatedProfile``) for the registry vendor — the recommendation
    engine uses this to prove a mitigation removes the classification.
    """
    exemplar = (
        profile_factory() if profile_factory is not None else create_profile(vendor)
    )
    amplifying = []
    stateful = []
    for size in resource_sizes:
        for shape in SINGLE_RANGE_SHAPES:
            first = probe_decision(
                vendor, shape, size, config=config, profile_factory=profile_factory
            )
            if first.amplifying:
                amplifying.append(first)
                continue
            second = second_request_decision(
                vendor, shape, size, config=config, profile_factory=profile_factory
            )
            if second.amplifying:
                stateful.append(second)
    return SbrClassification(
        vendor=vendor,
        display_name=exemplar.display_name,
        amplifying_probes=tuple(amplifying),
        stateful_probes=tuple(stateful),
        fetch_flow_amplifies=exemplar.amplifies_via_fetch_flow,
    )


def classify_obr_frontend(
    vendor: str,
    resource_size: int = 1024,
    config: Optional[VendorConfig] = None,
    profile_factory: Optional[ProfileFactory] = None,
) -> Tuple[ProbeDecision, ...]:
    """The overlapping multi-range shapes ``vendor`` forwards unchanged
    (Table II membership evidence; empty when unusable as an FCDN)."""
    probes = (
        probe_decision(vendor, shape, resource_size, config, profile_factory)
        for shape in MULTI_RANGE_SHAPES
    )
    return tuple(probe for probe in probes if probe.lazy_unchanged)


def frontend_requires_bypass(vendor: str) -> bool:
    """True when the vendor is lazy only under a cache-bypass
    configuration (Cloudflare's Table II footnote)."""
    if classify_obr_frontend(vendor):
        return False
    return bool(
        classify_obr_frontend(vendor, config=VendorConfig(bypass_cache=True))
    )


@dataclass(frozen=True)
class ObrBackendFacts:
    """The back-end half of the OBR requirement (Table III)."""

    vendor: str
    reply_behavior: MultiRangeReplyBehavior
    reply_max_parts: Optional[int]
    multipart_boundary: str

    @property
    def honors_overlapping(self) -> bool:
        return self.reply_behavior is MultiRangeReplyBehavior.HONOR


def classify_obr_backend(
    vendor: str, profile_factory: Optional[ProfileFactory] = None
) -> ObrBackendFacts:
    """Read the reply-behavior facts off the profile class (or the
    substituted profile)."""
    source: Union[VendorProfile, Type[VendorProfile]] = (
        profile_factory() if profile_factory is not None
        else type(create_profile(vendor))
    )
    return ObrBackendFacts(
        vendor=vendor,
        reply_behavior=source.reply_behavior,
        reply_max_parts=source.reply_max_parts,
        multipart_boundary=source.multipart_boundary,
    )


@dataclass(frozen=True)
class CascadeClassification:
    """Whether one FCDN × BCDN cell is OBR-vulnerable (Tables II+III)."""

    fcdn: str
    bcdn: str
    #: Multi-range shapes the FCDN forwards verbatim (possibly under
    #: bypass configuration).
    lazy_probes: Tuple[ProbeDecision, ...]
    #: The FCDN is lazy only with cache bypass configured (Cloudflare).
    requires_bypass: bool
    backend: ObrBackendFacts

    @property
    def vulnerable(self) -> bool:
        return bool(self.lazy_probes) and self.backend.honors_overlapping


def classify_cascade(
    fcdn: str,
    bcdn: str,
    resource_size: int = 1024,
    fcdn_config: Optional[VendorConfig] = None,
    fcdn_profile: Optional[ProfileFactory] = None,
    bcdn_profile: Optional[ProfileFactory] = None,
) -> CascadeClassification:
    """Statically classify one cascade cell, with the Cloudflare bypass
    fallback the paper's Table V setup uses.  ``fcdn_profile`` /
    ``bcdn_profile`` substitute wrapped profiles on either side (a
    substituted front end carries its own configuration: no fallback)."""
    lazy = classify_obr_frontend(fcdn, resource_size, fcdn_config, fcdn_profile)
    requires_bypass = False
    configured = fcdn_config is not None or fcdn_profile is not None
    if not lazy and not configured and frontend_requires_bypass(fcdn):
        lazy = classify_obr_frontend(
            fcdn, resource_size, config=VendorConfig(bypass_cache=True)
        )
        requires_bypass = True
    return CascadeClassification(
        fcdn=fcdn,
        bcdn=bcdn,
        lazy_probes=lazy,
        requires_bypass=requires_bypass,
        backend=classify_obr_backend(bcdn, profile_factory=bcdn_profile),
    )


@dataclass(frozen=True)
class CcfcClassification:
    """Whether (and why) one vendor is CCFC-vulnerable.

    Pure decision-table read (arXiv 2409.00712 Table 3): the vendor's
    ``Accept-Encoding`` treatment, its edge decompression policy, and
    the best compression ratio among the codings it requests upstream.
    """

    vendor: str
    display_name: str
    encoding_policy: EncodingPolicy
    edge_accept_encoding: Tuple[str, ...]
    edge_decompresses: bool
    #: Smallest compression ratio among the upstream-requested codings —
    #: the inflation driver (``None`` when the edge requests nothing).
    min_ratio: Optional[float]

    @property
    def vulnerable(self) -> bool:
        """Rewrite + edge decompression + a coding that actually shrinks."""
        return (
            self.encoding_policy is EncodingPolicy.REWRITE
            and self.edge_decompresses
            and self.min_ratio is not None
            and self.min_ratio < 1.0
        )

    @property
    def mechanism(self) -> str:
        """The exploitation (or safety) mechanism, for the findings report."""
        if self.encoding_policy is EncodingPolicy.REWRITE:
            if not self.edge_decompresses:
                return "rewrite-no-decompress"
            if self.min_ratio is None or self.min_ratio >= 1.0:
                return "rewrite-incompressible"
            return "rewrite+decompress"
        return self.encoding_policy.value


def classify_ccfc(
    vendor: str,
    profile_factory: Optional[ProfileFactory] = None,
) -> CcfcClassification:
    """Statically classify one vendor's CCFC susceptibility.

    A vendor amplifies exactly when it *rewrites* the client's
    ``Accept-Encoding`` toward the origin, *decompresses* at the edge
    for clients that cannot accept the stored coding, and at least one
    requested coding actually compresses (ratio < 1).  Forwarding or
    stripping vendors let the origin fall back to identity; Tencent's
    rewrite-without-decompression relays the compressed bytes as-is.
    """
    profile = (
        profile_factory() if profile_factory is not None else create_profile(vendor)
    )
    ratios = [
        profile.compression_ratios.get(coding.lower(), 1.0)
        for coding in profile.edge_accept_encoding
    ]
    return CcfcClassification(
        vendor=vendor,
        display_name=profile.display_name,
        encoding_policy=profile.encoding_policy,
        edge_accept_encoding=tuple(profile.edge_accept_encoding),
        edge_decompresses=profile.edge_decompresses,
        min_ratio=min(ratios) if ratios else None,
    )

