"""Defense recommendation engine (paper §VI-C, applied per finding).

The paper closes with implementation advice — switch to Laziness, bound
expansion to a few KB, enforce RFC 7233 §6.1 against overlapping ranges
— but leaves "which fix, where" to the reader.  This module turns the
static findings of :func:`~repro.analysis.report.analyze_vendor_matrix`
into *actionable, verified* recommendations:

1. for each vulnerable SBR vendor and each vulnerable FCDN×BCDN
   cascade, enumerate the applicable mitigations from
   :mod:`repro.defense.mitigations`, ordered by deployment cost
   (config-only change < header guard < fetch-flow change);
2. wrap the vendor in the corresponding mitigated profile and re-run
   the closed-form bounds (:func:`~repro.analysis.bounds.profile_sbr_bound`,
   :func:`~repro.analysis.bounds.obr_bound`) under the wrapper;
3. recommend the *cheapest* mitigation whose residual worst-case factor
   falls below the threshold (default: the "low" severity boundary),
   keeping the rejected cheaper options — with their residual factors —
   in the report so the cost/benefit trade-off stays visible.

Every recommendation can be cross-validated dynamically with
:func:`verify_recommendations`: a quick simulation grid runs the actual
attack against the mitigated profile and checks the measured factor
never exceeds the residual bound (the same soundness contract the clean
bounds carry).

Retry-aware residuals (``with_retries=True``) are *informational*: the
faulted denominator collapses to the bare response-wire floor, which no
forwarding policy can pad away, so sufficiency is always judged on the
clean residual while the faulted factor shows what a retry budget still
costs under origin faults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.bounds import (
    FaultedSbrBound,
    ProfileFactory,
    obr_bound,
    profile_ccfc_bound,
    profile_sbr_bound,
    static_max_n,
)
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    analyze_vendor_matrix,
    severity_for_factor,
)
from repro.cdn.vendors import create_profile
from repro.defense.mitigations import (
    with_bounded_expansion,
    with_encoding_normalization,
    with_encoding_passthrough,
    with_laziness,
    with_overlap_rejection,
    with_slicing,
)
from repro.errors import ConfigurationError
from repro.obs.metrics import current_metrics

MB = 1 << 20

#: Default residual threshold: the "low"/"medium" severity boundary.  A
#: mitigation is *sufficient* when the residual worst-case factor stays
#: strictly below it (residual severity "low" or better).
DEFAULT_THRESHOLD = 10.0

#: Deployment-cost classes, cheapest first: flipping a config option
#: (G-Core's slice switch, an expansion cap) beats adding an ingress
#: header guard, which beats restructuring the fetch flow.
COST_CONFIG_ONLY = 0
COST_HEADER_GUARD = 1
COST_FETCH_FLOW = 2

COST_LABELS: Dict[int, str] = {
    COST_CONFIG_ONLY: "config-only",
    COST_HEADER_GUARD: "header-guard",
    COST_FETCH_FLOW: "fetch-flow",
}


@dataclass(frozen=True)
class MitigationSpec:
    """One applicable mitigation, with its place in the cost order."""

    #: Wrapper name: ``laziness``, ``bounded-expansion``,
    #: ``overlap-rejection``, or ``slicing``.
    name: str
    #: Which side of the deployment it wraps: ``cdn`` (SBR), ``fcdn``
    #: or ``bcdn`` (OBR).
    target: str
    #: Cost class (``COST_*``).
    cost: int
    #: Total evaluation order: candidates are tried rank-ascending and
    #: the first sufficient one wins, so rank must never contradict cost.
    rank: int
    description: str

    @property
    def cost_label(self) -> str:
        return COST_LABELS[self.cost]

    @property
    def label(self) -> str:
        """``laziness@cdn`` — the name used in tables and metrics."""
        return f"{self.name}@{self.target}"


#: SBR candidates, cheapest first.  Bounded expansion is the smallest
#: behavioral change (prefetching survives); Laziness gives up
#: range-driven caching but is still a config flip; the RFC 7233 guard
#: adds ingress rejection on top of Laziness; slicing restructures the
#: fetch flow entirely.
SBR_MITIGATIONS: Tuple[MitigationSpec, ...] = (
    MitigationSpec(
        "bounded-expansion",
        "cdn",
        COST_CONFIG_ONLY,
        0,
        "cap range expansion at 8KB of slack (paper 6-C)",
    ),
    MitigationSpec(
        "laziness",
        "cdn",
        COST_CONFIG_ONLY,
        1,
        "forward the Range header unchanged (G-Core's fix)",
    ),
    MitigationSpec(
        "overlap-rejection",
        "cdn",
        COST_HEADER_GUARD,
        2,
        "lazy forwarding plus the RFC 7233 6.1 ingress guard",
    ),
    MitigationSpec(
        "slicing",
        "cdn",
        COST_FETCH_FLOW,
        3,
        "fetch fixed-size slices and cache them independently",
    ),
)

#: OBR candidates, cheapest first.  The honoring back end is the root
#: cause (Table III), so guarding it outranks guarding the front; the
#: slice flow coalesces too but costs a fetch-flow change.
OBR_MITIGATIONS: Tuple[MitigationSpec, ...] = (
    MitigationSpec(
        "overlap-rejection",
        "bcdn",
        COST_HEADER_GUARD,
        0,
        "RFC 7233 6.1 guard + coalescing replies at the back end",
    ),
    MitigationSpec(
        "overlap-rejection",
        "fcdn",
        COST_HEADER_GUARD,
        1,
        "RFC 7233 6.1 guard at the front end (CDN77's fix)",
    ),
    MitigationSpec(
        "slicing",
        "bcdn",
        COST_FETCH_FLOW,
        2,
        "slice-based fetching at the back end (coalescing replies)",
    ),
)

#: CCFC candidates, cheapest first.  Pass-through is a pure config flip
#: (stop rewriting Accept-Encoding, stop decompressing); normalization
#: keeps edge decompression support but clamps the upstream negotiation
#: to what the client offered, which costs an ingress header guard.
CCFC_MITIGATIONS: Tuple[MitigationSpec, ...] = (
    MitigationSpec(
        "encoding-passthrough",
        "cdn",
        COST_CONFIG_ONLY,
        0,
        "forward the client's Accept-Encoding untouched (identity pass-through)",
    ),
    MitigationSpec(
        "encoding-normalization",
        "cdn",
        COST_HEADER_GUARD,
        1,
        "clamp upstream Accept-Encoding to codings the client accepts",
    ),
)

_WRAPPERS = {
    "laziness": with_laziness,
    "bounded-expansion": with_bounded_expansion,
    "overlap-rejection": with_overlap_rejection,
    "slicing": with_slicing,
    "encoding-passthrough": with_encoding_passthrough,
    "encoding-normalization": with_encoding_normalization,
}


def mitigation_profile_factory(vendor: str, mitigation: str) -> ProfileFactory:
    """A fresh-instance factory wrapping ``vendor`` in ``mitigation``."""
    if mitigation not in _WRAPPERS:
        raise ConfigurationError(f"unknown mitigation {mitigation!r}")
    wrapper = _WRAPPERS[mitigation]
    return lambda: wrapper(create_profile(vendor))


@dataclass(frozen=True)
class MitigationOption:
    """One evaluated (finding, mitigation) pair."""

    spec: MitigationSpec
    #: Residual worst-case factor under the mitigated profile.
    residual_factor: float
    #: Retry-aware residual (informational; ``None`` unless requested).
    faulted_residual_factor: Optional[float]
    threshold: float

    @property
    def residual_severity(self) -> str:
        return severity_for_factor(self.residual_factor)

    @property
    def sufficient(self) -> bool:
        return self.residual_factor < self.threshold

    def to_dict(self) -> Dict[str, object]:
        return {
            "mitigation": self.spec.name,
            "target": self.spec.target,
            "label": self.spec.label,
            "cost": self.spec.cost_label,
            "description": self.spec.description,
            "residual_factor": round(self.residual_factor, 2),
            "residual_severity": self.residual_severity,
            "sufficient": self.sufficient,
            "faulted_residual_factor": (
                round(self.faulted_residual_factor, 2)
                if self.faulted_residual_factor is not None
                else None
            ),
        }


@dataclass(frozen=True)
class Recommendation:
    """The cheapest sufficient mitigation for one vulnerable finding."""

    finding: Finding
    #: The winning option (``None`` only if no candidate clears the
    #: threshold — the report flags that loudly).
    chosen: Optional[MitigationOption]
    #: Cheaper options that were evaluated and found insufficient.
    rejected: Tuple[MitigationOption, ...]
    threshold: float

    @property
    def kind(self) -> str:
        return self.finding.kind

    @property
    def subject(self) -> str:
        return self.finding.subject

    @property
    def resolved(self) -> bool:
        return self.chosen is not None and self.chosen.sufficient

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.finding.kind,
            "subject": self.finding.subject,
            "severity": self.finding.severity,
            "mechanism": self.finding.mechanism,
            "clean_factor": round(self.finding.factor_bound, 2),
            "chosen": self.chosen.to_dict() if self.chosen is not None else None,
            "rejected": [option.to_dict() for option in self.rejected],
        }


@dataclass(frozen=True)
class RecommendationReport:
    """Severity-ranked recommendations for every vulnerable finding."""

    recommendations: Tuple[Recommendation, ...]
    threshold: float
    resource_size: int
    obr_resource_size: int
    with_retries: bool
    ccfc_resource_size: int = 10 * MB

    @property
    def unresolved(self) -> Tuple[Recommendation, ...]:
        return tuple(r for r in self.recommendations if not r.resolved)

    @property
    def all_resolved(self) -> bool:
        return not self.unresolved

    def by_kind(self, kind: str) -> Tuple[Recommendation, ...]:
        return tuple(r for r in self.recommendations if r.kind == kind)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "threshold": self.threshold,
                "resource_size": self.resource_size,
                "obr_resource_size": self.obr_resource_size,
                "ccfc_resource_size": self.ccfc_resource_size,
                "with_retries": self.with_retries,
                "all_resolved": self.all_resolved,
                "recommendations": [r.to_dict() for r in self.recommendations],
            },
            indent=indent,
            sort_keys=False,
        )


# ---------------------------------------------------------------------------
# Residual bounds per (finding, mitigation)
# ---------------------------------------------------------------------------


def sbr_residual_bound(
    vendor: str, mitigation: str, resource_size: int
) -> float:
    """Worst-case SBR factor after wrapping ``vendor`` in ``mitigation``."""
    factory = mitigation_profile_factory(vendor, mitigation)
    return profile_sbr_bound(vendor, factory, resource_size).factor


def sbr_faulted_residual_bound(
    vendor: str, mitigation: str, resource_size: int
) -> float:
    """Retry-aware residual: the residual bound times the vendor's stock
    retry budget, over the bare-wire denominator (informational)."""
    from repro.faults.retry import retry_policy_for

    factory = mitigation_profile_factory(vendor, mitigation)
    base = profile_sbr_bound(vendor, factory, resource_size)
    return FaultedSbrBound(
        base=base, max_attempts=retry_policy_for(vendor).max_attempts
    ).factor


def ccfc_residual_bound(
    vendor: str, mitigation: str, resource_size: int
) -> float:
    """Worst-case CCFC factor after wrapping ``vendor`` in ``mitigation``.

    CCFC bounds are exact (the closed form replays the byte-defining
    paths), so the residual is the factor the mitigated edge actually
    delivers — ~1.0 for pass-through and normalization, since the origin
    then only serves codings the client accepts."""
    factory = mitigation_profile_factory(vendor, mitigation)
    return profile_ccfc_bound(vendor, factory, resource_size).factor


def _obr_factories(
    fcdn: str, bcdn: str, spec: MitigationSpec
) -> Tuple[Optional[ProfileFactory], Optional[ProfileFactory]]:
    if spec.target == "fcdn":
        return mitigation_profile_factory(fcdn, spec.name), None
    return None, mitigation_profile_factory(bcdn, spec.name)


def obr_residual_bound(
    fcdn: str, bcdn: str, spec: MitigationSpec, resource_size: int
) -> float:
    """Worst-case OBR factor after applying ``spec`` to one cascade side.

    0.0 when the mitigated cascade admits no overlapping ranges at all
    (the guard rejects every exploitable shape outright).
    """
    front, back = _obr_factories(fcdn, bcdn, spec)
    try:
        return obr_bound(
            fcdn,
            bcdn,
            resource_size=resource_size,
            fcdn_profile=front,
            bcdn_profile=back,
        ).factor
    except ConfigurationError:
        return 0.0


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _pick(
    options: Sequence[MitigationOption],
) -> Tuple[Optional[MitigationOption], Tuple[MitigationOption, ...]]:
    """First sufficient option in cost order; everything cheaper that
    failed becomes the rejected list."""
    rejected: List[MitigationOption] = []
    for option in options:
        if option.sufficient:
            return option, tuple(rejected)
        rejected.append(option)
    return None, tuple(rejected)


def _record(recommendation: Recommendation) -> None:
    metrics = current_metrics()
    if metrics is None:
        return
    evaluated = list(recommendation.rejected)
    if recommendation.chosen is not None:
        evaluated.append(recommendation.chosen)
    for option in evaluated:
        metrics.record_recommendation(
            kind=recommendation.kind,
            mitigation=option.spec.label,
            sufficient=option.sufficient,
            residual_factor=option.residual_factor,
        )


def _recommend_sbr(
    finding: Finding,
    resource_size: int,
    threshold: float,
    with_retries: bool,
) -> Recommendation:
    vendor = finding.subject
    options = []
    for spec in SBR_MITIGATIONS:
        residual = sbr_residual_bound(vendor, spec.name, resource_size)
        faulted = (
            sbr_faulted_residual_bound(vendor, spec.name, resource_size)
            if with_retries
            else None
        )
        options.append(
            MitigationOption(
                spec=spec,
                residual_factor=residual,
                faulted_residual_factor=faulted,
                threshold=threshold,
            )
        )
    chosen, rejected = _pick(options)
    return Recommendation(
        finding=finding, chosen=chosen, rejected=rejected, threshold=threshold
    )


def _recommend_ccfc(
    finding: Finding, ccfc_resource_size: int, threshold: float
) -> Recommendation:
    vendor = finding.subject
    options = []
    for spec in CCFC_MITIGATIONS:
        residual = ccfc_residual_bound(vendor, spec.name, ccfc_resource_size)
        options.append(
            MitigationOption(
                spec=spec,
                residual_factor=residual,
                faulted_residual_factor=None,
                threshold=threshold,
            )
        )
    chosen, rejected = _pick(options)
    return Recommendation(
        finding=finding, chosen=chosen, rejected=rejected, threshold=threshold
    )


def _recommend_obr(
    finding: Finding, obr_resource_size: int, threshold: float
) -> Recommendation:
    fcdn, bcdn = finding.subject.split(" -> ")
    options = []
    for spec in OBR_MITIGATIONS:
        residual = obr_residual_bound(fcdn, bcdn, spec, obr_resource_size)
        options.append(
            MitigationOption(
                spec=spec,
                residual_factor=residual,
                faulted_residual_factor=None,
                threshold=threshold,
            )
        )
    chosen, rejected = _pick(options)
    return Recommendation(
        finding=finding, chosen=chosen, rejected=rejected, threshold=threshold
    )


def recommend(
    resource_size: int = 10 * MB,
    obr_resource_size: int = 1024,
    threshold: float = DEFAULT_THRESHOLD,
    with_retries: bool = False,
    report: Optional[AnalysisReport] = None,
    ccfc_resource_size: int = 10 * MB,
) -> RecommendationReport:
    """Recommend the cheapest sufficient mitigation per vulnerable finding.

    ``report`` reuses an existing static analysis (it must have been
    computed for the same sizes); by default the full vendor matrix is
    analyzed first.  Recommendations keep the report's severity ranking.
    """
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    if report is None:
        report = analyze_vendor_matrix(
            resource_size=resource_size,
            obr_resource_size=obr_resource_size,
            ccfc_resource_size=ccfc_resource_size,
        )
    recommendations: List[Recommendation] = []
    for finding in report.vulnerable:
        if finding.kind == "sbr":
            recommendation = _recommend_sbr(
                finding, resource_size, threshold, with_retries
            )
        elif finding.kind == "ccfc":
            recommendation = _recommend_ccfc(
                finding, ccfc_resource_size, threshold
            )
        else:
            recommendation = _recommend_obr(finding, obr_resource_size, threshold)
        _record(recommendation)
        recommendations.append(recommendation)
    return RecommendationReport(
        recommendations=tuple(recommendations),
        threshold=threshold,
        resource_size=resource_size,
        obr_resource_size=obr_resource_size,
        with_retries=with_retries,
        ccfc_resource_size=ccfc_resource_size,
    )


# ---------------------------------------------------------------------------
# Dynamic cross-validation
# ---------------------------------------------------------------------------

#: Resource sizes for the quick SBR verification grid — small enough to
#: stay fast, two points so size scaling is exercised.
QUICK_SIZES: Tuple[int, ...] = (1 * MB, 2 * MB)


@dataclass(frozen=True)
class VerificationCheck:
    """One simulated attack under a mitigated profile vs its bound."""

    kind: str
    subject: str
    mitigation: str
    resource_size: int
    simulated_factor: float
    residual_bound: float

    @property
    def ok(self) -> bool:
        return self.simulated_factor <= self.residual_bound

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "mitigation": self.mitigation,
            "resource_size": self.resource_size,
            "simulated_factor": round(self.simulated_factor, 3),
            "residual_bound": round(self.residual_bound, 3),
            "ok": self.ok,
        }


def verify_recommendation(
    recommendation: Recommendation,
    sizes: Sequence[int] = QUICK_SIZES,
    obr_resource_size: int = 1024,
) -> List[VerificationCheck]:
    """Simulate the attack under the chosen mitigation and compare the
    measured factor against the residual bound (sim <= bound must hold,
    same contract as the clean bounds; for CCFC the bound is exact, so
    the check is equality up to the <= comparison)."""
    from repro.core.ccfc import CcfcAttack
    from repro.core.obr import ObrAttack
    from repro.core.sbr import SbrAttack

    if recommendation.chosen is None:
        return []
    spec = recommendation.chosen.spec
    checks: List[VerificationCheck] = []
    if recommendation.kind == "sbr":
        vendor = recommendation.subject
        factory = mitigation_profile_factory(vendor, spec.name)
        for size in sizes:
            bound = profile_sbr_bound(vendor, factory, size).factor
            result = SbrAttack(
                vendor, resource_size=size, profile_factory=factory
            ).run()
            checks.append(
                VerificationCheck(
                    kind="sbr",
                    subject=vendor,
                    mitigation=spec.label,
                    resource_size=size,
                    simulated_factor=result.amplification,
                    residual_bound=bound,
                )
            )
        return checks

    if recommendation.kind == "ccfc":
        vendor = recommendation.subject
        factory = mitigation_profile_factory(vendor, spec.name)
        for size in sizes:
            bound = profile_ccfc_bound(vendor, factory, size).factor
            result = CcfcAttack(
                vendor, resource_size=size, profile_factory=factory
            ).run()
            checks.append(
                VerificationCheck(
                    kind="ccfc",
                    subject=vendor,
                    mitigation=spec.label,
                    resource_size=size,
                    simulated_factor=result.amplification,
                    residual_bound=bound,
                )
            )
        return checks

    fcdn, bcdn = recommendation.subject.split(" -> ")
    front, back = _obr_factories(fcdn, bcdn, spec)
    n = static_max_n(
        fcdn,
        bcdn,
        resource_size=obr_resource_size,
        fcdn_profile=front,
        bcdn_profile=back,
    )
    if n < 1:
        # The mitigation blocks the attack outright; nothing to simulate.
        return []
    bound = obr_bound(
        fcdn,
        bcdn,
        resource_size=obr_resource_size,
        overlap_count=n,
        fcdn_profile=front,
        bcdn_profile=back,
    ).factor
    result = ObrAttack(
        fcdn,
        bcdn,
        resource_size=obr_resource_size,
        fcdn_profile_factory=front,
        bcdn_profile_factory=back,
    ).run(overlap_count=n)
    checks.append(
        VerificationCheck(
            kind="obr",
            subject=recommendation.subject,
            mitigation=spec.label,
            resource_size=obr_resource_size,
            simulated_factor=result.amplification,
            residual_bound=bound,
        )
    )
    return checks


def verify_recommendations(
    report: RecommendationReport, sizes: Sequence[int] = QUICK_SIZES
) -> List[VerificationCheck]:
    """Cross-validate every recommendation in ``report`` dynamically."""
    checks: List[VerificationCheck] = []
    for recommendation in report.recommendations:
        checks.extend(
            verify_recommendation(
                recommendation,
                sizes=sizes,
                obr_resource_size=report.obr_resource_size,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_recommendations_table(report: RecommendationReport) -> str:
    """The recommendations as the repo's standard ASCII table (Table VII)."""
    from repro.reporting.artifacts import table7_artifact

    return table7_artifact(report).text()


__all__ = [
    "CCFC_MITIGATIONS",
    "DEFAULT_THRESHOLD",
    "COST_CONFIG_ONLY",
    "COST_FETCH_FLOW",
    "COST_HEADER_GUARD",
    "OBR_MITIGATIONS",
    "QUICK_SIZES",
    "SBR_MITIGATIONS",
    "MitigationOption",
    "MitigationSpec",
    "Recommendation",
    "RecommendationReport",
    "VerificationCheck",
    "ccfc_residual_bound",
    "mitigation_profile_factory",
    "obr_residual_bound",
    "recommend",
    "render_recommendations_table",
    "sbr_faulted_residual_bound",
    "sbr_residual_bound",
    "verify_recommendation",
    "verify_recommendations",
]
