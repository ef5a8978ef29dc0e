"""Defense recommendation engine (paper §VI-C, applied per finding).

The paper closes with implementation advice — switch to Laziness, bound
expansion to a few KB, enforce RFC 7233 §6.1 against overlapping ranges
— but leaves "which fix, where" to the reader.  This module turns the
static findings of :func:`~repro.analysis.report.analyze_vendor_matrix`
into *actionable, verified* recommendations:

1. for each vulnerable finding, take its family's mitigation
   candidates (:mod:`repro.analysis.families`), wrappers from
   :mod:`repro.defense.mitigations` ordered by deployment cost
   (config-only change < header guard < fetch-flow change);
2. wrap the vendor (or one side of the cascade) in the corresponding
   mitigated profile and re-run the family's closed-form bound under
   the wrapper (the ``*_residual_bound`` functions below);
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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.bounds import (
    FaultedSbrBound,
    obr_bound,
    profile_ccfc_bound,
    profile_sbr_bound,
)
from repro.analysis.families import (
    OBR,
    MitigationSpec,
    family_named,
    mitigation_profile_factory,
    parse_subject,
)
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    analyze_vendor_matrix,
    severity_for_factor,
)
from repro.errors import ConfigurationError
from repro.obs.metrics import current_metrics

MB = 1 << 20

#: Default residual threshold: the "low"/"medium" severity boundary.  A
#: mitigation is *sufficient* when the residual worst-case factor stays
#: strictly below it (residual severity "low" or better).
DEFAULT_THRESHOLD = 10.0


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
    #: Resource size each family's residuals were computed for, keyed by
    #: its ``size_field`` (as in :class:`AnalysisReport`).
    sizes: Dict[str, int]
    with_retries: bool

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
                **self.sizes,
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


def obr_residual_bound(
    fcdn: str, bcdn: str, spec: MitigationSpec, resource_size: int
) -> float:
    """Worst-case OBR factor after applying ``spec`` to one cascade side.

    0.0 when the mitigated cascade admits no overlapping ranges at all
    (the guard rejects every exploitable shape outright).
    """
    front, back = OBR.mitigated((fcdn, bcdn), spec)
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


def recommend(
    resource_size: Optional[int] = None,
    obr_resource_size: Optional[int] = None,
    threshold: float = DEFAULT_THRESHOLD,
    with_retries: bool = False,
    report: Optional[AnalysisReport] = None,
    ccfc_resource_size: Optional[int] = None,
) -> RecommendationReport:
    """Recommend the cheapest sufficient mitigation per vulnerable finding.

    By default the full vendor matrix is analyzed first, at the given
    sizes (``None`` takes the family default).  ``report`` reuses an
    existing static analysis instead: every residual is then evaluated
    at the report's own sizes, and a size argument that disagrees with
    the report is a :class:`~repro.errors.ConfigurationError`.
    Recommendations keep the report's severity ranking.
    """
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    given = {
        "resource_size": resource_size,
        "obr_resource_size": obr_resource_size,
        "ccfc_resource_size": ccfc_resource_size,
    }
    if report is None:
        report = analyze_vendor_matrix(
            resource_size=resource_size,
            obr_resource_size=obr_resource_size,
            ccfc_resource_size=ccfc_resource_size,
        )
    for field, size in given.items():
        if size is not None and size != report.sizes[field]:
            raise ConfigurationError(
                f"{field}={size} conflicts with the report, "
                f"which was analyzed at {report.sizes[field]}"
            )
    recommendations: List[Recommendation] = []
    for finding in report.vulnerable:
        family = family_named(finding.kind)
        subject = parse_subject(finding.subject)
        size = report.sizes[family.size_field]
        options = [
            MitigationOption(
                spec=spec,
                residual_factor=family.residual(subject, spec, size),
                faulted_residual_factor=(
                    family.faulted_residual(subject, spec, size)
                    if with_retries
                    else None
                ),
                threshold=threshold,
            )
            for spec in family.mitigations
        ]
        chosen, rejected = _pick(options)
        recommendation = Recommendation(
            finding=finding, chosen=chosen, rejected=rejected, threshold=threshold
        )
        _record(recommendation)
        recommendations.append(recommendation)
    return RecommendationReport(
        recommendations=tuple(recommendations),
        threshold=threshold,
        sizes=dict(report.sizes),
        with_retries=with_retries,
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
    report_sizes: Optional[Mapping[str, int]] = None,
) -> List[VerificationCheck]:
    """Simulate the attack under the chosen mitigation and compare the
    measured factor against the residual bound (sim <= bound must hold,
    same contract as the clean bounds; for CCFC the bound is exact, so
    the check is equality up to the <= comparison).

    Families verified on the quick grid run once per size in ``sizes``;
    the others (OBR) run once, at the size the residual was computed for
    (its entry in ``report_sizes``, else the family default).
    """
    if recommendation.chosen is None:
        return []
    family = family_named(recommendation.kind)
    spec = recommendation.chosen.spec
    subject = parse_subject(recommendation.subject)
    if not family.verify_on_quick_grid:
        sizes = ((report_sizes or {}).get(family.size_field, family.default_size),)
    checks: List[VerificationCheck] = []
    for size in sizes:
        simulated = family.simulate(subject, spec, size)
        if simulated is None:
            continue  # the mitigation blocks the attack outright
        checks.append(
            VerificationCheck(
                kind=family.name,
                subject=recommendation.subject,
                mitigation=spec.label,
                resource_size=size,
                simulated_factor=simulated,
                residual_bound=family.residual(subject, spec, size),
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
                report_sizes=report.sizes,
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
    "DEFAULT_THRESHOLD",
    "QUICK_SIZES",
    "MitigationOption",
    "Recommendation",
    "RecommendationReport",
    "VerificationCheck",
    "ccfc_residual_bound",
    "obr_residual_bound",
    "recommend",
    "render_recommendations_table",
    "sbr_faulted_residual_bound",
    "sbr_residual_bound",
    "verify_recommendation",
    "verify_recommendations",
]
