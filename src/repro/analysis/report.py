"""Severity-ranked static findings over vendors, cascades, deployments.

:func:`analyze_vendor_matrix` is the pre-simulation vulnerability
report: for every family in :data:`~repro.analysis.families.FAMILIES`
it classifies every subject — each registered vendor (SBR, CCFC), each
FCDN×BCDN cell (OBR) — from pure configuration probes and attaches the
closed-form worst-case bounds of :mod:`repro.analysis.bounds`.  No
deployment is built and no ledger records a byte — the zero-traffic
test pins this.

:func:`analyze_deployment` applies the same passes to one concrete
:class:`~repro.core.deployment.Deployment`: the chain's actual vendors,
configs, overhead model, and origin resource sizes.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from itertools import permutations
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.cdn.node import CdnNode
    from repro.core.deployment import Deployment

from repro.analysis.bounds import ProfileFactory
from repro.analysis.families import FAMILIES, Family, resolve_sizes
from repro.cdn.vendors import all_vendor_names, profile_class
from repro.netsim.overhead import OverheadModel

MB = 1 << 20

#: Severity buckets by worst-case amplification factor, most severe
#: first (the report's ranking order).
SEVERITY_ORDER: Tuple[str, ...] = ("critical", "high", "medium", "low", "info")


def severity_for_factor(factor: float) -> str:
    """Bucket a worst-case amplification factor."""
    if factor >= 1000:
        return "critical"
    if factor >= 100:
        return "high"
    if factor >= 10:
        return "medium"
    if factor > 1:
        return "low"
    return "info"


@dataclass(frozen=True)
class Finding:
    """One statically-derived vulnerability (or safety) statement."""

    #: ``"sbr"``, ``"obr"``, ``"ccfc"``, or ``"safe"``.
    kind: str
    severity: str
    #: ``"azure"`` for a vendor, ``"cdn77 -> akamai"`` for a cascade.
    subject: str
    #: Exploitation mechanism (``deletion``, ``expansion``,
    #: ``stateful-deletion``, ``fetch-flow``, ``laziness+honor``, or
    #: ``none``).
    mechanism: str
    #: Closed-form worst-case amplification factor (0 for safe cells).
    factor_bound: float
    #: One-line human-readable summary.
    detail: str
    #: JSON-friendly extras: bounds, exploited cases, max n, sizes.
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "mechanism": self.mechanism,
            "factor_bound": round(self.factor_bound, 2),
            "detail": self.detail,
            "data": self.data,
        }



@dataclass(frozen=True)
class AnalysisReport:
    """All findings from one static-analysis run, severity-ranked."""

    findings: Tuple[Finding, ...]
    #: Resource size each family's bounds were computed for, keyed by
    #: its ``size_field`` in registry order (the JSON keys).
    sizes: Dict[str, int]

    @property
    def vulnerable(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind != "safe")

    @property
    def safe(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == "safe")

    def by_kind(self, kind: str) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == kind)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                **self.sizes,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=indent,
            sort_keys=False,
        )


def _rank(findings: Sequence[Finding]) -> Tuple[Finding, ...]:
    """Severity-ranked: most severe bucket first, larger bound first."""
    return tuple(
        sorted(
            findings,
            key=lambda f: (SEVERITY_ORDER.index(f.severity), -f.factor_bound, f.subject),
        )
    )


def analyze_vendor_matrix(
    resource_size: Optional[int] = None,
    obr_resource_size: Optional[int] = None,
    ccfc_resource_size: Optional[int] = None,
    vendors: Optional[Sequence[str]] = None,
    sbr_overhead: Optional[OverheadModel] = None,
    obr_overhead: Optional[OverheadModel] = None,
    ccfc_overhead: Optional[OverheadModel] = None,
) -> AnalysisReport:
    """Statically audit every vendor and every FCDN×BCDN cell.

    Purely configuration-driven: decision-table probes plus closed-form
    bounds, one pass per registered family.  Sizes left ``None`` take
    the family default (10 MB SBR and CCFC, 1 KB OBR).  SBR and CCFC
    bounds default to payload-only accounting and OBR bounds to
    TCP-framed accounting, matching the simulated attacks' defaults.
    Every vendor gets an SBR and a CCFC verdict — the safe CCFC row is
    tagged ``data["attack"]="ccfc"`` — while only vulnerable cascades
    are listed.
    """
    names = list(vendors) if vendors is not None else all_vendor_names()
    sizes = resolve_sizes(
        resource_size=resource_size,
        obr_resource_size=obr_resource_size,
        ccfc_resource_size=ccfc_resource_size,
    )
    overheads = {"sbr": sbr_overhead, "obr": obr_overhead, "ccfc": ccfc_overhead}
    findings: List[Finding] = []
    family: Family
    for family in FAMILIES:
        for subject in permutations(names, len(family.roles)):
            finding = family.finding(
                subject, sizes[family.size_field], overheads.get(family.name)
            )
            if family.lists_safe or finding.kind != "safe":
                findings.append(finding)
    return AnalysisReport(findings=_rank(findings), sizes=sizes)


def _own_profile(node: CdnNode) -> Optional[ProfileFactory]:
    """Fresh copies of a node's profile when it is not a plain registry
    vendor (a mitigation wrapper, say); ``None`` for a registry vendor,
    which the classifiers and bounds instantiate by name."""
    profile = node.profile
    if type(profile) is profile_class(profile.name):
        return None
    snapshot = copy.deepcopy(profile)
    return lambda: copy.deepcopy(snapshot)


def analyze_deployment(
    deployment: Deployment,
    resource_sizes: Optional[Sequence[int]] = None,
) -> AnalysisReport:
    """Statically audit one wired deployment without sending traffic.

    Reads the chain's per-node profiles and configs, the ledger's
    overhead model, and the origin store's resource sizes; classifies
    each node (SBR, CCFC) and each adjacent pair (OBR) and bounds them
    with the deployment's own overhead model.  A node wired with a
    wrapped profile is classified and bounded as that profile.
    """
    overhead = deployment.ledger.overhead
    store = deployment.origin.store
    sizes = (
        list(resource_sizes)
        if resource_sizes is not None
        else sorted({store.get(path).size for path in store.paths()})
    ) or [10 * MB]
    nodes = deployment.nodes

    findings: List[Finding] = []
    report_sizes: Dict[str, int] = {}
    family: Family
    for family in FAMILIES:
        family_sizes = family.deployment_sizes(sizes)
        report_sizes[family.size_field] = max(family_sizes)
        width = len(family.roles)
        for window in zip(*(nodes[offset:] for offset in range(width))):
            subject = tuple(node.profile.name for node in window)
            if len(set(subject)) < width:
                continue  # a CDN is not cascaded with itself
            profiles = tuple(_own_profile(node) for node in window)
            configs = tuple(node.config for node in window)
            for size in family_sizes:
                finding = family.finding(subject, size, overhead, profiles, configs)
                if family.lists_safe or finding.kind != "safe":
                    findings.append(finding)

    return AnalysisReport(findings=_rank(findings), sizes=report_sizes)


def render_findings_table(report: AnalysisReport) -> str:
    """The findings as the repo's standard ASCII table."""
    from repro.reporting.render import render_table

    rows = [
        [
            finding.severity,
            finding.kind,
            finding.subject,
            finding.mechanism,
            f"{finding.factor_bound:.0f}x" if finding.factor_bound else "-",
            finding.detail,
        ]
        for finding in report.findings
    ]
    return render_table(
        ["Severity", "Kind", "Subject", "Mechanism", "Bound", "Detail"], rows
    )

