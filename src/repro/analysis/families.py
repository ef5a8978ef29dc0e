"""The attack-family registry: one record per amplification family.

SBR and OBR are the paper's families (§IV-B, §IV-C); CCFC is arXiv
2409.00712.  The report, the recommendation engine and its verification,
and the analysis service iterate :data:`FAMILIES` or look a family up by
name.  Records call the classifiers, bounds and residual functions by
module-level name at call time, never through stored function objects,
so whatever rebinds those names (the benchmark's layer tracer) sees
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.analysis.bounds import (
    ObrBound,
    ProfileFactory,
    obr_bound,
    profile_ccfc_bound,
    profile_sbr_bound,
    sbr_bound,
    static_max_n,
)
from repro.analysis.classify import classify_cascade, classify_ccfc, classify_sbr
from repro.cdn.vendors import create_profile
from repro.cdn.vendors.base import VendorConfig
from repro.defense.mitigations import (
    with_bounded_expansion,
    with_encoding_normalization,
    with_encoding_passthrough,
    with_laziness,
    with_overlap_rejection,
    with_slicing,
)
from repro.errors import ConfigurationError, ReproError
from repro.netsim.overhead import OverheadModel

if TYPE_CHECKING:
    from repro.analysis.report import Finding
    from repro.faults.plan import FaultPlan

MB = 1 << 20

#: A finding's subject: ``("azure",)`` or ``("cdn77", "akamai")``.
Subject = Tuple[str, ...]
#: Per-position substitutes aligned with a subject (``None`` = registry vendor).
Profiles = Sequence[Optional[ProfileFactory]]
Configs = Sequence[Optional[VendorConfig]]


def subject_label(subject: Subject) -> str:
    """``("cdn77", "akamai")`` -> ``"cdn77 -> akamai"``."""
    return " -> ".join(subject)


def parse_subject(label: str) -> Subject:
    """Inverse of :func:`subject_label`."""
    return tuple(label.split(" -> "))


def _format_size(size: int) -> str:
    if size >= MB and size % MB == 0:
        return f"{size // MB}MB"
    return f"{size}B"


def _safe(subject: Subject, mechanism: str, detail: str, **data: object) -> Finding:
    from repro.analysis.report import Finding

    return Finding(
        kind="safe",
        severity="info",
        subject=subject_label(subject),
        mechanism=mechanism,
        factor_bound=0.0,
        detail=detail,
        data=dict(data),
    )


# ---------------------------------------------------------------------------
# Mitigation candidates
# ---------------------------------------------------------------------------

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
    #: Which subject role it wraps: ``cdn`` (a vendor), ``fcdn`` or
    #: ``bcdn`` (one side of a cascade).
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


def _ranked(*candidates: Tuple[str, str, int, str]) -> Tuple[MitigationSpec, ...]:
    """Specs ranked in the order given: ``(name, target, cost, description)``."""
    return tuple(
        MitigationSpec(name, target, cost, rank, description)
        for rank, (name, target, cost, description) in enumerate(candidates)
    )


#: SBR candidates, cheapest first.  Bounded expansion is the smallest
#: behavioral change (prefetching survives); Laziness gives up
#: range-driven caching but is still a config flip; the RFC 7233 guard
#: adds ingress rejection on top of Laziness; slicing restructures the
#: fetch flow entirely.
SBR_MITIGATIONS = _ranked(
    ("bounded-expansion", "cdn", COST_CONFIG_ONLY,
     "cap range expansion at 8KB of slack (paper 6-C)"),
    ("laziness", "cdn", COST_CONFIG_ONLY,
     "forward the Range header unchanged (G-Core's fix)"),
    ("overlap-rejection", "cdn", COST_HEADER_GUARD,
     "lazy forwarding plus the RFC 7233 6.1 ingress guard"),
    ("slicing", "cdn", COST_FETCH_FLOW,
     "fetch fixed-size slices and cache them independently"),
)

#: OBR candidates, cheapest first.  The honoring back end is the root
#: cause (Table III), so guarding it outranks guarding the front; the
#: slice flow coalesces too but costs a fetch-flow change.
OBR_MITIGATIONS = _ranked(
    ("overlap-rejection", "bcdn", COST_HEADER_GUARD,
     "RFC 7233 6.1 guard + coalescing replies at the back end"),
    ("overlap-rejection", "fcdn", COST_HEADER_GUARD,
     "RFC 7233 6.1 guard at the front end (CDN77's fix)"),
    ("slicing", "bcdn", COST_FETCH_FLOW,
     "slice-based fetching at the back end (coalescing replies)"),
)

#: CCFC candidates, cheapest first.  Pass-through is a pure config flip
#: (stop rewriting Accept-Encoding, stop decompressing); normalization
#: keeps edge decompression support but clamps the upstream negotiation
#: to what the client offered, which costs an ingress header guard.
CCFC_MITIGATIONS = _ranked(
    ("encoding-passthrough", "cdn", COST_CONFIG_ONLY,
     "forward the client's Accept-Encoding untouched (identity pass-through)"),
    ("encoding-normalization", "cdn", COST_HEADER_GUARD,
     "clamp upstream Accept-Encoding to codings the client accepts"),
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


class ExactSimUnavailable(ReproError):
    """The exact simulation could not produce a usable measurement."""


# ---------------------------------------------------------------------------
# The records
# ---------------------------------------------------------------------------


class Family:
    """One attack family's record; each family subclasses it once."""

    #: Finding kind; also the ``attack`` value of service items.
    name: str
    label: str
    #: Subject shape as deployment roles, ``("cdn",)`` or ``("fcdn",
    #: "bcdn")``; a mitigation's ``target`` names one of them.
    roles: Tuple[str, ...]
    default_size: int
    #: The analyze/recommend keyword and JSON key carrying its size.
    size_field: str
    #: Unit of its CLI size flag and summary lines (``MB`` or ``B``).
    size_unit: str
    mitigations: Tuple[MitigationSpec, ...]
    #: Reports list every subject's verdict, not only vulnerable ones.
    lists_safe: bool = True
    #: Verified over the quick size grid, not once at the report size.
    verify_on_quick_grid: bool = True
    #: The service can :meth:`measure` it exactly.
    measurable: bool = False

    @property
    def pair(self) -> bool:
        """Subjects are ordered FCDN→BCDN pairs rather than vendors."""
        return len(self.roles) > 1

    def format_size(self, size: int) -> str:
        return f"{size // MB}MB" if self.size_unit == "MB" else f"{size}B"

    def deployment_sizes(self, sizes: Sequence[int]) -> Tuple[int, ...]:
        """The origin resource sizes a deployment audit bounds it at."""
        return tuple(sizes)

    def mitigated(
        self, subject: Subject, spec: MitigationSpec
    ) -> Tuple[Optional[ProfileFactory], ...]:
        """Per-position profiles with ``spec`` wrapping its target role."""
        return tuple(
            mitigation_profile_factory(name, spec.name) if role == spec.target else None
            for name, role in zip(subject, self.roles)
        )

    def _vulnerable(
        self,
        subject: Subject,
        factor: float,
        mechanism: str,
        detail: str,
        data: Dict[str, object],
    ) -> Finding:
        from repro.analysis.report import Finding, severity_for_factor

        return Finding(
            kind=self.name,
            severity=severity_for_factor(factor),
            subject=subject_label(subject),
            mechanism=mechanism,
            factor_bound=factor,
            detail=detail,
            data=data,
        )

    def finding(
        self,
        subject: Subject,
        size: int,
        overhead: Optional[OverheadModel] = None,
        profiles: Optional[Profiles] = None,
        configs: Optional[Configs] = None,
    ) -> Finding:
        """Classify and bound ``subject``; ``profiles``/``configs`` stand
        in per position (a deployment's own nodes)."""
        raise NotImplementedError

    def residual(self, subject: Subject, spec: MitigationSpec, size: int) -> float:
        """Worst-case factor left after applying ``spec``."""
        raise NotImplementedError

    def faulted_residual(
        self, subject: Subject, spec: MitigationSpec, size: int
    ) -> Optional[float]:
        """Retry-aware residual (informational), where the family has one."""
        return None

    def simulate(
        self, subject: Subject, spec: MitigationSpec, size: int
    ) -> Optional[float]:
        """Simulated factor under ``spec`` (``None``: blocked outright)."""
        raise NotImplementedError

    def measure(
        self, subject: Subject, size: int, fault_plan: Optional[FaultPlan] = None
    ) -> float:
        """Exact simulated amplification factor (``measurable`` only)."""
        raise NotImplementedError


class SbrFamily(Family):
    name = "sbr"
    label = "SBR"
    roles = ("cdn",)
    default_size = 10 * MB
    size_field = "resource_size"
    size_unit = "MB"
    mitigations = SBR_MITIGATIONS
    measurable = True

    def finding(
        self,
        subject: Subject,
        size: int,
        overhead: Optional[OverheadModel] = None,
        profiles: Optional[Profiles] = None,
        configs: Optional[Configs] = None,
    ) -> Finding:
        (vendor,) = subject
        (profile,) = profiles or (None,)
        (config,) = configs or (None,)
        classification = classify_sbr(vendor, config=config, profile_factory=profile)
        if not classification.vulnerable:
            return _safe(
                subject,
                "none",
                f"{classification.display_name} forwards ranges lazily; no SBR vector",
            )
        bound = (
            sbr_bound(vendor, size, overhead=overhead)
            if profile is None
            else profile_sbr_bound(vendor, profile, size, overhead=overhead)
        )
        return self._vulnerable(
            subject,
            bound.factor,
            classification.mechanism,
            f"{classification.display_name} amplifies via "
            f"{classification.mechanism}: "
            f"<= {bound.factor:.0f}x at {_format_size(size)}",
            {
                "resource_size": size,
                "range_cases": list(bound.range_cases),
                "origin_fetches": bound.origin_fetches,
                "origin_bytes_upper": bound.origin_bytes_upper,
                "client_bytes_lower": bound.client_bytes_lower,
            },
        )

    def residual(self, subject: Subject, spec: MitigationSpec, size: int) -> float:
        from repro.analysis.recommend import sbr_residual_bound

        return sbr_residual_bound(subject[0], spec.name, size)

    def faulted_residual(
        self, subject: Subject, spec: MitigationSpec, size: int
    ) -> Optional[float]:
        from repro.analysis.recommend import sbr_faulted_residual_bound

        return sbr_faulted_residual_bound(subject[0], spec.name, size)

    def simulate(
        self, subject: Subject, spec: MitigationSpec, size: int
    ) -> Optional[float]:
        from repro.core.sbr import SbrAttack

        (factory,) = self.mitigated(subject, spec)
        attack = SbrAttack(subject[0], resource_size=size, profile_factory=factory)
        return attack.run().amplification

    def measure(
        self, subject: Subject, size: int, fault_plan: Optional[FaultPlan] = None
    ) -> float:
        vendor = subject[0]
        if fault_plan is not None:
            from repro.faults.experiment import measure_sbr_under_faults

            faulted = measure_sbr_under_faults(vendor, size, plan=fault_plan, rounds=1)
            if faulted.exhausted_fetches > 0:
                raise ExactSimUnavailable(
                    f"{faulted.exhausted_fetches} origin fetch(es) exhausted "
                    f"the retry budget under faults"
                )
            return float(faulted.amplification)
        from repro.runner.memo import measure_sbr

        return float(measure_sbr(vendor, size).amplification)


class ObrFamily(Family):
    name = "obr"
    label = "OBR"
    roles = ("fcdn", "bcdn")
    default_size = 1024
    size_field = "obr_resource_size"
    size_unit = "B"
    mitigations = OBR_MITIGATIONS
    lists_safe = False
    verify_on_quick_grid = False

    def deployment_sizes(self, sizes: Sequence[int]) -> Tuple[int, ...]:
        return (sizes[0],)

    def finding(
        self,
        subject: Subject,
        size: int,
        overhead: Optional[OverheadModel] = None,
        profiles: Optional[Profiles] = None,
        configs: Optional[Configs] = None,
    ) -> Finding:
        fcdn, bcdn = subject
        front, back = profiles or (None, None)
        front_config, _ = configs or (None, None)
        cascade = classify_cascade(
            fcdn,
            bcdn,
            resource_size=size,
            fcdn_config=front_config,
            fcdn_profile=front,
            bcdn_profile=back,
        )
        bound: Optional[ObrBound] = None
        if cascade.vulnerable:
            try:
                bound = obr_bound(
                    fcdn,
                    bcdn,
                    resource_size=size,
                    overhead=overhead,
                    fcdn_profile=front,
                    bcdn_profile=back,
                )
            except ConfigurationError:
                pass  # the limits admit no overlapping ranges at all
        if bound is None:
            return _safe(subject, "none", f"{subject_label(subject)} has no OBR vector")
        return self._vulnerable(
            subject,
            bound.factor,
            "laziness+honor" + (" (bypass)" if cascade.requires_bypass else ""),
            f"{fcdn} forwards {len(cascade.lazy_probes)} "
            f"overlapping shapes verbatim; {bcdn} honors them "
            f"(max n = {bound.max_n}, <= {bound.factor:.0f}x)",
            {
                "resource_size": size,
                "max_n": bound.max_n,
                "part_overhead_upper": bound.part_overhead_upper,
                "victim_bytes_upper": bound.victim_bytes_upper,
                "attacker_bytes_lower": bound.attacker_bytes_lower,
                "requires_bypass": cascade.requires_bypass,
            },
        )

    def residual(self, subject: Subject, spec: MitigationSpec, size: int) -> float:
        from repro.analysis.recommend import obr_residual_bound

        fcdn, bcdn = subject
        return obr_residual_bound(fcdn, bcdn, spec, size)

    def simulate(
        self, subject: Subject, spec: MitigationSpec, size: int
    ) -> Optional[float]:
        from repro.core.obr import ObrAttack

        fcdn, bcdn = subject
        front, back = self.mitigated(subject, spec)
        n = static_max_n(
            fcdn, bcdn, resource_size=size, fcdn_profile=front, bcdn_profile=back
        )
        if n < 1:
            return None
        attack = ObrAttack(
            fcdn,
            bcdn,
            resource_size=size,
            fcdn_profile_factory=front,
            bcdn_profile_factory=back,
        )
        return attack.run(overlap_count=n).amplification


#: Safe-mechanism phrasing for the CCFC findings.
_CCFC_SAFE_DETAILS = {
    "forward": "forwards Accept-Encoding untouched; no CCFC vector",
    "strip": "strips Accept-Encoding toward the origin; no CCFC vector",
    "normalize": "normalizes Accept-Encoding to the client's codings; no CCFC vector",
    "rewrite-no-decompress": (
        "rewrites Accept-Encoding but relays compressed bodies as-is; no CCFC vector"
    ),
    "rewrite-incompressible": (
        "rewrites Accept-Encoding to codings that do not compress; no CCFC vector"
    ),
}


class CcfcFamily(Family):
    name = "ccfc"
    label = "CCFC"
    roles = ("cdn",)
    default_size = 10 * MB
    size_field = "ccfc_resource_size"
    size_unit = "MB"
    mitigations = CCFC_MITIGATIONS
    measurable = True

    def deployment_sizes(self, sizes: Sequence[int]) -> Tuple[int, ...]:
        return (max(sizes),)

    def finding(
        self,
        subject: Subject,
        size: int,
        overhead: Optional[OverheadModel] = None,
        profiles: Optional[Profiles] = None,
        configs: Optional[Configs] = None,
    ) -> Finding:
        (vendor,) = subject
        (profile,) = profiles or (None,)
        classification = classify_ccfc(vendor, profile_factory=profile)
        if not classification.vulnerable:
            detail = _CCFC_SAFE_DETAILS.get(
                classification.mechanism, "has no compression-conversion vector"
            )
            return _safe(
                subject,
                classification.mechanism,
                f"{classification.display_name} {detail}",
                attack=self.name,
                encoding_policy=classification.encoding_policy.value,
                edge_decompresses=classification.edge_decompresses,
            )
        bound = profile_ccfc_bound(vendor, profile, size, overhead=overhead)
        codings = ", ".join(classification.edge_accept_encoding)
        return self._vulnerable(
            subject,
            bound.factor,
            classification.mechanism,
            f"{classification.display_name} rewrites Accept-Encoding to "
            f"{codings} and inflates at the edge: "
            f"<= {bound.factor:.0f}x at {_format_size(size)}",
            {
                "attack": self.name,
                "resource_size": size,
                "encoding": bound.encoding,
                "edge_accept_encoding": list(classification.edge_accept_encoding),
                "victim_bytes_upper": bound.victim_bytes_upper,
                "attacker_bytes_lower": bound.attacker_bytes_lower,
            },
        )

    def residual(self, subject: Subject, spec: MitigationSpec, size: int) -> float:
        from repro.analysis.recommend import ccfc_residual_bound

        return ccfc_residual_bound(subject[0], spec.name, size)

    def simulate(
        self, subject: Subject, spec: MitigationSpec, size: int
    ) -> Optional[float]:
        from repro.core.ccfc import CcfcAttack

        (factory,) = self.mitigated(subject, spec)
        attack = CcfcAttack(subject[0], resource_size=size, profile_factory=factory)
        return attack.run().amplification

    def measure(
        self, subject: Subject, size: int, fault_plan: Optional[FaultPlan] = None
    ) -> float:
        # No fault-plan variant: the CCFC flow has no range algebra for
        # faults to perturb.
        from repro.runner.memo import measure_ccfc

        return float(measure_ccfc(subject[0], size).amplification)


SBR = SbrFamily()
OBR = ObrFamily()
CCFC = CcfcFamily()

#: Every family, in report order: the order of the size fields in the
#: JSON reports and of the CLI summary lines.
FAMILIES: Tuple[Family, ...] = (SBR, OBR, CCFC)


def family_named(name: str) -> Family:
    """The record for a finding kind / service ``attack`` value."""
    for family in FAMILIES:
        if family.name == name:
            return family
    raise ConfigurationError(f"unknown attack family {name!r}")


def resolve_sizes(**given: Optional[int]) -> Dict[str, int]:
    """Every family's resource size by ``size_field``, in registry order:
    the given keyword, else the family default."""
    sizes = {family.size_field: family.default_size for family in FAMILIES}
    sizes.update((field, size) for field, size in given.items() if size is not None)
    return sizes

