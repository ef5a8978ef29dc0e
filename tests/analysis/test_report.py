"""The findings report: coverage, ranking, and the zero-traffic pin.

The analyzer's whole claim is that it reproduces Tables I–III/V
membership *before* any traffic is simulated.  Two things are pinned
here: (1) its verdicts agree with the dynamic feasibility survey, and
(2) building the full vendor-matrix report opens no connection and
records no ledger byte.
"""

import json

import pytest

from repro.analysis import (
    analyze_deployment,
    analyze_vendor_matrix,
    classify_cascade,
    classify_obr_backend,
    classify_sbr,
    render_findings_table,
)
from repro.analysis.families import OBR_MITIGATIONS, mitigation_profile_factory
from repro.analysis.recommend import (
    DEFAULT_THRESHOLD,
    ccfc_residual_bound,
    obr_residual_bound,
    sbr_residual_bound,
)
from repro.analysis.report import SEVERITY_ORDER
from repro.cdn.vendors import OBR_BACKENDS, OBR_FRONTENDS, all_vendor_names
from repro.core.ccfc import CcfcAttack
from repro.core.deployment import CdnSpec, Deployment
from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.core.feasibility import survey
from repro.core.obr import vulnerable_combinations
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer
from repro.origin.server import OriginServer

MB = 1 << 20


class TestZeroTraffic:
    def test_vendor_matrix_simulates_nothing(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            report = analyze_vendor_matrix()
        assert report.findings  # the pass did real work...
        span_names = {record.name for record in tracer.finished_spans()}
        assert "net.exchange" not in span_names  # ...without any wire I/O
        assert "cdn.handle" not in span_names
        assert "attack.sbr" not in span_names
        assert "attack.obr" not in span_names

    def test_deployment_analysis_leaves_the_ledger_empty(self):
        origin = OriginServer()
        origin.add_synthetic_resource("/10MB.bin", 10 * MB)
        deployment = Deployment.single(CdnSpec(vendor="cdn77"), origin)
        report = analyze_deployment(deployment)
        assert report.findings
        assert deployment.ledger.connections == []


class TestVendorMatrixCoverage:
    def test_obr_findings_are_exactly_the_table5_cells(self):
        report = analyze_vendor_matrix()
        cells = {
            tuple(finding.subject.split(" -> "))
            for finding in report.by_kind("obr")
        }
        assert cells == set(vulnerable_combinations())

    def test_every_vendor_gets_an_sbr_verdict(self):
        report = analyze_vendor_matrix()
        verdicts = {f.subject for f in report.findings if f.kind in ("sbr", "safe")}
        assert verdicts == set(all_vendor_names())

    def test_findings_are_severity_ranked(self):
        report = analyze_vendor_matrix()
        ranks = [SEVERITY_ORDER.index(f.severity) for f in report.findings]
        assert ranks == sorted(ranks)
        # Within one bucket, larger bounds come first.
        for left, right in zip(report.findings, report.findings[1:]):
            if left.severity == right.severity:
                assert left.factor_bound >= right.factor_bound

    def test_json_round_trips(self):
        report = analyze_vendor_matrix()
        decoded = json.loads(report.to_json())
        assert decoded["resource_size"] == report.sizes["resource_size"]
        assert len(decoded["findings"]) == len(report.findings)

    def test_table_renders_every_finding(self):
        report = analyze_vendor_matrix()
        table = render_findings_table(report)
        for finding in report.findings:
            assert finding.subject in table


class TestMatchesDynamicSurvey:
    """Static classification agrees with the simulated Tables I-III."""

    def test_tables_1_to_3_membership(self):
        feasibility = survey(file_size=16 * 1024)
        for vendor in all_vendor_names():
            dynamic = feasibility[vendor]
            assert classify_sbr(vendor).vulnerable == dynamic.sbr_vulnerable, vendor
            assert (
                classify_obr_backend(vendor).honors_overlapping
                == dynamic.obr_bcdn_vulnerable
            ), vendor

    def test_frontend_and_backend_registries(self):
        lazy_fronts = {
            vendor
            for vendor in all_vendor_names()
            if any(
                classify_cascade(vendor, bcdn).vulnerable
                for bcdn in OBR_BACKENDS
                if bcdn != vendor
            )
        }
        assert lazy_fronts == set(OBR_FRONTENDS)
        honoring_backs = {
            vendor
            for vendor in all_vendor_names()
            if classify_obr_backend(vendor).honors_overlapping
        }
        assert honoring_backs == set(OBR_BACKENDS)


class TestDeploymentAnalysis:
    def test_reads_sizes_from_the_origin_store(self):
        origin = OriginServer()
        origin.add_synthetic_resource("/1MB.bin", 1 * MB)
        origin.add_synthetic_resource("/3MB.bin", 3 * MB)
        deployment = Deployment.single(CdnSpec(vendor="gcore"), origin)
        report = analyze_deployment(deployment)
        sizes = {f.data["resource_size"] for f in report.by_kind("sbr")}
        assert sizes == {1 * MB, 3 * MB}

    def test_cascade_cell_is_flagged(self):
        origin = OriginServer(range_support=False)
        origin.add_synthetic_resource("/1KB.bin", 1024)
        deployment = Deployment.cascade(
            CdnSpec(vendor="cdn77"), CdnSpec(vendor="akamai"), origin
        )
        report = analyze_deployment(deployment)
        assert any(
            f.subject == "cdn77 -> akamai" for f in report.by_kind("obr")
        )

    @pytest.mark.parametrize(
        "kind, subject, size",
        [
            ("sbr", "gcore", 4 * MB),
            ("ccfc", "cloudflare", 4 * MB),
            ("obr", "cdn77 -> akamai", 1024),
        ],
    )
    def test_wrapped_nodes_are_analyzed_as_wired(self, kind, subject, size):
        """A node wired with a mitigated profile is classified and bounded
        as that profile, not as the bare vendor it wraps."""
        origin = OriginServer()
        origin.add_synthetic_resource("/x.bin", size)
        if kind == "obr":
            fcdn, bcdn = subject.split(" -> ")
            spec = OBR_MITIGATIONS[0]  # overlap-rejection at the back end
            factory = mitigation_profile_factory(bcdn, spec.name)
            deployment = Deployment.cascade(
                CdnSpec(vendor=fcdn), CdnSpec(profile=factory()), origin
            )
            simulated = ObrAttack(
                fcdn, bcdn, resource_size=size, bcdn_profile_factory=factory
            ).run(overlap_count=64).amplification
            residual = obr_residual_bound(fcdn, bcdn, spec, size)
        else:
            mitigation, attack, residual_bound = {
                "sbr": ("laziness", SbrAttack, sbr_residual_bound),
                "ccfc": ("encoding-passthrough", CcfcAttack, ccfc_residual_bound),
            }[kind]
            factory = mitigation_profile_factory(subject, mitigation)
            deployment = Deployment.single(CdnSpec(profile=factory()), origin)
            simulated = attack(
                subject, resource_size=size, profile_factory=factory
            ).run().amplification
            residual = residual_bound(subject, mitigation, size)

        report = analyze_deployment(deployment)
        flagged = [f for f in report.by_kind(kind) if f.subject == subject]
        if not flagged:
            assert simulated < DEFAULT_THRESHOLD
            return
        (finding,) = flagged
        assert finding.factor_bound >= simulated
        assert finding.factor_bound == residual
