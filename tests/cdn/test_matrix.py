"""The vendor behavior matrix, read through ``repro.analysis.classify``:
the ``repro matrix`` table, spot checks of single decisions, Table I/II
membership, and the cross-check against the feasibility experiment's
independent measurement path."""

from pathlib import Path

import pytest

from repro.analysis.classify import (
    classify_obr_frontend,
    classify_sbr,
    frontend_requires_bypass,
    probe_decision,
    second_request_decision,
)
from repro.cdn.policy import ForwardPolicy
from repro.cdn.vendors import all_vendor_names
from repro.cli import main
from repro.reporting.paper_values import PAPER_OBR_FRONTENDS, PAPER_SBR_VULNERABLE

MB = 1 << 20

#: ``repro matrix`` stdout, captured before the table moved onto
#: ``classify.probe_decision``; regenerate only when a change means to
#: move a vendor's decision.
GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "matrix.txt"


def sbr_vulnerable_vendors():
    return {vendor for vendor in all_vendor_names() if classify_sbr(vendor).vulnerable}


def obr_frontend_vendors(include_bypass=True):
    return {
        vendor
        for vendor in all_vendor_names()
        if classify_obr_frontend(vendor)
        or (include_bypass and frontend_requires_bypass(vendor))
    }


def matrix_stdout(capsys):
    assert main(["matrix"]) == 0
    return capsys.readouterr().out


class TestMatrixStructure:
    def test_full_coverage(self, capsys):
        assert matrix_stdout(capsys) == GOLDEN.read_text(encoding="utf-8")

    def test_deterministic(self, capsys):
        assert matrix_stdout(capsys) == matrix_stdout(capsys)


class TestPaperMembershipFromMatrix:
    def test_sbr_vulnerable_matches_table1(self):
        assert sbr_vulnerable_vendors() == set(PAPER_SBR_VULNERABLE)

    def test_obr_frontends_match_table2(self):
        assert obr_frontend_vendors() == set(PAPER_OBR_FRONTENDS)

    def test_obr_frontends_without_bypass_excludes_cloudflare(self):
        assert "cloudflare" not in obr_frontend_vendors(include_bypass=False)


class TestSpotChecks:
    def test_azure_size_dependence_visible(self):
        # Azure deletes in both regimes (the dual-connection behavior is
        # a fetch-flow detail, not a decision-table one).
        for size in (1 * MB, 25 * MB):
            decision = probe_decision("azure", "bytes=0-0", size)
            assert decision.policy is ForwardPolicy.DELETION

    def test_huawei_size_dependence_visible(self):
        def policy(range_value, size):
            return probe_decision("huawei", range_value, size).policy

        assert policy("bytes=-1", 1 * MB) is ForwardPolicy.DELETION
        assert policy("bytes=-1", 25 * MB) is ForwardPolicy.LAZINESS
        assert policy("bytes=0-0", 25 * MB) is ForwardPolicy.DELETION
        assert policy("bytes=0-0", 1 * MB) is ForwardPolicy.LAZINESS

    def test_cloudfront_expansion_values(self):
        decision = probe_decision("cloudfront", "bytes=0-0", 1 * MB)
        assert decision.policy is ForwardPolicy.EXPANSION
        assert decision.forwarded_range == "bytes=0-1048575"

    def test_keycdn_stateful_quirk(self):
        def second(vendor):
            return second_request_decision(vendor, "bytes=0-0", 1 * MB).policy

        assert probe_decision("keycdn", "bytes=0-0", 1 * MB).policy is (
            ForwardPolicy.LAZINESS
        )
        assert second("keycdn") is ForwardPolicy.DELETION
        # Stateless vendors give the same answer twice.
        assert second("gcore") is ForwardPolicy.DELETION
        assert second("tencent") is ForwardPolicy.DELETION


class TestCrossValidationAgainstFeasibility:
    """The classifier (decision-level) and the feasibility probe
    (traffic-level) must classify identically — two measurement paths,
    one truth."""

    @pytest.fixture(scope="class")
    def feasibility(self):
        from repro.core.feasibility import survey

        return survey(file_size=16 * 1024)

    def test_sbr_membership_agrees(self, feasibility):
        from_probe = {v for v, r in feasibility.items() if r.sbr_vulnerable}
        assert from_probe == sbr_vulnerable_vendors()

    def test_fcdn_membership_agrees(self, feasibility):
        from_probe = {v for v, r in feasibility.items() if r.obr_fcdn_vulnerable}
        assert from_probe == obr_frontend_vendors()
