"""CLI coverage for ``repro analyze``, ``repro recommend`` and ``repro lint``."""

import json
from pathlib import Path

import pytest

from repro.cli import main

#: Byte-exact ``repro analyze``/``recommend`` stdout.  Regenerate a file
#: with e.g. ``python -m repro recommend --format json >
#: tests/golden/analysis/recommend.json`` only when a change means to
#: alter the output, and say why.
GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "analysis"
SIZED = ["--size-mb", "3", "--obr-size", "2048", "--ccfc-size-mb", "5"]


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("analyze.txt", ["analyze"]),
        ("analyze.json", ["analyze", "--format", "json"]),
        ("recommend.txt", ["recommend"]),
        ("recommend.json", ["recommend", "--format", "json"]),
        ("analyze_sized.txt", ["analyze", *SIZED]),
        ("analyze_sized.json", ["analyze", *SIZED, "--format", "json"]),
        ("recommend_sized.txt", ["recommend", *SIZED]),
        ("recommend_sized.json", ["recommend", *SIZED, "--format", "json"]),
        ("analyze_with_retries.txt", ["analyze", "--with-retries"]),
    ],
)
def test_output_matches_golden(golden, argv, capsys):
    assert main(argv) == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


class TestAnalyzeTable:
    def test_renders_ranked_table(self, capsys):
        assert main(["analyze"]) == 0
        output = capsys.readouterr().out
        assert "Severity" in output and "Mechanism" in output
        assert "zero traffic simulated" in output
        # The paper's headline cells are all present.
        assert "cloudflare -> akamai" in output
        assert "cdn77 -> azure" in output
        assert "laziness+honor" in output

    def test_summary_counts_match_the_paper(self, capsys):
        assert main(["analyze"]) == 0
        output = capsys.readouterr().out
        assert "13 SBR-vulnerable vendor(s)" in output
        assert "11 OBR-vulnerable cascade(s)" in output
        assert "7 CCFC-vulnerable vendor(s)" in output
        assert "6 safe" in output

    def test_severity_orders_the_rows(self, capsys):
        assert main(["analyze"]) == 0
        output = capsys.readouterr().out
        assert output.index("critical") < output.index("medium")


class TestAnalyzeJson:
    def test_emits_valid_severity_ranked_json(self, capsys):
        assert main(["analyze", "--format", "json"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["resource_size"] == 10 * (1 << 20)
        kinds = {finding["kind"] for finding in decoded["findings"]}
        assert kinds == {"sbr", "obr", "ccfc", "safe"}
        obr = [f for f in decoded["findings"] if f["kind"] == "obr"]
        assert len(obr) == 11
        for finding in obr:
            assert finding["data"]["max_n"] >= 2
        ccfc = [f for f in decoded["findings"] if f["kind"] == "ccfc"]
        assert len(ccfc) == 7
        for finding in ccfc:
            assert finding["data"]["attack"] == "ccfc"
            assert finding["data"]["encoding"] in ("br", "gzip")

    def test_ccfc_findings_golden_shape(self, capsys):
        assert main(["analyze", "--format", "json", "--ccfc-size-mb", "1"]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["ccfc_resource_size"] == 1 << 20
        by_subject = {
            f["subject"]: f for f in decoded["findings"] if f["kind"] == "ccfc"
        }
        # The brotli rewriters sit at the top of the family, the gzip
        # rewriters below them; both bounds are pinned to 1dp here so a
        # ratio or header-accounting drift fails loudly.
        assert by_subject["cloudflare"]["data"]["encoding"] == "br"
        assert round(by_subject["cloudflare"]["factor_bound"], 1) == 1290.8
        assert by_subject["fastly"]["data"]["encoding"] == "gzip"
        assert round(by_subject["fastly"]["factor_bound"], 1) == 783.1
        # Rewrite-without-decompress stays safe: the edge relays the
        # compressed body, so there is nothing to inflate.
        safe = {
            f["subject"]: f
            for f in decoded["findings"]
            if f["kind"] == "safe" and f["data"].get("attack") == "ccfc"
        }
        assert safe["tencent"]["mechanism"] == "rewrite-no-decompress"
        assert safe["gcore"]["mechanism"] == "strip"

    def test_size_flags_change_the_bounds(self, capsys):
        assert main(["analyze", "--format", "json", "--size-mb", "1"]) == 0
        small = json.loads(capsys.readouterr().out)
        assert main(["analyze", "--format", "json", "--size-mb", "25"]) == 0
        large = json.loads(capsys.readouterr().out)

        def akamai_bound(report):
            return next(
                f["factor_bound"]
                for f in report["findings"]
                if f["kind"] == "sbr" and f["subject"] == "akamai"
            )

        assert akamai_bound(large) > akamai_bound(small)


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert capsys.readouterr().out == ""

    def test_violations_exit_one_and_print_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a):\n    return a\n", encoding="utf-8")
        assert main(["lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "future-annotations" in captured.out
        assert "untyped-def" in captured.out
        assert "finding(s)" in captured.err
