"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import _build_parser, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "runall_quick"
FEASIBILITY_TABLES = (
    ("table1_sbr_feasibility", "Table I - SBR-vulnerable forwarding"),
    ("table2_obr_forwarding", "Table II - OBR front-ends"),
    ("table3_obr_replying", "Table III - OBR back-ends"),
)


class TestVendors:
    def test_lists_all_13(self, capsys):
        assert main(["vendors"]) == 0
        output = capsys.readouterr().out
        for name in ("akamai", "cloudflare", "tencent", "gcore"):
            assert name in output


class TestSbr:
    def test_runs_and_reports(self, capsys):
        assert main(["sbr", "akamai", "--size-mb", "1"]) == 0
        output = capsys.readouterr().out
        assert "amplification" in output
        assert "1707" in output.replace(",", "") or "170" in output

    def test_rounds_flag(self, capsys):
        assert main(["sbr", "gcore", "--size-mb", "1", "--rounds", "3"]) == 0
        assert "3 round(s)" in capsys.readouterr().out

    def test_unknown_vendor_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["sbr", "notacdn"])


class TestObr:
    def test_runs_with_explicit_n(self, capsys):
        assert main(["obr", "cloudflare", "akamai", "--overlaps", "64"]) == 0
        output = capsys.readouterr().out
        assert "overlap count n:   64" in output
        assert "amplification" in output

    def test_self_cascade_is_a_clean_error(self, capsys):
        assert main(["obr", "akamai", "akamai", "--overlaps", "4"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSurvey:
    def test_prints_three_tables(self, capsys):
        assert main(["survey"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "Table II" in output
        assert "Table III" in output
        assert "StackPath" in output


class TestFlood:
    def test_saturated_marker(self, capsys):
        assert main(["flood", "--m", "14"]) == 0
        assert "SATURATED" in capsys.readouterr().out

    def test_below_saturation(self, capsys):
        assert main(["flood", "--m", "2"]) == 0
        assert "SATURATED" not in capsys.readouterr().out


class TestMatrix:
    def test_prints_all_vendors_and_policies(self, capsys):
        assert main(["matrix"]) == 0
        output = capsys.readouterr().out
        for vendor in ("akamai", "cloudfront", "keycdn"):
            assert vendor in output
        assert "DEL" in output and "EXP" in output and "lazy" in output


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    target = tmp_path_factory.mktemp("report") / "out"
    assert main(["report", str(target), "--quick"]) == 0
    return target


class TestReport:
    def test_quick_report_written(self, tmp_path, capsys):
        target = tmp_path / "out"
        assert main(["report", str(target), "--quick"]) == 0
        output = capsys.readouterr().out
        assert "table4_sbr_factors" in output
        assert (target / "table1_sbr_feasibility.md").exists()

    def test_runall_artifacts_match_goldens(self, quick_report):
        """``repro report`` goes through run-all's writer: same bytes."""
        golden = sorted(GOLDEN_DIR.iterdir())
        assert golden
        for path in golden:
            assert (quick_report / path.name).read_bytes() == path.read_bytes(), (
                path.name
            )

    def test_feasibility_tables_with_markdown_twins(self, quick_report):
        for stem, _ in FEASIBILITY_TABLES:
            assert (quick_report / f"{stem}.txt").stat().st_size > 0
            markdown = (quick_report / f"{stem}.md").read_text()
            assert markdown.startswith("| CDN |")

    def test_survey_prints_the_report_tables(self, quick_report, capsys):
        assert main(["survey"]) == 0
        expected = "\n".join(
            f"{title}:\n" + (quick_report / f"{stem}.txt").read_text()
            for stem, title in FEASIBILITY_TABLES
        )
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--size-mb", "-3"],
        ["analyze", "--size-mb", "0"],
        ["analyze", "--size-mb", "1025"],
        ["analyze", "--obr-size", "0"],
        ["recommend", "--ccfc-size-mb", "0"],
        ["sbr", "akamai", "--rounds", "0"],
        ["sbr", "akamai", "--size-mb", "-1"],
        ["obr", "cloudflare", "akamai", "--overlaps", "0"],
        ["flood", "--m", "-2"],
        ["economics", "sbr", "akamai", "--rps", "-5"],
        ["economics", "sbr", "akamai", "--hours", "-1"],
        ["economics", "sbr", "akamai", "--rps", "0"],
        ["run-all", "--workers", "-2"],
        ["run-all", "--workers", "0"],
        ["analyze", "--size-mb", "ten"],
        ["economics", "sbr", "akamai", "--rps", "nan"],
        ["economics", "sbr", "akamai", "--hours", "inf"],
        ["recommend", "--threshold", "nan"],
        ["flood", "--uplink-mbps", "nan"],
        ["obs", "diff", "0", "1", "--threshold", "nan"],
        ["obs", "diff", "0", "1", "--threshold", "-1"],
        ["obs", "diff", "0", "1", "--min-seconds", "nan"],
        ["obs", "diff", "0", "1", "--factor-tolerance", "inf"],
        ["obs", "top", "-n", "-3"],
        ["obs", "runs", "--limit", "0"],
    ],
)
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"error: argument {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,dest,value",
    [
        (["analyze", "--size-mb", "1024"], "size_mb", 1024),
        (["analyze", "--obr-size", str(1 << 30)], "obr_size", 1 << 30),
        (["flood", "--m", "0"], "m", 0),
        (["economics", "sbr", "akamai", "--hours", "0.5"], "hours", 0.5),
        (["run-all", "--workers", "1"], "workers", 1),
    ],
)
def test_range_limits_are_inclusive(argv, dest, value):
    assert getattr(_build_parser().parse_args(argv), dest) == value


class TestEconomics:
    def test_sbr_campaign(self, capsys):
        assert main(
            ["economics", "sbr", "akamai", "--size-mb", "1", "--rps", "1", "--hours", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "victim bill" in output
        assert "$" in output

    def test_obr_campaign(self, capsys):
        assert main(["economics", "obr", "cloudflare:akamai", "--rps", "1"]) == 0
        assert "OBR campaign" in capsys.readouterr().out

    def test_bad_sbr_vendor(self, capsys):
        assert main(["economics", "sbr", "notacdn"]) == 2

    def test_bad_obr_pair(self, capsys):
        assert main(["economics", "obr", "akamai:akamai"]) == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
