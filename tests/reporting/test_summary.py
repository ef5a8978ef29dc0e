"""Tests for the one-call full-report generator (quick mode).

Byte identity with ``run-all``'s goldens is pinned in ``tests/test_cli.py``.
"""

import pytest

from repro.reporting.summary import generate_full_report


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    output_dir = tmp_path_factory.mktemp("report")
    written = generate_full_report(output_dir, quick=True)
    return output_dir, written


class TestGeneration:
    def test_all_artifacts_written_in_both_formats(self, report):
        output_dir, written = report
        stems = {
            "table1_sbr_feasibility",
            "table2_obr_forwarding",
            "table3_obr_replying",
            "table4_sbr_factors",
            "table5_obr_factors",
            "fig6a_amplification_factors",
            "table_ccfc",
            "fig7_bandwidth",
            "table7_recommendations",
        }
        names = {path.name for path in written}
        for stem in stems:
            assert f"{stem}.txt" in names
            assert f"{stem}.md" in names
        assert "table7_recommendations.json" in names
        assert len(names) == 2 * len(stems) + 1
        assert all(path.exists() and path.stat().st_size > 0 for path in written)

    def test_table4_mentions_paper_values(self, report):
        output_dir, _ = report
        content = (output_dir / "table4_sbr_factors.txt").read_text()
        assert "(1707)" in content  # Akamai's paper factor at 1 MB
        assert "Akamai" in content

    def test_markdown_is_table_shaped(self, report):
        output_dir, _ = report
        content = (output_dir / "table5_obr_factors.md").read_text()
        lines = content.splitlines()
        assert lines[0].startswith("| FCDN |")
        assert lines[1].startswith("|---")

    def test_fig7_quick_rows(self, report):
        output_dir, _ = report
        content = (output_dir / "fig7_bandwidth.txt").read_text()
        assert "yes" in content and "no" in content  # both regimes present

    def test_creates_missing_directories(self, tmp_path):
        nested = tmp_path / "a" / "b"
        written = generate_full_report(nested, quick=True)
        assert nested.exists()
        assert written
