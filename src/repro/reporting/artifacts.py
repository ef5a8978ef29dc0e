"""The one layout of every paper artifact, and the one writer.

Each ``*_artifact`` function turns regenerated rows into an
:class:`Artifact` — file stem, title, headers and cell strings — and is
the only place that artifact's layout is spelled out.  Every consumer
renders from here: ``run-all`` (files and stdout), ``repro report``,
``repro survey``, ``repro recommend`` (Table VII) and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.reporting.render import render_markdown_table, render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.recommend import Recommendation, RecommendationReport
    from repro.core.feasibility import VendorFeasibility
    from repro.core.practical import BandwidthRunResult
    from repro.reporting.figures import Fig6Series
    from repro.reporting.tables import (
        CcfcTableRow, FaultTableRow, Table1Row, Table2Row, Table3Row, Table4Row,
        Table5Row,
    )
    from repro.runner.runall import RunAllReport

MB = 1 << 20


@dataclass(frozen=True)
class Artifact:
    """One rendered table: written to ``<stem>.txt`` (and ``.md``)."""

    stem: str
    #: Heading printed above the table on stdout (never written to files).
    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def text(self) -> str:
        return render_table(self.headers, self.rows)

    def markdown(self) -> str:
        return render_markdown_table(self.headers, self.rows)


def _artifact(
    stem: str, title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> Artifact:
    return Artifact(stem, title, tuple(headers), tuple(tuple(row) for row in rows))


def _size_columns(sizes: Sequence[int], suffix: str) -> List[str]:
    return [f"{size // MB}MB{suffix}" for size in sizes]


def table1_artifact(rows: Sequence[Table1Row]) -> Artifact:
    def cells(row: Table1Row) -> List[object]:
        formats = "; ".join(f"{fmt} ({policy})" for fmt, policy in row.vulnerable_formats)
        return [row.display_name, "yes" if row.vulnerable else "no", formats]

    return _artifact(
        "table1_sbr_feasibility", "Table I - SBR-vulnerable forwarding",
        ["CDN", "Vulnerable", "Format -> Policy"], map(cells, rows),
    )


def table2_artifact(rows: Sequence[Table2Row]) -> Artifact:
    return _artifact(
        "table2_obr_forwarding", "Table II - OBR front-ends",
        ["CDN", "Lazy Multi-Range Formats"],
        ([row.display_name, "; ".join(row.lazy_formats)] for row in rows),
    )


def table3_artifact(rows: Sequence[Table3Row]) -> Artifact:
    def cells(row: Table3Row) -> List[object]:
        limit = f", n <= {row.part_limit}" if row.part_limit else ""
        return [row.display_name, f"n-part response (overlapping){limit}"]

    return _artifact(
        "table3_obr_replying", "Table III - OBR back-ends",
        ["CDN", "Response Format"], map(cells, rows),
    )


def feasibility_artifacts(
    feasibility: Optional[Dict[str, VendorFeasibility]] = None,
) -> List[Artifact]:
    """Tables I-III from one survey (run here unless one is passed in)."""
    from repro.core.feasibility import survey
    from repro.reporting.tables import table1_rows, table2_rows, table3_rows

    results = feasibility if feasibility is not None else survey(file_size=16 * 1024)
    return [
        table1_artifact(table1_rows(feasibility=results)),
        table2_artifact(table2_rows(feasibility=results)),
        table3_artifact(table3_rows(feasibility=results)),
    ]


def table4_artifact(rows: Sequence[Table4Row]) -> Artifact:
    from repro.reporting.paper_values import PAPER_TABLE4_FACTORS

    sizes = sorted(rows[0].factors) if rows else []

    def cells(row: Table4Row) -> List[object]:
        paper = PAPER_TABLE4_FACTORS[row.vendor]
        return [row.display_name, " & ".join(row.exploited_cases)] + [
            f"{row.factors[size]:.0f} ({paper.get(size, '-')})" for size in sizes
        ]

    return _artifact(
        "table4_sbr_factors", "Table IV - SBR amplification factors",
        ["CDN", "Exploited Case"] + _size_columns(sizes, " (paper)"), map(cells, rows),
    )


def table5_artifact(rows: Sequence[Table5Row]) -> Artifact:
    from repro.reporting.paper_values import PAPER_TABLE5

    def cells(row: Table5Row) -> List[object]:
        paper_n, _, paper_fb, paper_factor = PAPER_TABLE5[(row.fcdn, row.bcdn)]
        return [
            row.fcdn, row.bcdn, f"{row.max_n} ({paper_n})",
            f"{row.fcdn_bcdn_traffic} ({paper_fb})", f"{row.factor:.1f} ({paper_factor})",
        ]

    return _artifact(
        "table5_obr_factors", "Table V - OBR amplification factors",
        ["FCDN", "BCDN", "Max n (paper)", "BCDN->FCDN B (paper)", "Factor (paper)"],
        map(cells, rows),
    )


def ccfc_artifact(rows: Sequence[CcfcTableRow]) -> Artifact:
    sizes = sorted(rows[0].factors) if rows else []

    def cells(row: CcfcTableRow) -> List[object]:
        factors = [f"{row.factors[size]:.1f}" for size in sizes]
        return [row.display_name, row.encoding or "-"] + factors

    return _artifact(
        "table_ccfc", "CCFC - compression-conversion amplification factors",
        ["CDN", "Negotiated coding"] + _size_columns(sizes, " factor"), map(cells, rows),
    )


def table6_artifact(rows: Sequence[FaultTableRow]) -> Artifact:
    seed = rows[0].seed if rows else "-"

    def cells(row: FaultTableRow) -> List[object]:
        return [
            row.display_name, f"{row.resource_size // MB}MB", f"{row.clean_factor:.0f}",
            f"{row.faulted_factor:.0f}", f"{row.reamplification:.2f}x", row.faults,
            row.retries, row.exhausted_fetches, row.max_attempts,
        ]

    return _artifact(
        "table6_faulted_sbr",
        f"Table VI - SBR under faults + vendor retries (seed {seed})",
        ["CDN", "Size", "Clean factor", "Faulted factor", "Re-amp", "Faults", "Retries",
         "Exhausted", "Budget"],
        map(cells, rows),
    )


def table7_artifact(report: RecommendationReport) -> Artifact:
    def cells(recommendation: Recommendation) -> List[object]:
        chosen = recommendation.chosen
        rejected = ", ".join(
            f"{option.spec.label} ({option.residual_factor:.1f}x)"
            for option in recommendation.rejected
        )
        return [
            recommendation.finding.severity,
            recommendation.kind,
            recommendation.subject,
            chosen.spec.label if chosen is not None else "NONE",
            chosen.spec.cost_label if chosen is not None else "-",
            f"{chosen.residual_factor:.2f}x" if chosen is not None else "-",
            f"{recommendation.finding.factor_bound:.0f}x",
            rejected or "-",
        ]

    return _artifact(
        "table7_recommendations",
        "Table VII - Defense recommendations (static residual bounds)",
        ["Severity", "Kind", "Subject", "Mitigation", "Cost", "Residual", "Clean bound",
         "Rejected (cheaper, insufficient)"],
        map(cells, report.recommendations),
    )


def _fig6_artifact(
    series: Sequence[Fig6Series], stem: str, title: str, panel: str, spec: str
) -> Artifact:
    """One Fig 6 panel: a size row per sweep point, a column per vendor."""
    sizes = series[0].sizes if series else ()
    return _artifact(
        stem, title, ["size"] + [curve.vendor for curve in series],
        (
            [f"{size // MB}MB"]
            + [format(getattr(curve, panel)[index], spec) for curve in series]
            for index, size in enumerate(sizes)
        ),
    )


def fig6a_artifact(series: Sequence[Fig6Series]) -> Artifact:
    return _fig6_artifact(
        series, "fig6a_amplification_factors", "Fig 6a - SBR factor vs size",
        "factors", ".0f",
    )


def fig6b_artifact(series: Sequence[Fig6Series]) -> Artifact:
    return _fig6_artifact(
        series, "fig6b_client_traffic", "Fig 6b - CDN-to-client bytes vs size",
        "client_traffic", "d",
    )


def fig6c_artifact(series: Sequence[Fig6Series]) -> Artifact:
    return _fig6_artifact(
        series, "fig6c_origin_traffic", "Fig 6c - origin-to-CDN bytes vs size",
        "origin_traffic", "d",
    )


def fig7_artifact(results: Sequence[BandwidthRunResult]) -> Artifact:
    def cells(result: BandwidthRunResult) -> List[object]:
        return [
            result.m, f"{result.steady_origin_mbps:.1f}", f"{result.peak_client_kbps:.1f}",
            "yes" if result.saturated else "no",
        ]

    return _artifact(
        "fig7_bandwidth", "Fig 7 - origin egress vs m",
        ["m", "steady origin Mbps", "peak client Kbps", "saturated"], map(cells, results),
    )


def runall_artifacts(report: RunAllReport) -> List[Artifact]:
    """Every table a run-all report carries, in file-writing order."""
    artifacts = [table4_artifact(report.table4), table5_artifact(report.table5)]
    if report.fig6:
        artifacts.append(fig6a_artifact(report.fig6))
    if report.table_ccfc:
        artifacts.append(ccfc_artifact(report.table_ccfc))
    if report.table_faults:
        artifacts.append(table6_artifact(report.table_faults))
    artifacts.append(fig7_artifact(report.fig7))
    if report.table7_recommendations is not None:
        artifacts.append(table7_artifact(report.table7_recommendations))
    return artifacts


def write_artifacts(
    artifacts: Iterable[Artifact], output_dir: Union[str, Path], markdown: bool = False
) -> List[Path]:
    """Write ``<stem>.txt`` (plus ``<stem>.md`` with ``markdown``) per artifact."""
    target = Path(output_dir)
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for artifact in artifacts:
        renderings = [("txt", artifact.text())]
        if markdown:
            renderings.append(("md", artifact.markdown()))
        for suffix, content in renderings:
            path = target / f"{artifact.stem}.{suffix}"
            path.write_text(content + "\n", encoding="utf-8")
            written.append(path)
    return written
