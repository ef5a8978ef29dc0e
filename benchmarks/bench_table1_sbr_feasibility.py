"""Table I — range forwarding behaviors vulnerable to the SBR attack.

Probes all 13 vendors with the ABNF-generated range corpus and
classifies each vendor's forwarding policies, reproducing Table I's
membership (all 13 vulnerable) and per-format policy entries.
"""

from repro.core.feasibility import survey
from repro.reporting.artifacts import table1_artifact
from repro.reporting.paper_values import PAPER_SBR_VULNERABLE
from repro.reporting.tables import table1_rows

from benchmarks.conftest import save_paper_artifact


def _regenerate():
    feasibility = survey(file_size=16 * 1024)
    return table1_rows(feasibility=feasibility)


def test_table1_sbr_feasibility(benchmark, output_dir):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    vulnerable = {row.vendor for row in rows if row.vulnerable}
    assert vulnerable == set(PAPER_SBR_VULNERABLE), (
        "Table I membership mismatch: every examined CDN must be "
        "SBR-vulnerable"
    )

    save_paper_artifact(output_dir, table1_artifact(rows))
