"""Table III — range replying behaviors vulnerable to the OBR attack.

Identifies the CDNs that honor overlapping multi-range requests with an
n-part response (the usable OBR back-ends): Akamai, Azure (n <= 64), and
StackPath.
"""

from repro.core.feasibility import survey
from repro.reporting.artifacts import table3_artifact
from repro.reporting.paper_values import PAPER_OBR_BACKENDS
from repro.reporting.tables import table3_rows

from benchmarks.conftest import save_paper_artifact


def _regenerate():
    feasibility = survey(file_size=16 * 1024)
    return table3_rows(feasibility=feasibility)


def test_table3_obr_replying(benchmark, output_dir):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    assert {row.vendor for row in rows} == set(PAPER_OBR_BACKENDS), (
        "Table III membership mismatch"
    )
    azure = next(row for row in rows if row.vendor == "azure")
    assert azure.part_limit == 64, "Azure must cap multipart replies at 64 parts"

    save_paper_artifact(output_dir, table3_artifact(rows))
