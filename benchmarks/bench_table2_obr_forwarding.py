"""Table II — range forwarding behaviors vulnerable to the OBR attack.

Identifies the CDNs that forward overlapping multi-range requests
unchanged (the usable OBR front-ends): CDN77, CDNsun, Cloudflare (under
the Bypass rule), and StackPath.
"""

from repro.core.feasibility import survey
from repro.reporting.artifacts import table2_artifact
from repro.reporting.paper_values import PAPER_OBR_FRONTENDS
from repro.reporting.tables import table2_rows

from benchmarks.conftest import save_paper_artifact


def _regenerate():
    feasibility = survey(file_size=16 * 1024)
    rows = table2_rows(feasibility=feasibility)
    conditional = {
        name for name, verdict in feasibility.items() if verdict.obr_fcdn_conditional
    }
    return rows, conditional


def test_table2_obr_forwarding(benchmark, output_dir):
    rows, conditional = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    assert {row.vendor for row in rows} == set(PAPER_OBR_FRONTENDS), (
        "Table II membership mismatch"
    )
    assert conditional == {"cloudflare"}, (
        "only Cloudflare's front-end laziness is config-conditional (*)"
    )

    save_paper_artifact(output_dir, table2_artifact(rows))
