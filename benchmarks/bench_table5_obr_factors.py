"""Table V — maximum OBR amplification per FCDN x BCDN combination.

For each of the 11 usable combinations: search the largest overlap count
that survives both CDNs' header limits (the paper's max n), run the
attack once, and measure per-segment traffic and amplification.
"""

from repro.reporting.artifacts import table5_artifact
from repro.reporting.paper_values import PAPER_TABLE5
from repro.reporting.tables import table5_rows

from benchmarks.conftest import benchmark_runner, save_paper_artifact

#: Tolerances: max n falls out of header-limit arithmetic (tight);
#: traffic and factor absorb the capture-model difference (see
#: EXPERIMENTS.md).  The Azure-BCDN rows move only ~64 small parts, so
#: the paper's per-packet capture overhead is a visibly larger share of
#: the total there.
MAX_N_TOLERANCE = 0.01
TRAFFIC_TOLERANCE = 0.06
AZURE_TRAFFIC_TOLERANCE = 0.16
FACTOR_TOLERANCE = 0.35


def _regenerate():
    return table5_rows(runner=benchmark_runner())


def test_table5_obr_factors(benchmark, output_dir):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    assert len(rows) == 11
    for row in rows:
        paper_n, paper_bo, paper_fb, paper_factor = PAPER_TABLE5[(row.fcdn, row.bcdn)]
        assert abs(row.max_n - paper_n) <= max(2, paper_n * MAX_N_TOLERANCE), (
            f"{row.fcdn}->{row.bcdn}: max n {row.max_n} vs paper {paper_n}"
        )
        traffic_tolerance = (
            AZURE_TRAFFIC_TOLERANCE if row.bcdn == "azure" else TRAFFIC_TOLERANCE
        )
        assert abs(row.fcdn_bcdn_traffic - paper_fb) <= paper_fb * traffic_tolerance, (
            f"{row.fcdn}->{row.bcdn}: fcdn-bcdn {row.fcdn_bcdn_traffic} vs {paper_fb}"
        )
        assert abs(row.factor - paper_factor) <= paper_factor * FACTOR_TOLERANCE, (
            f"{row.fcdn}->{row.bcdn}: factor {row.factor:.0f} vs {paper_factor}"
        )

    save_paper_artifact(output_dir, table5_artifact(rows))
