"""Table IV — SBR amplification factors at 1 / 10 / 25 MB.

Runs every vendor's exploited range case against each resource size and
compares the measured amplification factor with the paper's, enforcing
the per-vendor tolerance bands documented in EXPERIMENTS.md.
"""

from repro.reporting.artifacts import table4_artifact
from repro.reporting.paper_values import PAPER_TABLE4_FACTORS
from repro.reporting.tables import table4_rows

from benchmarks.conftest import benchmark_runner, save_paper_artifact

MB = 1 << 20
SIZES = (1 * MB, 10 * MB, 25 * MB)

#: Relative tolerance against Table IV (plateau vendors are wider — their
#: cut-off arithmetic embeds testbed timing the simulator idealizes).
TOLERANCE = {"azure": 0.15, "cloudfront": 0.20, "keycdn": 0.10}
DEFAULT_TOLERANCE = 0.08


def _regenerate():
    return table4_rows(sizes=SIZES, runner=benchmark_runner())


def test_table4_sbr_factors(benchmark, output_dir):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    for row in rows:
        paper = PAPER_TABLE4_FACTORS[row.vendor]
        tolerance = TOLERANCE.get(row.vendor, DEFAULT_TOLERANCE)
        for size in SIZES:
            deviation = abs(row.factors[size] - paper[size]) / paper[size]
            assert deviation <= tolerance, (
                f"{row.vendor} at {size // MB} MB: measured "
                f"{row.factors[size]:.0f} vs paper {paper[size]} "
                f"({deviation:.1%} > {tolerance:.0%})"
            )

    save_paper_artifact(output_dir, table4_artifact(rows))
