#!/usr/bin/env python
"""CI gate over the persisted benchmark trajectory (BENCH_runall.json).

Given the fast-path observation from this run, the sim-only (--exact)
observation from the same machine/job, and the baseline committed at the
repo root, enforce:

1. the fast-path hit rate has not dropped below the committed baseline
   (deterministic cell counts, so equality is expected — any drop means
   an engine started refusing cells it used to answer);
2. the run's wall clock has not regressed more than MAX_WALL_REGRESSION
   times the committed baseline (a coarse tripwire; machines differ, so
   the bound is deliberately loose);
3. the fast path's time answering the SBR/OBR/CCFC measurement cells
   (the derived "measure" phase) has not regressed more than
   MAX_WALL_REGRESSION times the committed baseline's.  The exact-mode
   "measure" phase of the same job is printed next to it as the
   exact/fast ratio, for information only.  That ratio used to be gated
   at >= 5x; once multipart/byteranges bodies became run-length encoded,
   wire-level simulation of the OBR cells got over 10x cheaper and the
   ratio fell to about 1x.  A floor on the ratio would fail because
   simulation got faster, so the gate checks the regression it stood in
   for.

All three files must carry the current benchmark schema version: the
run-all grid gained CCFC cells in schema version 2, so cell counts and
phase totals from older builds are not comparable.  A stale committed
baseline fails here with a pointer to the regeneration command instead
of silently gating against incomparable numbers.

Usage:
    python scripts/check_bench.py --current BENCH.json --exact BENCH_exact.json \
        --baseline BENCH_runall.json
"""

from __future__ import annotations

import argparse
import sys

from repro.reporting.bench import BenchReport, BenchSchemaError, load_bench

#: Wall-clock tripwire versus the committed baseline (whole run and
#: measurement phase alike).
MAX_WALL_REGRESSION = 2.0


def check(current: BenchReport, exact: BenchReport, baseline: BenchReport) -> int:
    failures = []

    if current.fastpath is None:
        failures.append("current run has no fast-path stats (was it --exact?)")
    elif current.hit_rate < baseline.hit_rate:
        failures.append(
            f"fast-path hit rate dropped: {current.hit_rate:.3f} < "
            f"baseline {baseline.hit_rate:.3f}"
        )

    if baseline.wall_s > 0 and current.wall_s > MAX_WALL_REGRESSION * baseline.wall_s:
        failures.append(
            f"wall clock regressed >{MAX_WALL_REGRESSION:.0f}x: "
            f"{current.wall_s:.2f}s vs baseline {baseline.wall_s:.2f}s"
        )

    fast_measure = current.measure_s
    exact_measure = exact.measure_s
    if fast_measure <= 0 or exact_measure <= 0:
        failures.append(
            f"missing measure phases (fast={fast_measure}, exact={exact_measure})"
        )
    else:
        print(
            f"measurement cells: fast {fast_measure:.3f}s "
            f"(baseline {baseline.measure_s:.3f}s); exact {exact_measure:.3f}s, "
            f"exact/fast {exact_measure / fast_measure:.1f}x (informational)"
        )
        if baseline.measure_s > 0 and fast_measure > MAX_WALL_REGRESSION * baseline.measure_s:
            failures.append(
                f"measurement phase regressed >{MAX_WALL_REGRESSION:.0f}x: "
                f"{fast_measure:.3f}s vs baseline {baseline.measure_s:.3f}s"
            )

    print(
        f"hit rate: {current.hit_rate:.3f} (baseline {baseline.hit_rate:.3f}); "
        f"wall: {current.wall_s:.2f}s (baseline {baseline.wall_s:.2f}s)"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True, help="fast-path BENCH file")
    parser.add_argument("--exact", required=True, help="sim-only BENCH file")
    parser.add_argument("--baseline", required=True, help="committed baseline")
    args = parser.parse_args(argv)
    try:
        current = load_bench(args.current)
        exact = load_bench(args.exact)
        baseline = load_bench(args.baseline)
    except BenchSchemaError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        print(
            "hint: if the committed baseline predates the current schema "
            "(e.g. version 1, before the grid gained CCFC cells), "
            "regenerate it with:\n"
            "  PYTHONPATH=src python -m repro run-all --quick --workers 1 "
            "--no-progress --bench BENCH_runall.json",
            file=sys.stderr,
        )
        return 1
    return check(current, exact, baseline)


if __name__ == "__main__":
    raise SystemExit(main())
