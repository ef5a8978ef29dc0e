"""Shared benchmark helpers.

Every ``bench_*`` module regenerates one of the paper's tables or
figures.  Besides timing the regeneration with pytest-benchmark, each
bench renders its artifact to ``benchmarks/output/`` so a run leaves the
full paper-vs-measured record on disk (EXPERIMENTS.md links there).
The layouts come from :mod:`repro.reporting.artifacts`, so each file
has the bytes ``run-all --output-dir`` / ``repro report`` write for the
same rows.

The sweep benches regenerate through :mod:`repro.runner` (worker count
from ``REPRO_BENCH_WORKERS``, else the runner's own resolution, which
honours ``REPRO_RUNNER_SERIAL=1``); results are identical for every
worker count (see ``tests/runner/test_equivalence.py``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from repro.reporting.artifacts import Artifact
from repro.runner import GridRunner

OUTPUT_DIR = Path(__file__).parent / "output"

#: Worker count override for the bench runner.
BENCH_WORKERS_ENV = "REPRO_BENCH_WORKERS"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def benchmark_runner() -> GridRunner:
    """The GridRunner the sweeps regenerate through."""
    workers_env = os.environ.get(BENCH_WORKERS_ENV, "").strip()
    return GridRunner(workers=int(workers_env) if workers_env else None)


def save_artifact(output_dir: Path, name: str, content: str) -> None:
    """Write one rendered table/figure and echo it to the terminal.

    The write is atomic (temp file + ``os.replace``) so concurrent bench
    processes — ``pytest -n`` or parallel runner workers sharing the
    output directory — never interleave partial artifacts.
    """
    path = output_dir / name
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{name}.", suffix=".tmp", dir=str(output_dir)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    print(f"\n=== {name} ===\n{content}")


def save_paper_artifact(output_dir: Path, artifact: Artifact) -> None:
    """Save a paper table/figure with the bytes ``run-all`` writes for it."""
    save_artifact(output_dir, f"{artifact.stem}.txt", artifact.text() + "\n")
