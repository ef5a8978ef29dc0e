"""One-call regeneration of the full paper-reproduction report.

:func:`generate_full_report` writes Tables I–III from the feasibility
survey and every ``run-all`` artifact, each as aligned plain text and
GitHub markdown, into a target directory::

    from repro.reporting.summary import generate_full_report
    generate_full_report("report/")

The ``.txt`` files are byte-identical to what ``run-all --output-dir``
writes: both go through :mod:`repro.reporting.artifacts`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.reporting.artifacts import feasibility_artifacts, write_artifacts


def generate_full_report(
    output_dir: Union[str, Path],
    quick: bool = False,
) -> List[Path]:
    """Regenerate every table/figure; returns the files written.

    ``quick=True`` runs the trimmed ``run-all --quick`` grid for smoke
    runs; the default reproduces the paper's full parameter grid.
    """
    from repro.runner.runall import run_all, write_report

    written = write_artifacts(feasibility_artifacts(), output_dir, markdown=True)
    written += write_report(run_all(quick=quick), output_dir, markdown=True)
    return written
