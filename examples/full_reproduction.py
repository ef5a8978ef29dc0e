#!/usr/bin/env python3
"""Regenerate the paper's full table/figure record in one command.

Writes Tables I-III from the feasibility survey plus every ``run-all``
artifact (Tables IV, V, VII, CCFC, Fig 6a, Fig 7), each as plain text
and markdown, into a report directory; Table VII also as JSON.  The
``.txt`` files are byte-identical to ``python -m repro run-all
--output-dir`` for the same mode.  Same as ``python -m repro report``.

Usage::

    python examples/full_reproduction.py [output_dir] [--quick]

``--quick`` runs the trimmed ``run-all --quick`` grid for a smoke run.
"""

import sys
from pathlib import Path

from repro.reporting.summary import generate_full_report


def main() -> None:
    args = [a for a in sys.argv[1:] if a != "--quick"]
    quick = "--quick" in sys.argv[1:]
    output_dir = Path(args[0]) if args else Path("report")
    print(f"Regenerating the paper's tables and figures into {output_dir}/ "
          f"({'quick' if quick else 'full'} mode)...")
    written = generate_full_report(output_dir, quick=quick)
    for path in written:
        print(f"  wrote {path}")
    print("\nSide-by-side paper-vs-measured commentary lives in EXPERIMENTS.md.")


if __name__ == "__main__":
    main()
