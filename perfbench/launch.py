"""Traced-run launcher: ``python perfbench/launch.py SPANS.json <repro args>``.

Wraps the layers' public functions (:mod:`perfbench.tracing`), then runs
the normal ``repro`` command line in this process, so the program takes
exactly the paths it takes untraced.  When the command returns (for
``serve``: after its SIGTERM drain) the span tables, counters, named
memo statistics and the command's wall time are written to SPANS.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Tracer, install, restore  # noqa: E402


def main(argv: list) -> int:
    out_path, repro_args = Path(argv[0]), argv[1:]
    from repro.cli import main as repro_main
    from repro.runner.memo import memo_stats

    tracer = Tracer()
    patches = install(tracer)
    started = time.perf_counter()
    try:
        code = repro_main(repro_args)
    finally:
        wall_s = time.perf_counter() - started
        restore(patches)
        record = tracer.snapshot()
        record["wall_s"] = wall_s
        record["memo"] = {
            name: {"hits": stats.hits, "misses": stats.misses}
            for name, stats in memo_stats().items()
        }
        out_path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
