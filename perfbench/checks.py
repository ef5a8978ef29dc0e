"""Output checks.  Each returns a list of failure messages (empty: ok)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.workloads import MB, Batch, GridInputs

#: Digests of the run-all artifacts that do not depend on the seed
#: (Tables IV, V, VII, CCFC, Figs 6a and 7).
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"
#: Written by run-all but timing-dependent, so never compared.
UNCOMPARED = frozenset({"BENCH_runall.json"})


def artifact_digests(directory: Path) -> Dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file() and path.name not in UNCOMPARED
    }


def same_artifacts(label: str, reference: Dict[str, str],
                   candidate: Dict[str, str]) -> List[str]:
    if candidate == reference:
        return []
    differing = sorted(
        name for name in set(reference) | set(candidate)
        if reference.get(name) != candidate.get(name)
    )
    return [f"{label}: artifacts differ: {', '.join(differing)}"]


def seed_independent(digests: Dict[str, str]) -> List[str]:
    expected = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))
    return [
        f"{name}: digest {digests.get(name)} != expected {digest}"
        for name, digest in sorted(expected.items())
        if digests.get(name) != digest
    ]


def analysis_outputs(inputs: GridInputs, analyze_out: str,
                     recommend_out: str) -> List[str]:
    """The CLIs' JSON must equal the library's report for the same sizes."""
    from repro.analysis.recommend import recommend
    from repro.analysis.report import analyze_vendor_matrix

    sizes = dict(
        resource_size=inputs.size_mb * MB,
        obr_resource_size=inputs.obr_size,
        ccfc_resource_size=inputs.ccfc_size_mb * MB,
    )
    failures = []
    if analyze_out != analyze_vendor_matrix(**sizes).to_json() + "\n":
        failures.append("analyze --format json differs from analyze_vendor_matrix")
    report = recommend(**sizes)
    if not report.all_resolved:
        failures.append("recommend left findings unresolved")
    if recommend_out != report.to_json() + "\n":
        failures.append("recommend --format json differs from recommend()")
    return failures


class ServeReference:
    """Answers batches with ``AnalysisService.handle`` in this process."""

    def __init__(self) -> None:
        from repro.http.wire import parse_request
        from repro.serve.app import AnalysisService

        self._parse = parse_request
        self._service = AnalysisService()

    def check(self, batch: Batch, status: Optional[int], body: bytes) -> Optional[str]:
        """A failure message, or None when the reply is right."""
        if status != 200:
            detail = body[:200].decode("utf-8", "replace")
            return f"/v1/{batch.endpoint} answered {status}: {detail}"
        try:
            reply = json.loads(body)
        except ValueError:
            return f"/v1/{batch.endpoint} answered non-JSON"
        if reply.get("partial") or reply.get("degraded"):
            return f"/v1/{batch.endpoint} answered partial/degraded"
        expected = self._service.handle(self._parse(batch.request))
        if body != expected.body.materialize():
            return f"/v1/{batch.endpoint} body differs from the in-process answer"
        return None
