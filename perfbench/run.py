"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program exactly as
users run it; ``--trace 1`` runs the same work once untraced and once
under :mod:`perfbench.launch` and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print the same metrics for people, with the failed fraction and the
measured input mix.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, procs, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    GridInputs,
    ServeMix,
    grid_inputs,
    mix_shares,
)

#: Setup samples taken per run (the reported setup_s is their median).
#: They are spread over the run, because the host's speed changes from
#: one second to the next.
SETUP_SAMPLES = 7
#: setup_s is given in seconds of a CPU that runs the reference kernel in
#: 1 ms, i.e. in thousands of ref.
SECONDS_PER_REF = 0.001
LAUNCHER = ["perfbench/launch.py"]

Metric = Tuple[float, str]


@dataclass
class Run:
    """One benchmark invocation: its scratch space and its tallies."""

    seed: int
    seconds: float
    scratch: Path
    placement: procs.Placement
    yardstick: procs.Yardstick
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def op(self, failures: List[str]) -> None:
        """Count one attempted operation and whatever went wrong in it."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def python(self, args: List[str], name: str) -> Tuple[procs.Finished, Path]:
        """Run one program process and count it as an operation."""
        out = self.scratch / f"{name}.out"
        finished = procs.run_python(ROOT, args, out, self.placement.program)
        self.op([] if finished.code == 0 else [f"{name}: exit code {finished.code}"])
        return finished, out

    def cost_ref(self, finished: procs.Finished) -> float:
        """The process's CPU time in reference-kernel units."""
        return finished.cpu_s / self.yardstick.ref_s(finished.started, finished.ended)

    def setup(self, started: float, wall_s: float) -> Tuple[float, float]:
        """(setup_s, raw wall seconds) of one spawn that was ready after
        ``wall_s``."""
        ref_s = self.yardstick.ref_s(started, started + wall_s)
        return wall_s / ref_s * SECONDS_PER_REF, wall_s


# -- grid workloads -----------------------------------------------------------


def _tail(latencies: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest of p99/p90 with at least ten
    samples beyond it (nearest rank); with fewer samples no percentile
    above the median qualifies, and the median is returned."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in (0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q, ordered[math.ceil(q * n) - 1]
    return 0.5, statistics.median(ordered)


def _setup_sample(run: Run) -> Tuple[float, float]:
    probe = procs.import_probe(ROOT, run.scratch, run.placement.program)
    run.op([] if probe.code == 0 else [f"import probe exit {probe.code}"])
    return run.setup(probe.started, probe.wall_s)


def _setup_metric(run: Run, samples: List[Tuple[float, float]]) -> Metric:
    run.notes.append(f"setup: {statistics.median(wall for _, wall in samples):.4f} s wall "
                     f"(median of {len(samples)})")
    return statistics.median(setup for setup, _ in samples), "s"


def _prefix(run: Run, name: str, traced: bool) -> List[str]:
    """How to start the program: plainly, or under the traced launcher."""
    if traced:
        return LAUNCHER + [str(run.scratch / f"{name}.spans.json")]
    return ["-m", "repro"]


def _run_all(run: Run, inputs: GridInputs, exact: bool, name: str,
             traced: bool = False) -> Tuple[procs.Finished, Dict[str, str]]:
    out_dir = run.scratch / name
    args = inputs.run_all_args(exact) + ["--output-dir", str(out_dir)]
    finished, _ = run.python(_prefix(run, name, traced) + args, name)
    return finished, checks.artifact_digests(out_dir) if out_dir.is_dir() else {}


def _analysis(run: Run, inputs: GridInputs, command: str, name: str,
              traced: bool = False) -> Tuple[procs.Finished, str]:
    args = [command, "--format", "json"] + inputs.sizes_args()
    finished, out = run.python(_prefix(run, name, traced) + args, name)
    return finished, out.read_text(encoding="utf-8")


@dataclass
class Round:
    processes: List[procs.Finished]
    costs: List[float]  # reference-kernel units, one per process
    digests: Dict[str, str]
    outputs: Tuple[str, ...] = ()

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.processes)

    @property
    def cost(self) -> float:
        return sum(self.costs)

    @property
    def rss_mb(self) -> float:
        return max(p.peak_rss_mb for p in self.processes)


def _round(run: Run, processes: List[procs.Finished], digests: Dict[str, str],
           outputs: Tuple[str, ...] = ()) -> Round:
    return Round(processes, [run.cost_ref(p) for p in processes], digests, outputs)


def _exact_round(run: Run, inputs: GridInputs, name: str, traced: bool = False) -> Round:
    finished, digests = _run_all(run, inputs, True, name, traced)
    return _round(run, [finished], digests)


def _fast_round(run: Run, inputs: GridInputs, name: str, traced: bool = False) -> Round:
    grid, digests = _run_all(run, inputs, False, f"{name}-runall", traced)
    analyze, analyze_out = _analysis(run, inputs, "analyze", f"{name}-analyze", traced)
    recommend, recommend_out = _analysis(run, inputs, "recommend", f"{name}-recommend", traced)
    return _round(run, [grid, analyze, recommend], digests, (analyze_out, recommend_out))


def _check_rounds(run: Run, inputs: GridInputs, rounds: List[Round],
                  reference: Round) -> None:
    """Every round's outputs equal the first's; the first matches the
    stored digests and the other mode's artifacts; analysis output
    matches the library."""
    first = rounds[0]
    failures = checks.seed_independent(first.digests)
    failures += checks.same_artifacts("fast vs --exact", reference.digests, first.digests)
    for index, other in enumerate(rounds[1:], start=1):
        failures += checks.same_artifacts(f"round {index}", first.digests, other.digests)
        if other.outputs != first.outputs:
            failures.append(f"round {index}: analyze/recommend output changed")
    if first.outputs:
        failures += checks.analysis_outputs(inputs, *first.outputs)
    run.op(failures)


def _grid(run: Run, exact: bool, trace: bool) -> Dict[str, Metric]:
    inputs = grid_inputs(run.seed)
    run.notes.append(
        f"inputs: --fault-seed {inputs.fault_seed} --size-mb {inputs.size_mb} "
        f"--obr-size {inputs.obr_size} --ccfc-size-mb {inputs.ccfc_size_mb}")
    measure, other = (_exact_round, _fast_round) if exact else (_fast_round, _exact_round)
    if trace:
        untraced = measure(run, inputs, "untraced")
        traced = measure(run, inputs, "traced", traced=True)
        _check_rounds(run, inputs, [untraced, traced], other(run, inputs, "reference"))
        records = [json.loads(path.read_text(encoding="utf-8"))
                   for path in sorted(run.scratch.glob("traced*.spans.json"))]
        return layer_metrics(records, traced.wall_s, traced.cost / untraced.cost - 1.0)

    setup: List[Tuple[float, float]] = []
    rounds: List[Round] = []
    started = time.perf_counter()
    # Start another round only if one more of median length still fits.
    while not rounds or (time.perf_counter() - started
                         + statistics.median(r.wall_s for r in rounds) <= run.seconds):
        setup.append(_setup_sample(run))
        rounds.append(measure(run, inputs, f"round{len(rounds)}"))
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(run))
    _check_rounds(run, inputs, rounds, other(run, inputs, "reference"))
    costs = [r.cost for r in rounds]
    labels = ("runall",) if exact else ("runall", "analyze", "recommend")
    for index, label in enumerate(labels):
        wall = statistics.median(r.processes[index].wall_s for r in rounds)
        cost = statistics.median(r.costs[index] for r in rounds)
        run.notes.append(f"{label}_s {wall:.4f} s wall, {cost:.1f} ref")
    q, tail = _tail(costs)
    run.notes.append(f"{len(rounds)} round(s) of " + " ".join(f"{c:.1f}" for c in costs)
                     + f" ref; latency is their median, tail their p{q * 100:g}")
    return {
        "setup_s": _setup_metric(run, setup),
        "latency_ref": (statistics.median(costs), "ref"),
        "tail_ref": (tail, "ref"),
        "throughput": (1000.0 * len(rounds) / sum(costs), "1/kref"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
    }


# -- serve workload -----------------------------------------------------------


def _serve_window(run: Run, mix: ServeMix, seconds: float,
                  launcher: Optional[List[str]] = None,
                  scrape: bool = False) -> Tuple[procs.LoadResult, procs.Finished, str]:
    server = procs.ServeProcess(ROOT, run.placement.program, launcher)
    try:
        # The clients share the server's CPU, so the yardstick times all
        # the work a batch's latency includes.
        load = procs.closed_loop(server.port, iter(mix), seconds, run.placement.program)
        metrics_text = procs.scrape(server.port) if scrape else ""
    finally:
        finished = server.stop()
    run.op([] if finished.code == 0 else [f"repro serve exit {finished.code}"])
    reference = checks.ServeReference()
    for sent in load.sent:
        failure = reference.check(sent.batch, sent.status, sent.body)
        run.op([failure] if failure else [])
    shares = mix_shares([sent.batch for sent in load.sent])
    run.notes.append("mix sent: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items())))
    return load, finished, metrics_text


def _serve(run: Run, trace: bool) -> Dict[str, Metric]:
    if trace:
        half = run.seconds / 2.0
        untraced, _, _ = _serve_window(run, ServeMix(run.seed), half)
        spans_path = run.scratch / "serve.spans.json"
        traced, _, prom = _serve_window(run, ServeMix(run.seed), half,
                                        LAUNCHER + [str(spans_path)], scrape=True)
        record = json.loads(spans_path.read_text(encoding="utf-8"))
        overhead = _serve_rate(run, untraced) / _serve_rate(run, traced) - 1.0
        return layer_metrics([record], traced.wall_s, overhead, prom)

    setup = [_serve_setup_sample(run) for _ in range(SETUP_SAMPLES // 2)]
    load, finished, _ = _serve_window(run, ServeMix(run.seed), run.seconds)
    setup += [_serve_setup_sample(run) for _ in range(SETUP_SAMPLES - len(setup))]
    walls = [sent.latency_s for sent in load.sent]
    latencies = [sent.latency_s / run.yardstick.ref_s(sent.sent_at, sent.sent_at + sent.latency_s)
                 for sent in load.sent]
    q, tail = _tail(latencies)
    wall_q, wall_tail = _tail(walls)
    run.notes.append(f"wall: serve_rps {len(walls) / load.wall_s:.1f} 1/s, serve_p50_ms "
                     f"{statistics.median(walls) * 1000.0:.3f} ms, serve_p{wall_q * 100:g}_ms "
                     f"{wall_tail * 1000.0:.3f} ms")
    run.notes.append(f"{len(latencies)} batches over 2 connections; "
                     f"latency is p50, tail is p{q * 100:g} ({len(latencies)} samples)")
    return {
        "setup_s": _setup_metric(run, setup),
        "latency_ref": (statistics.median(latencies), "ref"),
        "tail_ref": (tail, "ref"),
        "throughput": (_serve_rate(run, load), "1/kref"),
        "peak_rss_mb": (finished.peak_rss_mb, "MB"),
    }


def _serve_setup_sample(run: Run) -> Tuple[float, float]:
    server = procs.ServeProcess(ROOT, run.placement.program)
    finished = server.stop()
    run.op([] if finished.code == 0 else [f"repro serve exit {finished.code}"])
    return run.setup(server.started, server.setup_s)


def _serve_rate(run: Run, load: procs.LoadResult) -> float:
    """Batches answered per thousand reference-kernel times of wall time."""
    ref_s = run.yardstick.ref_s(load.started, load.started + load.wall_s)
    return 1000.0 * len(load.sent) * ref_s / load.wall_s


# -- per-layer metrics --------------------------------------------------------


def _prom_sum(text: str, family: str, **labels: str) -> float:
    """Sum of ``family`` samples whose labels include ``labels`` (a
    value ending in ``*`` matches as a prefix)."""
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(family + "{"):
            continue
        label_blob, _, value = line[len(family) + 1:].rpartition("} ")
        found = dict(
            part.split("=", 1) for part in label_blob.split(",") if "=" in part
        )
        found = {k: v.strip('"') for k, v in found.items()}
        if all(
            found.get(k, "").startswith(v[:-1]) if v.endswith("*") else found.get(k) == v
            for k, v in labels.items()
        ):
            total += float(value)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: List[dict], traced_wall_s: float, overhead: float,
                  prom: str = "") -> Dict[str, Metric]:
    """Per-layer metrics from launcher records (and a /metrics scrape)."""
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    memo_hits = memo_lookups = 0
    for record in records:
        for key, row in record["spans"].items():
            merged = spans.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for column, value in row.items():
                merged[column] += value
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, stats in record["memo"].items():
            if not name.startswith("serve_"):
                memo_hits += stats["hits"]
                memo_lookups += stats["hits"] + stats["misses"]
    layers = tracing.layer_self_times(spans)

    def calls(*keys: str) -> Metric:
        return float(sum(spans.get(key, {}).get("calls", 0) for key in keys)), "count"

    def self_s(layer: str) -> Metric:
        return layers.get(layer, 0.0), "s"

    def count(name: str) -> Metric:
        return float(counters.get(name, 0)), "count"

    serve_hits = _prom_sum(prom, "repro_memo_lookups_total", memo="serve_*", result="hit")
    serve_lookups = _prom_sum(prom, "repro_memo_lookups_total", memo="serve_*")
    return {
        "http.self_s": self_s("http"),
        "http.multipart.build_calls": calls("http:MultipartByteranges.to_body"),
        "http.multipart.parts": count("http.multipart.parts"),
        "http.parse_range_header.calls": calls("http:parse_range_header"),
        "http.wire.parse_calls": calls("http:parse_request", "http:parse_response"),
        "cdn.self_s": self_s("cdn"),
        "cdn.handle.calls": calls("cdn:CdnNode.handle"),
        "origin.self_s": self_s("origin"),
        "origin.handle.calls": calls("origin:OriginServer.handle"),
        "origin.response_bytes": (float(counters.get("origin.response_bytes", 0)), "bytes"),
        "netsim.self_s": self_s("netsim"),
        "netsim.exchange.calls": calls("netsim:Connection.exchange"),
        "netsim.bandwidth.self_s": self_s("netsim.bandwidth"),
        "core.self_s": self_s("core"),
        "core.vectorized.self_s": self_s("core.vectorized"),
        "runner.self_s": self_s("runner"),
        "runner.fastpath.self_s": self_s("runner.fastpath"),
        "runner.fastpath.hit_rate": (
            _ratio(counters.get("runner.fastpath.answered", 0),
                   counters.get("runner.cells", 0)), "ratio"),
        "runner.fastpath.calibration_sims": count("runner.fastpath.calibration_sims"),
        "runner.memo.hit_rate": (_ratio(memo_hits, memo_lookups), "ratio"),
        "analysis.self_s": self_s("analysis"),
        "analysis.classify.self_s": self_s("analysis.classify"),
        "analysis.bounds.self_s": self_s("analysis.bounds"),
        "analysis.recommend.self_s": self_s("analysis.recommend"),
        "analysis.static_max_n.calls": calls("analysis.bounds:static_max_n"),
        "serve.handle.self_s": self_s("serve"),
        "serve.handle.calls": calls("serve:AnalysisService.handle"),
        "serve.memo.hit_rate": (_ratio(serve_hits, serve_lookups), "ratio"),
        "serve.degraded": (_prom_sum(prom, "repro_serve_requests_total", outcome="degraded"), "count"),
        "serve.shed": (_prom_sum(prom, "repro_serve_requests_total", outcome="shed"), "count"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.attributed_frac": (_ratio(sum(layers.values()), traced_wall_s), "ratio"),
    }


# -- entry point --------------------------------------------------------------

WORKLOAD_RUNNERS: Dict[str, Callable[[Run, bool], Dict[str, Metric]]] = {
    "grid-exact": lambda run, trace: _grid(run, exact=True, trace=trace),
    "grid-fast": lambda run, trace: _grid(run, exact=False, trace=trace),
    "serve-mix": _serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))

    scratch = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    placement = procs.Placement()
    os.sched_setaffinity(0, placement.bench)  # threads started from here inherit it
    with procs.Yardstick(placement.program) as yardstick:
        run = Run(args.seed, args.seconds, scratch, placement, yardstick)
        metrics = WORKLOAD_RUNNERS[args.workload](run, bool(args.trace))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<34} {run.failed / max(1, run.attempted):>16.6g} "
          f"ratio ({run.failed}/{run.attempted})")
    for note in run.notes:
        print(f"  # {note}")
    for failure in run.failures[:20]:
        print(f"  FAIL {failure}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
