"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, procs, tracing  # noqa: E402
from perfbench.workloads import ServeMix, grid_inputs, mix_shares  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- seeded generators ---------------------------------------------------------


def test_grid_inputs_are_a_function_of_the_seed() -> None:
    assert grid_inputs(7) == grid_inputs(7)
    assert grid_inputs(7) != grid_inputs(8)


def test_serve_mix_is_a_function_of_the_seed() -> None:
    def requests(seed: int) -> list:
        mix = iter(ServeMix(seed))
        return [next(mix).request for _ in range(300)]

    assert requests(3) == requests(3)
    assert requests(3) != requests(4)


def test_serve_mix_cold_items_are_unique_and_shares_are_near_target() -> None:
    mix = iter(ServeMix(5))
    batches = [next(mix) for _ in range(2000)]
    cold = [item for b in batches for item, hot in zip(b.items, b.hot) if not hot]
    assert len(cold) == len(set(cold))
    shares = mix_shares(batches)
    assert 0.77 <= shares["hot"] <= 0.83
    assert 0.27 <= shares["recommend_batches"] <= 0.33
    assert abs(shares["sbr"] + shares["ccfc"] + shares["obr"] - 1.0) < 1e-9
    for batch in batches:
        for item in batch.items:
            fields = json.loads(item)
            if fields.get("exact"):
                assert fields["size"] <= 8 << 20


# -- reference-kernel units ----------------------------------------------------


def test_yardstick_averages_the_samples_in_or_nearest_an_interval() -> None:
    stick = procs.Yardstick(cpu=0)  # not started: samples are set by hand
    stick.times = [float(t) for t in range(20)]
    stick.costs = [1.0] * 10 + [3.0] * 10
    assert stick.ref_s(2.0, 12.0) == pytest.approx(17.0 / 11.0)  # samples 2..12
    # Fewer than MIN_SAMPLES inside: the nearest ones, clamped at the ends.
    assert stick.ref_s(9.5, 9.6) == pytest.approx(2.0)  # samples 6..13
    assert stick.ref_s(-5.0, -4.0) == pytest.approx(1.0)
    assert stick.ref_s(100.0, 101.0) == pytest.approx(3.0)


# -- self-time arithmetic -------------------------------------------------------


def test_self_time_of_a_nested_span_tree_with_same_layer_recursion() -> None:
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    # core.run [0, 10]
    #   cdn.handle (FCDN) [1, 9]
    #     http.parse [2, 3]
    #     cdn.handle (BCDN) [3, 8]
    #       origin.handle [4, 6]
    tracer.enter()                       # core at 0
    clock.now = 1; tracer.enter()        # fcdn
    clock.now = 2; tracer.enter()        # http
    clock.now = 3; tracer.exit("http:parse")
    tracer.enter()                       # bcdn at 3
    clock.now = 4; tracer.enter()        # origin
    clock.now = 6; tracer.exit("origin:handle")
    clock.now = 8; tracer.exit("cdn:handle")
    clock.now = 9; tracer.exit("cdn:handle")
    clock.now = 10; tracer.exit("core:run")

    spans = tracer.snapshot()["spans"]
    assert spans["cdn:handle"] == {"calls": 2, "self_s": 2 + 3, "total_s": 8 + 5}
    assert spans["origin:handle"]["self_s"] == 2
    assert spans["http:parse"]["self_s"] == 1
    assert spans["core:run"]["self_s"] == 2
    layers = tracing.layer_self_times(spans)
    assert layers == {"core": 2, "cdn": 5, "http": 1, "origin": 2}
    # Self times partition the root span; cumulative cdn time would not.
    assert sum(layers.values()) == 10


def test_counters_and_threads_merge() -> None:
    import threading

    tracer = tracing.Tracer()
    tracer.count("parts", 3)

    def work() -> None:
        tracer.enter()
        tracer.count("parts", 2)
        tracer.exit("http:x")

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    snapshot = tracer.snapshot()
    assert snapshot["counters"] == {"parts": 5}
    assert snapshot["spans"]["http:x"]["calls"] == 1


# -- wrappers ----------------------------------------------------------------------


def test_every_target_resolves_and_wrappers_restore_the_originals() -> None:
    import importlib

    import repro.cdn.node as node
    import repro.http.multipart as multipart
    import repro.http.ranges as ranges
    import repro.serve.server as server
    import repro.http.wire as wire

    originals = {}
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        originals[target] = (owner.__dict__ if owner_name else vars(module))[attr]
    by_name_parse = server.parse_request

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert ranges.parse_range_header is not originals[
            tracing.Target("http", "repro.http.ranges", "parse_range_header")]
        assert server.parse_request is not by_name_parse  # imported by name
        assert "__wrapped__" in vars(node.CdnNode.__dict__["handle"])
        spec = ranges.parse_range_header("bytes=0-0,1-1")
        assert spec.is_multi
        assert isinstance(multipart.MultipartByteranges.__dict__["build"], classmethod)
    finally:
        tracing.restore(patches)

    for target, original in originals.items():
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        current = (owner.__dict__ if owner_name else vars(module))[attr]
        assert current is original, target
    assert server.parse_request is by_name_parse is wire.parse_request
    assert tracer.snapshot()["spans"]["http:parse_range_header"]["calls"] == 1


# -- serve comparison -----------------------------------------------------------------


@pytest.fixture(scope="module")
def reference() -> checks.ServeReference:
    return checks.ServeReference()


def _answer(batch) -> bytes:
    from repro.http.wire import parse_request
    from repro.serve.app import AnalysisService

    return AnalysisService().handle(parse_request(batch.request)).body.materialize()


def test_serve_comparison_accepts_the_right_body(reference) -> None:
    batch = next(iter(ServeMix(1)))
    assert reference.check(batch, 200, _answer(batch)) is None


def test_serve_comparison_flags_a_corrupted_body(reference) -> None:
    batch = next(iter(ServeMix(1)))
    body = _answer(batch)
    corrupted = body.replace(b'"factor_bound":', b'"factor_bound":1', 1)
    assert corrupted != body
    assert "differs" in reference.check(batch, 200, corrupted)
    assert "503" in reference.check(batch, 503, b'{"error":"draining"}')
    degraded = body.replace(b'"degraded":false', b'"degraded":true', 1)
    assert "degraded" in reference.check(batch, 200, degraded)
