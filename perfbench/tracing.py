"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions listed in :data:`TARGETS`
(one layer each) so every call records a span; :func:`restore` puts the
originals back.  Nothing in the program changes, so the traced run
takes the same code paths as an untraced one (the fast path included).

Spans are aggregated as they close rather than kept one by one: per
span key the tracer keeps the call count, the self time (duration minus
the time covered by direct child spans) and the cumulative time.  A
layer's self time is the sum of its spans' self times; cumulative times
of a layer that nests in itself (``CdnNode.handle`` calls the next
``CdnNode.handle`` in a cascade) overlap and must not be summed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[["Tracer", Tuple[Any, ...], Any], None]


class Tracer:
    """Per-thread span stacks feeding per-thread aggregate tables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[Dict[str, List[float]], Dict[str, float]]] = []

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = {}
            local.counters = {}
            with self._lock:
                self._threads.append((local.spans, local.counters))
        return local

    def enter(self) -> None:
        self._state().stack.append([self.clock(), 0.0])

    def exit(self, key: str) -> None:
        end = self.clock()
        local = self._state()
        start, covered = local.stack.pop()
        duration = end - start
        if local.stack:
            local.stack[-1][1] += duration
        row = local.spans.get(key)
        if row is None:
            row = local.spans[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration - covered
        row[2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        """Merged tables of every thread: spans and counters."""
        spans: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for thread_spans, thread_counters in threads:
            for key, (calls, self_s, total_s) in thread_spans.items():
                row = spans.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += calls
                row["self_s"] += self_s
                row["total_s"] += total_s
            for name, value in thread_counters.items():
                counters[name] = counters.get(name, 0) + value
        return {"spans": spans, "counters": counters}


def layer_self_times(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds per layer from span keys of the form ``layer:function``."""
    layers: Dict[str, float] = {}
    for key, row in spans.items():
        layer = key.split(":", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return layers


# -- counter hooks (run after the span closes) --------------------------------


def _count_parts(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("http.multipart.parts", len(args[0].parts))


def _count_origin_bytes(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("origin.response_bytes", result.wire_size())


def _count_fastpath(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    stats = result.fastpath
    tracer.count("runner.cells", result.cell_count)
    if stats is not None:
        tracer.count("runner.fastpath.answered", stats.answered)
        tracer.count("runner.fastpath.calibration_sims", stats.calibration_runs)


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    qualname: str
    hook: Optional[Hook] = None


def _targets(layer: str, module: str, *names: str) -> List[Target]:
    return [Target(layer, module, name) for name in names]


#: The public functions at each layer boundary.
TARGETS: Tuple[Target, ...] = tuple(
    _targets("http", "repro.http.ranges", "parse_range_header")
    + _targets("http", "repro.http.multipart",
               "MultipartByteranges.build", "MultipartByteranges.parse")
    + [Target("http", "repro.http.multipart", "MultipartByteranges.to_body",
              _count_parts)]
    + _targets("http", "repro.http.wire", "parse_request", "parse_response")
    + _targets("http", "repro.http.message",
               "HttpRequest.serialize", "HttpResponse.serialize")
    + _targets("http", "repro.http.headers", "Headers.parse")
    + _targets("cdn", "repro.cdn.node", "CdnNode.handle")
    + [Target("origin", "repro.origin.server", "OriginServer.handle",
              _count_origin_bytes)]
    + _targets("netsim", "repro.netsim.connection", "Connection.exchange")
    + _targets("netsim.bandwidth", "repro.netsim.bandwidth", "FluidSimulator.run")
    + _targets("netsim.bandwidth", "repro.netsim.discrete",
               "ProcessorSharingLink.run")
    + _targets("core", "repro.core.sbr", "SbrAttack.run")
    + _targets("core", "repro.core.obr",
               "ObrAttack.run", "ObrAttack.find_max_n", "ObrAttack.probe")
    + _targets("core", "repro.core.ccfc", "CcfcAttack.run", "CcfcAttack.mirror")
    + _targets("core", "repro.core.practical", "BandwidthAttackSimulation.run")
    + _targets("core.vectorized", "repro.core.vectorized",
               "SbrFastEngine.measure", "SbrFastEngine.measure_many",
               "ObrFastEngine.measure", "ObrFastEngine.model_for",
               "CcfcFastEngine.measure")
    + _targets("runner.fastpath", "repro.runner.fastpath",
               "FastPathPlanner.plan", "FastPathPlanner.answer",
               "FastPathPlanner.validate")
    + [Target("runner", "repro.runner.runall", "run_all", _count_fastpath)]
    + _targets("runner", "repro.runner.memo", "Memo.get_or_compute")
    + _targets("analysis.classify", "repro.analysis.classify",
               "classify_sbr", "classify_obr_frontend", "classify_obr_backend",
               "classify_cascade", "classify_ccfc")
    + _targets("analysis.bounds", "repro.analysis.bounds",
               "sbr_bound", "profile_sbr_bound", "faulted_sbr_bound",
               "static_max_n", "obr_bound", "profile_ccfc_bound", "ccfc_bound")
    + _targets("analysis.recommend", "repro.analysis.recommend",
               "recommend", "sbr_residual_bound", "sbr_faulted_residual_bound",
               "ccfc_residual_bound", "obr_residual_bound")
    + _targets("analysis", "repro.analysis.report",
               "analyze_vendor_matrix", "analyze_deployment")
    + _targets("serve", "repro.serve.app", "AnalysisService.handle")
)


def _wrap(fn: Callable[..., Any], tracer: Tracer, key: str,
          hook: Optional[Hook]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(key)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


@dataclass
class Patches:
    """What :func:`install` replaced, for :func:`restore`."""

    #: (class, attribute, original descriptor)
    methods: List[Tuple[type, str, Any]]
    #: (original function, wrapper)
    functions: List[Tuple[Any, Any]]


def _program_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]


def install(tracer: Tracer) -> Patches:
    """Wrap every target; module functions are also replaced in every
    loaded ``repro`` module that imported them by name."""
    patches = Patches([], [])
    for target in TARGETS:
        module = importlib.import_module(target.module)
        key = f"{target.layer}:{target.qualname}"
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(_wrap(raw.__func__, tracer, key, target.hook))
            else:
                wrapped = _wrap(raw, tracer, key, target.hook)
            patches.methods.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _wrap(original, tracer, key, target.hook)
        patches.functions.append((original, wrapped))
        for loaded in _program_modules():
            for name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, name, wrapped)
    return patches


def restore(patches: Patches) -> None:
    """Undo :func:`install`, including in modules imported since."""
    for owner, attr, raw in reversed(patches.methods):
        setattr(owner, attr, raw)
    by_wrapper = {id(wrapped): original for original, wrapped in patches.functions}
    for loaded in _program_modules():
        for name, value in list(vars(loaded).items()):
            original = by_wrapper.get(id(value))
            if original is not None:
                setattr(loaded, name, original)
