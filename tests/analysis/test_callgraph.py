"""Tests for the whole-program call-graph builder.

Three layers: resolution mechanics against the ``purity_demo`` fixture
tree and small synthetic packages (imports, annotations, relative
imports, registry dispatch), and structural spot checks against the
live ``src/repro`` tree — the edges the purity analyzer's verdicts
hang off must actually exist.
"""

from pathlib import Path

import pytest

from repro.analysis.callgraph import (
    CallGraph,
    CallGraphError,
    build_callgraph,
)
from repro.analysis.purity import default_config

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "purity_demo"


@pytest.fixture(scope="module")
def demo() -> CallGraph:
    return build_callgraph(root=FIXTURE_ROOT, package="purity_demo")


@pytest.fixture(scope="module")
def repo() -> CallGraph:
    return build_callgraph(dispatch=default_config().dispatch_map())


def _callees(graph: CallGraph, qualname: str) -> set:
    return {site.callee for site in graph.node(qualname).calls}


class TestFixtureResolution:
    def test_all_functions_collected(self, demo: CallGraph) -> None:
        assert "purity_demo.metrics.stamp" in demo
        assert "purity_demo.journal.Journal.write" in demo
        assert "purity_demo.pipeline.flush" in demo
        assert "purity_demo.clocked.now" in demo

    def test_module_level_call_resolution(self, demo: CallGraph) -> None:
        assert "time.time" in _callees(demo, "purity_demo.metrics.stamp")

    def test_annotation_driven_method_resolution(self, demo: CallGraph) -> None:
        # flush(journal: Journal) -> journal.write resolves via the
        # parameter annotation.
        callees = _callees(demo, "purity_demo.pipeline.flush")
        assert "purity_demo.journal.Journal.write" in callees
        assert "purity_demo.metrics.stamp" in callees

    def test_conditional_expression_resolves_both_branches(
        self, demo: CallGraph
    ) -> None:
        # (clock if clock is not None else time.time)() — the injected
        # clock idiom — must surface the wall-clock branch.
        assert "time.time" in _callees(demo, "purity_demo.clocked.now")

    def test_callers_of(self, demo: CallGraph) -> None:
        callers = demo.callers_of("purity_demo.journal.Journal.write")
        assert "purity_demo.pipeline.flush" in callers
        assert "purity_demo.pipeline.flush_via_facade" in callers

    def test_rel_paths_are_posix_relative(self, demo: CallGraph) -> None:
        node = demo.node("purity_demo.pipeline.flush")
        assert node.rel_path == "pipeline.py"
        assert node.line > 0


class TestSyntheticTrees:
    def test_relative_import_resolution(self, tmp_path: Path) -> None:
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "helper.py").write_text(
            "def helper_fn():\n    return 1\n", encoding="utf-8"
        )
        (package / "sub" / "__init__.py").write_text("", encoding="utf-8")
        (package / "sub" / "user.py").write_text(
            "from ..helper import helper_fn\n\n"
            "def use():\n    return helper_fn()\n",
            encoding="utf-8",
        )
        graph = build_callgraph(root=package, package="pkg")
        assert "pkg.helper.helper_fn" in _callees(graph, "pkg.sub.user.use")

    def test_instance_attribute_type_harvesting(self, tmp_path: Path) -> None:
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "mod.py").write_text(
            "class Engine:\n"
            "    def start(self):\n"
            "        return 1\n"
            "\n"
            "class Car:\n"
            "    def __init__(self):\n"
            "        self.engine = Engine()\n"
            "    def drive(self):\n"
            "        return self.engine.start()\n",
            encoding="utf-8",
        )
        graph = build_callgraph(root=package, package="pkg")
        assert "pkg.mod.Engine.start" in _callees(graph, "pkg.mod.Car.drive")

    def test_registry_dispatch_expansion(self, tmp_path: Path) -> None:
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "reg.py").write_text(
            "_REGISTRY = {}\n"
            "\n"
            "def register(name, fn):\n"
            "    _REGISTRY[name] = fn\n"
            "\n"
            "def handler_a():\n    return 'a'\n"
            "\n"
            "def dispatch(name):\n"
            "    return _REGISTRY[name]()\n"
            "\n"
            "register('a', handler_a)\n",
            encoding="utf-8",
        )
        graph = build_callgraph(
            root=package,
            package="pkg",
            dispatch={"pkg.reg.dispatch": ["@registered:pkg.reg"]},
        )
        assert "pkg.reg.handler_a" in _callees(graph, "pkg.reg.dispatch")

    def test_missing_root_rejected(self, tmp_path: Path) -> None:
        with pytest.raises(CallGraphError):
            build_callgraph(root=tmp_path / "nope")


class TestLiveRepoEdges:
    """The determinism contracts hang off these edges existing."""

    def test_scale(self, repo: CallGraph) -> None:
        assert repo.module_count > 80
        assert len(repo) > 700
        assert repo.edge_count > 2000

    def test_checkpoint_write_edge(self, repo: CallGraph) -> None:
        # GridRunner._record -> RunCheckpoint.record via the
        # Optional["RunCheckpoint"] parameter annotation.
        assert "repro.runner.checkpoint.RunCheckpoint.record" in _callees(
            repo, "repro.runner.executor.GridRunner._record"
        )

    def test_injected_clock_read(self, repo: CallGraph) -> None:
        assert "time.time" in _callees(repo, "repro.obs.runlog._new_record")

    def test_registry_dispatch_reaches_cells(self, repo: CallGraph) -> None:
        callees = _callees(repo, "repro.runner.experiments.execute_cell")
        assert "repro.runner.experiments._run_sbr_cell" in callees
        assert "repro.runner.experiments._run_flood_cell" in callees

    @pytest.mark.parametrize(
        "root",
        [
            "repro.analysis.recommend.recommend",
            "repro.analysis.report.analyze_vendor_matrix",
            "repro.serve.app.AnalysisService.handle",
        ],
    )
    def test_family_registry_is_seen_through(self, repo: CallGraph, root: str) -> None:
        # Consumers call family records through the Family base class;
        # the declared dispatch must keep the classifiers, bounds and
        # residuals behind them reachable.
        reached = set()
        stack = [root]
        while stack:
            qualname = stack.pop()
            if qualname in reached or qualname not in repo:
                continue
            reached.add(qualname)
            stack.extend(site.callee for site in repo.node(qualname).calls)
        expected = {
            "repro.analysis.classify.classify_cascade",
            "repro.analysis.classify.classify_ccfc",
            "repro.analysis.bounds.sbr_bound",
        }
        if root != "repro.analysis.report.analyze_vendor_matrix":
            expected |= {
                f"repro.analysis.recommend.{name}"
                for name in (
                    "sbr_residual_bound",
                    "sbr_faulted_residual_bound",
                    "ccfc_residual_bound",
                    "obr_residual_bound",
                )
            }
        assert expected <= reached

    def test_seeded_random_distinguished(self, repo: CallGraph) -> None:
        # RangeCorpusGenerator holds a random.Random(seed); its calls
        # resolve to instance methods, not the module-level RNG.
        node = repo.node(
            "repro.http.grammar.RangeCorpusGenerator.single_range_cases"
        )
        randoms = {
            site.callee
            for site in node.calls
            if site.callee.startswith("random.")
        }
        assert randoms
        assert all(r.startswith("random.Random.") for r in randoms)
