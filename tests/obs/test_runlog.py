"""Tests for the persistent run ledger: record determinism, the strict
loader, ledger append/load/resolve, and cross-run diff gating."""

import json

import pytest

from repro.obs.runlog import (
    RUNLOG_SCHEMA_VERSION,
    CellRecord,
    RunLedger,
    RunLogError,
    RunRecord,
    config_digest,
    diff_runs,
    record_from_analysis,
    record_from_dict,
    record_from_json,
    record_from_runall,
)


#: A full set of fast-path counters, as the strict loader requires.
FASTPATH = {
    "answered": 3,
    "refused": 0,
    "ineligible": 1,
    "validated": 1,
    "calibration_runs": 2,
    "hit_rate": 0.75,
}


def _record(
    run_id="a" * 16,
    label="run-all-quick",
    cells=(),
    factors=None,
    started_at=1000.0,
    wall_s=2.5,
    phase_seconds=None,
    fastpath=FASTPATH,
):
    config = {"quick": True}
    return RunRecord(
        schema_version=RUNLOG_SCHEMA_VERSION,
        run_id=run_id,
        command="run-all",
        label=label,
        started_at=started_at,
        wall_s=wall_s,
        workers=2,
        cell_count=len(cells),
        config=config,
        config_digest=config_digest(config),
        phase_seconds=dict(phase_seconds or {"grid": 2.0}),
        cells=tuple(cells),
        factors=dict(factors or {}),
        fastpath=dict(fastpath) if fastpath is not None else None,
        metrics={},
        artifacts={"table4.txt": "0" * 64},
    )


def _cell(label, seconds, experiment="sbr", ok=True):
    return CellRecord(label=label, experiment=experiment, seconds=seconds, ok=ok)


class TestRecordDeterminism:
    def test_fixed_clock_yields_byte_identical_records(self):
        from repro.analysis.report import analyze_vendor_matrix

        report = analyze_vendor_matrix()
        clock = lambda: 1234.5  # noqa: E731
        first = record_from_analysis(report, {"size_mb": 10}, wall_s=1.0, clock=clock)
        second = record_from_analysis(report, {"size_mb": 10}, wall_s=1.0, clock=clock)
        assert first.to_json() == second.to_json()
        assert first.run_id == second.run_id

    def test_round_trip_through_strict_loader_is_lossless(self):
        record = _record(
            cells=[_cell("sbr[akamai, 1MB]", 0.25)],
            factors={"sbr:akamai:1048576": 724.0},
        )
        loaded = record_from_json(record.to_json())
        assert loaded == record
        assert loaded.to_json() == record.to_json()

    def test_serialization_is_canonical(self):
        line = _record().to_json()
        payload = json.loads(line)
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert "\n" not in line


class TestStrictLoader:
    def test_missing_field_raises(self):
        payload = _record().to_dict()
        del payload["wall_s"]
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_unknown_schema_version_raises(self):
        payload = _record().to_dict()
        payload["schema_version"] = RUNLOG_SCHEMA_VERSION + 1
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_bool_in_numeric_field_raises(self):
        payload = _record().to_dict()
        payload["wall_s"] = True
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_non_numeric_factor_raises(self):
        payload = _record().to_dict()
        payload["factors"] = {"sbr:akamai:1048576": "big"}
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_cells_must_be_an_array_of_objects(self):
        payload = _record().to_dict()
        payload["cells"] = "oops"
        with pytest.raises(RunLogError):
            record_from_dict(payload)
        payload["cells"] = ["oops"]
        with pytest.raises(RunLogError):
            record_from_dict(payload)

    def test_non_json_line_raises(self):
        with pytest.raises(RunLogError):
            record_from_json("{truncated")

    def test_malformed_fastpath_raises(self):
        payload = _record().to_dict()
        del payload["fastpath"]["hit_rate"]
        with pytest.raises(RunLogError, match="missing 'hit_rate'"):
            record_from_dict(payload)
        payload["fastpath"] = [3, 0.75]
        with pytest.raises(RunLogError, match="'fastpath' must be an object"):
            record_from_dict(payload)

    def test_bool_fastpath_count_raises(self):
        # bool subclasses int; a stray true in a counter must fail.
        payload = _record().to_dict()
        payload["fastpath"]["answered"] = True
        with pytest.raises(RunLogError, match="'answered' must be int"):
            record_from_dict(payload)

    def test_corrupt_sole_line_is_named_not_skipped(self, tmp_path):
        # Without an intact record before it, a malformed last line is
        # corruption, not a torn append.
        path = tmp_path / "BENCH_runall.json"
        path.write_text("not json at all", encoding="utf-8")
        with pytest.raises(RunLogError, match=r"BENCH_runall\.json:1: .*not JSON"):
            RunLedger(path).load()

    def test_int_accepted_where_float_expected(self):
        payload = _record().to_dict()
        payload["fastpath"]["hit_rate"] = 1
        record = record_from_dict(payload)
        assert record.hit_rate == 1.0 and isinstance(record.hit_rate, float)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_numbers_raise(self, value):
        # A NaN wall, phase or hit rate would pass every gate comparison.
        line = _record().to_json()
        for field in ('"wall_s":2.5', '"grid":2.0', '"hit_rate":0.75'):
            key = field.split(":")[0]
            with pytest.raises(RunLogError, match="must be finite"):
                record_from_json(line.replace(field, f"{key}:{value}"))


class TestRunLedger:
    def test_append_then_load_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path / "runlog.jsonl")
        first = _record(run_id="f" * 16)
        second = _record(run_id="0" * 16)
        ledger.append(first)
        ledger.append(second)
        assert ledger.load() == [first, second]
        assert len(ledger) == 2

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").load() == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 1, "run_id"')  # killed writer
        assert len(ledger.load()) == 1

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("corrupt\n")
        ledger.append(_record(run_id="b" * 16))
        with pytest.raises(RunLogError):
            ledger.load()

    def test_resolve_by_index_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "runlog.jsonl")
        first = _record(run_id="aaaa000000000000")
        second = _record(run_id="bbbb000000000000")
        ledger.append(first)
        ledger.append(second)
        assert ledger.resolve("0") == first
        assert ledger.resolve("-1") == second
        assert ledger.resolve("bbbb") == second

    def test_resolve_errors(self, tmp_path):
        ledger = RunLedger(tmp_path / "runlog.jsonl")
        with pytest.raises(RunLogError):
            ledger.resolve("0")  # empty ledger
        ledger.append(_record(run_id="aaaa000000000000"))
        ledger.append(_record(run_id="aabb000000000000"))
        with pytest.raises(RunLogError):
            ledger.resolve("5")  # out of range
        with pytest.raises(RunLogError):
            ledger.resolve("aa")  # ambiguous prefix
        with pytest.raises(RunLogError):
            ledger.resolve("zz")  # no match


class TestDiffRuns:
    def test_identical_runs_pass_the_gate(self):
        record = _record(
            cells=[_cell("a", 1.0), _cell("b", 0.2)],
            factors={"sbr:akamai:1048576": 724.0},
        )
        diff = diff_runs(record, record)
        assert diff.ok
        assert diff.gate_failures() == []
        assert diff.timing_regressions() == ()
        assert diff.factor_regressions() == ()

    def test_synthetically_slowed_cell_fails_the_gate(self):
        before = _record(cells=[_cell("a", 1.0), _cell("b", 0.2)])
        after = _record(cells=[_cell("a", 2.0), _cell("b", 0.2)])
        diff = diff_runs(before, after, threshold=0.5, min_seconds=0.1)
        assert not diff.ok
        (regression,) = diff.timing_regressions()
        assert regression.label == "a"
        assert regression.ratio == 2.0
        assert any("slowed" in failure for failure in diff.gate_failures())

    def test_fast_cells_below_min_seconds_never_gate(self):
        before = _record(cells=[_cell("a", 0.001)])
        after = _record(cells=[_cell("a", 0.05)])  # 50x, but trivial
        diff = diff_runs(before, after, threshold=0.5, min_seconds=0.1)
        assert diff.ok

    def test_factor_drift_fails_in_either_direction(self):
        before = _record(factors={"sbr:akamai:1048576": 724.0})
        lower = _record(factors={"sbr:akamai:1048576": 700.0})
        diff = diff_runs(before, lower)
        assert not diff.ok
        (drift,) = diff.factor_regressions()
        assert drift.key == "sbr:akamai:1048576"
        assert drift.relative < 0

    def test_added_and_removed_cells_reported_not_gated(self):
        before = _record(cells=[_cell("a", 1.0)])
        after = _record(cells=[_cell("b", 1.0)])
        diff = diff_runs(before, after)
        assert diff.added_cells == ("b",)
        assert diff.removed_cells == ("a",)
        assert diff.ok

    def test_negative_thresholds_rejected(self):
        record = _record()
        with pytest.raises(RunLogError):
            diff_runs(record, record, threshold=-1.0)
        with pytest.raises(RunLogError):
            diff_runs(record, record, min_seconds=-1.0)

    @pytest.mark.parametrize(
        "keyword", ["threshold", "min_seconds", "factor_tolerance"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_thresholds_rejected(self, keyword, value):
        # A NaN threshold makes every comparison false, so it would pass
        # any slowdown.
        record = _record()
        with pytest.raises(RunLogError, match="finite"):
            diff_runs(record, record, **{keyword: value})

    def test_lost_fastpath_fails_the_gate(self):
        diff = diff_runs(_record(), _record(fastpath=None), threshold=1.0)
        assert diff.gate_failures() == [
            "after run has no fast-path counters (was it --exact?)"
        ]
        # Going the other way (exact before, fast after) is no regression.
        assert diff_runs(_record(fastpath=None), _record()).ok

    def test_hit_rate_drop_fails_the_gate(self):
        lower = dict(FASTPATH, answered=2, hit_rate=0.5)
        diff = diff_runs(_record(), _record(fastpath=lower), threshold=1.0)
        assert diff.gate_failures() == [
            "fast-path hit rate dropped 0.750 -> 0.500"
        ]

    def test_wall_clock_regression_fails_the_gate(self):
        before = _record(wall_s=1.0)
        assert diff_runs(before, _record(wall_s=2.0), threshold=1.0).ok
        diff = diff_runs(before, _record(wall_s=2.5), threshold=1.0)
        assert diff.gate_failures() == [
            "wall clock slowed 2.50x (1.000s -> 2.500s)"
        ]

    def test_measure_regression_fails_the_gate(self):
        before = _record(phase_seconds={"measure": 0.1})
        same = _record(phase_seconds={"measure": 0.2})
        assert diff_runs(before, same, threshold=1.0).ok
        slower = _record(phase_seconds={"measure": 0.25})
        diff = diff_runs(before, slower, threshold=1.0)
        assert diff.gate_failures() == [
            "measure phase slowed 2.50x (0.100s -> 0.250s)"
        ]

    def test_missing_measure_fails_the_gate(self):
        before = _record(phase_seconds={"measure": 0.1})
        diff = diff_runs(before, _record(), threshold=1.0)
        assert diff.gate_failures() == [
            "after run has no measure phase (before 0.100s)"
        ]
        assert diff_runs(_record(), before).ok


class TestRunallRecord:
    def test_quick_runall_record_round_trips(self):
        from repro.runner.runall import run_all

        report = run_all(workers=1, quick=True)
        record = record_from_runall(
            report, "run-all-quick", {"quick": True}, wall_s=1.0,
            clock=lambda: 42.0,
        )
        assert record.command == "run-all"
        assert record.cell_count == report.cell_count
        assert record.fastpath is not None
        assert record.fastpath["answered"] == report.fastpath.answered
        assert any(key.startswith("sbr:") for key in record.factors)
        assert any(key.startswith("obr:") for key in record.factors)
        assert record.phase_seconds.keys() == report.phase_seconds.keys() | {
            "measure"
        }
        # measure = fastpath + validate + the measurement cells' seconds.
        cell_seconds = sum(
            cell.duration_s
            for cell in report.cells
            if cell.experiment in ("sbr", "obr", "ccfc", "sbr-faults")
        )
        assert record.measure_s == pytest.approx(
            report.phase_seconds["fastpath"]
            + report.phase_seconds["validate"]
            + cell_seconds
        )
        loaded = record_from_json(record.to_json())
        assert loaded == record
