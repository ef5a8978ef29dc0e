"""BENCH_runall.json is a run record: strict loading, run-all's copy, the gate.

``run-all --output-dir D`` writes its :class:`~repro.obs.runlog.RunRecord`
line to ``D/BENCH_runall.json``, and the copy committed at the repo root
is the CI speed baseline that ``repro obs diff --gate`` compares fresh
runs against.  Every comparison goes through the ledger's strict
loader, so it must reject anything it does not fully understand — an
unknown schema version, a missing field, a mistyped count — rather than
let the gate silently compare garbage.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.runlog import (
    BENCH_FILENAME,
    RUNLOG_SCHEMA_VERSION,
    RunLedger,
    RunLogError,
    artifact_digest,
    record_from_dict,
    record_from_json,
    record_from_runall,
)

BASELINE = Path(__file__).resolve().parents[2] / BENCH_FILENAME


def _baseline_payload(**overrides):
    payload = json.loads(BASELINE.read_text(encoding="utf-8"))
    payload.update(overrides)
    return payload


def _quick_run_all(directory, *extra):
    from repro.runner.memo import clear_all_memos

    clear_all_memos()
    argv = ["run-all", "--quick", "--workers", "1", "--no-progress"]
    assert main(argv + ["--output-dir", str(directory), *extra]) == 0
    return directory / BENCH_FILENAME


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """One quick fast-path run-all with both an output dir and a ledger."""
    root = tmp_path_factory.mktemp("fast")
    ledger = root / "runlog.jsonl"
    bench = _quick_run_all(root / "artifacts", "--runlog", str(ledger))
    return bench, ledger


def _ledger(tmp_path, payloads):
    path = tmp_path / "bench.jsonl"
    path.write_text(
        "".join(record_from_dict(p).to_json() + "\n" for p in payloads),
        encoding="utf-8",
    )
    return str(path)


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        """The committed baseline is one canonical ledger line carrying
        the numbers it was measured with."""
        (record,) = RunLedger(BASELINE).load()
        assert record.to_json() + "\n" == BASELINE.read_text(encoding="utf-8")
        assert record.command == "run-all"
        assert record.label == "run-all-quick"
        assert record.wall_s == 0.5156176450000203
        assert record.measure_s == 0.09001890500439913
        assert record.cell_count == 57
        assert record.fastpath is not None
        assert record.fastpath["answered"] == 54
        assert record.hit_rate == 0.9473684210526315

    def test_write_into_directory_uses_canonical_name(self, fast_run):
        """The record is built after the paper artifacts, so it digests
        every other file of the output directory."""
        bench, _ = fast_run
        assert bench.name == "BENCH_runall.json"
        (record,) = RunLedger(bench).load()
        others = sorted(p for p in bench.parent.iterdir() if p != bench)
        assert record.artifacts == {p.name: artifact_digest(p) for p in others}

    def test_exact_mode_round_trips_without_fastpath(self):
        record = record_from_dict(_baseline_payload(fastpath=None))
        assert record.fastpath is None
        assert record.hit_rate is None
        assert record_from_json(record.to_json()) == record

    def test_measure_phase_property(self):
        assert record_from_dict(_baseline_payload()).measure_s == pytest.approx(
            0.09001890500439913
        )
        assert record_from_dict(_baseline_payload(phase_seconds={})).measure_s is None


class TestRejection:
    def test_schema_error_is_a_repro_error(self):
        assert issubclass(RunLogError, ReproError)

    def test_unknown_version_rejected(self):
        with pytest.raises(RunLogError, match="unknown run-record schema"):
            record_from_dict(
                _baseline_payload(schema_version=RUNLOG_SCHEMA_VERSION + 1)
            )

    def test_version_one_files_rejected_after_ccfc_bump(self):
        # Bench files from before the run-record format (schema versions
        # 1 and 2: no run id, "phases" instead of "phase_seconds") are
        # refused, even where the version number collides.
        legacy = {
            "cell_count": 57,
            "cells_per_s": 110.5,
            "label": "run-all-quick",
            "mode": "fast",
            "phases": {"measure": 0.09},
            "wall_s": 0.52,
            "workers": 1,
        }
        with pytest.raises(RunLogError, match="missing 'run_id'"):
            record_from_dict({**legacy, "schema_version": 1})
        with pytest.raises(RunLogError, match="unknown run-record schema"):
            record_from_dict({**legacy, "schema_version": 2})

    def test_missing_field_rejected(self):
        payload = _baseline_payload()
        del payload["wall_s"]
        with pytest.raises(RunLogError, match="missing 'wall_s'"):
            record_from_dict(payload)

    def test_wrong_type_rejected(self):
        with pytest.raises(RunLogError, match="'cell_count' must be int"):
            record_from_dict(_baseline_payload(cell_count="57"))

    def test_bool_is_not_an_int(self):
        # bool subclasses int; a stray true in a count field must fail.
        with pytest.raises(RunLogError, match="'workers' must be int"):
            record_from_dict(_baseline_payload(workers=True))

    def test_int_accepted_where_float_expected(self):
        record = record_from_dict(_baseline_payload(wall_s=2))
        assert record.wall_s == 2.0
        assert isinstance(record.wall_s, float)

    def test_non_numeric_phase_rejected(self):
        payload = _baseline_payload()
        payload["phase_seconds"]["grid"] = "fast"
        with pytest.raises(RunLogError, match=r"\['grid'\] must be a number"):
            record_from_dict(payload)

    def test_malformed_fastpath_rejected(self):
        payload = _baseline_payload()
        del payload["fastpath"]["hit_rate"]
        with pytest.raises(RunLogError, match="missing 'hit_rate'"):
            record_from_dict(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(RunLogError, match="must be an object"):
            record_from_dict(["not", "an", "object"])

    def test_non_json_file_rejected(self, tmp_path):
        # CI appends fresh runs to a copy of the baseline, so a corrupt
        # baseline becomes a corrupt middle line, which the ledger refuses.
        path = tmp_path / "bench.jsonl"
        path.write_text(
            "not json at all\n" + BASELINE.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        with pytest.raises(RunLogError, match="is not JSON"):
            RunLedger(path).load()


class TestFromRunAll:
    @pytest.fixture(scope="class")
    def quick_report(self):
        from repro.runner.memo import clear_all_memos
        from repro.runner.runall import run_all

        clear_all_memos()
        return run_all(workers=1, quick=True, vendors=["gcore"])

    def test_observation_from_live_run(self, quick_report):
        record = record_from_runall(
            quick_report, "run-all-quick", {"quick": True}, wall_s=1.25
        )
        assert record.wall_s == 1.25
        assert record.cell_count == quick_report.cell_count
        assert record.fastpath is not None
        assert record.fastpath["answered"] == quick_report.fastpath.answered
        # The derived measure phase includes planning and validation.
        assert record.measure_s >= (
            quick_report.phase_seconds["fastpath"]
            + quick_report.phase_seconds["validate"]
        )
        assert record_from_json(record.to_json()) == record


class TestCliWritesBench:
    def test_run_all_quick_produces_valid_file(self, fast_run):
        """``D/BENCH_runall.json`` is the same line ``--runlog`` appended."""
        bench, ledger = fast_run
        (record,) = RunLedger(bench).load()
        last_line = ledger.read_text(encoding="utf-8").splitlines()[-1]
        assert bench.read_text(encoding="utf-8") == last_line + "\n"
        assert record.label == "run-all-quick"
        assert record.config["exact"] is False
        assert record.fastpath is not None and record.fastpath["answered"] > 0
        assert record.wall_s > 0
        assert record.measure_s is not None and record.measure_s > 0

    def test_exact_flag_produces_exact_observation(self, tmp_path):
        (record,) = RunLedger(_quick_run_all(tmp_path, "--exact")).load()
        assert record.label == "run-all-quick-exact"
        assert record.config["exact"] is True
        assert record.fastpath is None
        assert record.measure_s is not None and record.measure_s > 0


class TestCheckBenchGate:
    """``repro obs diff --gate`` over a ledger seeded with the baseline,
    as CI's bench-smoke job runs it."""

    def test_exact_about_as_fast_as_fast_passes(self, tmp_path, capsys):
        fast = _baseline_payload()
        exact = _baseline_payload(fastpath=None, label="run-all-quick-exact")
        path = _ledger(tmp_path, [_baseline_payload(), fast, exact])
        assert main(
            ["obs", "diff", "0", "1", "--ledger", path, "--gate",
             "--threshold", "1"]
        ) == 0
        # Fast vs exact is informational: reported, never gated.
        assert main(["obs", "diff", "1", "2", "--ledger", path]) == 0
        assert "measure: 90ms -> 90ms" in capsys.readouterr().out

    def test_measure_phase_regression_fails(self, tmp_path, capsys):
        slow = _baseline_payload()
        slow["phase_seconds"]["measure"] *= 2.2
        path = _ledger(tmp_path, [_baseline_payload(), slow])
        assert main(
            ["obs", "diff", "0", "1", "--ledger", path, "--gate",
             "--threshold", "1"]
        ) == 1
        assert "measure phase slowed 2.20x" in capsys.readouterr().err
