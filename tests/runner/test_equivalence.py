"""Serial vs parallel execution produces identical results.

This is the runner's core guarantee: outcomes are keyed and merged in
grid order regardless of completion order, cell functions are pure, and
timing is excluded from comparison — so a pool run of the Table IV and
Table V grids must compare (and repr) equal to a serial run, including
when a cell raises.
"""

from __future__ import annotations

import pytest

from repro.core.obr import obr_grid
from repro.core.practical import flood_grid
from repro.core.sbr import sbr_grid
from repro.reporting.tables import table4_rows, table5_rows
from repro.runner import (
    CellFailure,
    ExperimentGrid,
    GridRunner,
    RunnerCellError,
    clear_all_memos,
)
from repro.runner.experiments import sbr_cell

MB = 1 << 20

TABLE4_SIZES = (1 * MB, 10 * MB, 25 * MB)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Memo state must never be able to mask a determinism bug."""
    clear_all_memos()
    yield
    clear_all_memos()


def test_table4_grid_serial_and_parallel_identical():
    grid = sbr_grid(sizes=TABLE4_SIZES)
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=4).run(grid)
    assert serial == parallel
    assert repr(serial) == repr(parallel)
    assert [o.value for o in serial] == [o.value for o in parallel]
    assert all(o.ok for o in parallel)
    assert parallel.workers > serial.workers


def test_table5_grid_serial_and_parallel_identical():
    grid = obr_grid()
    assert len(grid) == 11
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=4).run(grid)
    assert serial == parallel
    assert repr(serial) == repr(parallel)
    # The merged order is grid order, not completion order.
    assert [o.cell for o in parallel] == list(grid.cells)
    assert [o.index for o in parallel] == list(range(len(grid)))


def test_flood_grid_serial_and_parallel_identical():
    grid = flood_grid(ms=(1, 2, 12))
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=3).run(grid)
    assert serial == parallel
    assert [o.value for o in serial] == [o.value for o in parallel]


def test_equivalence_holds_when_a_cell_raises():
    grid = ExperimentGrid(
        "with-failure",
        [
            sbr_cell("akamai", 1 * MB),
            sbr_cell("nonexistent-vendor", 1 * MB),
            sbr_cell("fastly", 1 * MB),
        ],
    )
    serial = GridRunner(workers=1).run(grid)
    parallel = GridRunner(workers=3).run(grid)

    assert serial == parallel
    # The failing cell is captured, not fatal; its neighbors complete.
    assert [o.ok for o in parallel] == [True, False, True]
    failure = parallel.outcomes[1].failure
    assert isinstance(failure, CellFailure)
    assert failure.exception_type == "ConfigurationError"
    assert "nonexistent-vendor" in failure.message
    # Unwrapping the failed cell raises with the cell's label.
    with pytest.raises(RunnerCellError, match="nonexistent-vendor"):
        parallel.values()
    # Healthy cells still unwrap.
    assert parallel.outcomes[0].unwrap().vendor == "akamai"


def test_table4_rows_parallel_identical_to_one_worker_default():
    """The reporting surface: four-worker rows == default one-worker rows."""
    parallel = table4_rows(sizes=(1 * MB,), runner=GridRunner(workers=4))
    default = table4_rows(sizes=(1 * MB,))
    assert parallel == default


def test_table5_rows_parallel_identical_to_one_worker_default():
    combos = [("cloudflare", "akamai"), ("stackpath", "azure")]
    parallel = table5_rows(combinations=combos, runner=GridRunner(workers=4))
    default = table5_rows(combinations=combos)
    assert parallel == default


def test_serial_env_var_forces_serial_execution(monkeypatch):
    monkeypatch.setenv("REPRO_RUNNER_SERIAL", "1")
    runner = GridRunner(workers=8)
    assert runner.workers == 1
    grid = sbr_grid(vendors=["akamai"], sizes=(1 * MB,))
    result = runner.run(grid)
    assert result.workers == 1
    assert result.outcomes[0].ok


def test_grid_dedups_overlapping_cells():
    grid = sbr_grid(vendors=["akamai"], sizes=(1 * MB, 1 * MB, 2 * MB))
    assert len(grid) == 2
