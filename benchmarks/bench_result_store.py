"""E17 — the persistent result store: resumed sweeps vs fresh evaluation.

The store's reason to exist is that serving a recorded row must be far cheaper
than rebuilding the model and re-running the engine.  This module times the
same temporal-heavy coordinated-attack sweep twice against one store — once
cold (every grid point evaluated and recorded) and once resumed (every grid
point served from sqlite) — and pins the two qualitative claims the PR's
acceptance criteria name:

* a resumed sweep of a fully recorded grid performs **zero** formula
  evaluations (the runner's ``eval_count`` stays 0, and every report carries
  ``from_store=True``), serially and under ``jobs=2``;
* the resumed sweep's rows are identical to the fresh sweep's (timing fields
  excepted), and it is at least :data:`SPEEDUP_FLOOR` times faster end-to-end
  — deserializing JSON out of sqlite simply cannot lose to re-enumerating the
  runs and re-running the temporal evaluator, or the store is broken.
"""

import statistics
import time

import pytest

from repro.engine import get_default_backend
from repro.experiments import ExperimentRunner, ResultStore

SPEEDUP_FLOOR = 3.0
PAIRS = 7

SCENARIO = "coordinated_attack"
GRID = {"depth": [4], "horizon": list(range(8, 16))}
SMALL_GRID = {"depth": [2], "horizon": [3, 4]}


def _seconds(callable_):
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start


def comparable_rows(reports):
    """Everything but the timing/provenance fields, which legitimately differ."""
    return [
        (
            report.scenario,
            tuple(sorted(report.params.items())),
            report.backend,
            report.kind,
            report.universe,
            report.focus,
            report.minimized,
            [tuple(sorted(row.to_dict().items())) for row in report.rows],
        )
        for report in reports
    ]


@pytest.fixture(scope="module")
def grid(request):
    smoke = request.config.getoption("--benchmark-disable")
    return SMALL_GRID if smoke else GRID


@pytest.fixture(scope="module")
def recorded_store(tmp_path_factory, grid):
    """A store holding the whole grid, plus the fresh run's reports and timing."""
    path = tmp_path_factory.mktemp("store") / "results.sqlite"
    store = ResultStore(str(path))
    runner = ExperimentRunner(store=store)
    start = time.perf_counter()
    reports = runner.sweep(SCENARIO, grid)
    fresh_seconds = time.perf_counter() - start
    assert runner.eval_count == len(reports) > 0
    yield store, reports, fresh_seconds
    store.close()


def test_resumed_sweep_is_zero_eval_and_identical(recorded_store, grid):
    """The acceptance claim: resume = zero evaluations, identical rows."""
    store, fresh_reports, _ = recorded_store
    runner = ExperimentRunner(store=store)
    resumed = runner.sweep(SCENARIO, grid)
    assert runner.eval_count == 0
    assert runner.store_hits == len(resumed)
    assert all(report.from_store for report in resumed)
    assert comparable_rows(resumed) == comparable_rows(fresh_reports)


def test_resumed_sweep_is_zero_eval_under_jobs(recorded_store, grid):
    """A fully recorded grid never even starts the worker pool."""
    store, fresh_reports, _ = recorded_store
    runner = ExperimentRunner(store=store)
    resumed = runner.sweep(SCENARIO, grid, jobs=2)
    assert runner.eval_count == 0
    assert comparable_rows(resumed) == comparable_rows(fresh_reports)


def test_resumed_sweep_wall_clock(benchmark, recorded_store, grid):
    """Time serving the whole grid from the store (cold runner each round)."""
    store, _, _ = recorded_store

    def resumed_sweep():
        return ExperimentRunner(store=store).sweep(SCENARIO, grid)

    benchmark.extra_info["backend"] = get_default_backend()
    reports = benchmark.pedantic(resumed_sweep, rounds=3, iterations=1)
    assert all(report.from_store for report in reports)
    benchmark.extra_info["worlds"] = sum(report.universe for report in reports)


def test_store_speedup_floor(tmp_path):
    """The resumed sweep beats fresh evaluation by >= SPEEDUP_FLOOR end-to-end.

    Runs on the full :data:`GRID` whatever the timing mode, so CI gates it
    too.  Each pair sweeps the grid fresh into a new store, on a new runner,
    and then resumes it from that store on another new runner; the gate reads
    the median of the per-pair ratios, so a slow spell of the host hits both
    sides of a pair.
    """
    ratios = []
    for pair in range(PAIRS):
        with ResultStore(str(tmp_path / f"pair{pair}.sqlite")) as store:
            fresh = _seconds(lambda: ExperimentRunner(store=store).sweep(SCENARIO, GRID))
            resumed = _seconds(lambda: ExperimentRunner(store=store).sweep(SCENARIO, GRID))
        ratios.append(fresh / resumed)
    ratio = statistics.median(ratios)
    assert ratio >= SPEEDUP_FLOOR, (
        f"a resumed sweep should be at least {SPEEDUP_FLOOR}x faster than fresh "
        f"evaluation; median ratio {ratio:.2f} over {PAIRS} pairs"
    )
