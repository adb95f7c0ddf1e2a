"""E16 — sharded parallel sweeps: ``sweep(jobs=N)`` vs the serial grid walk.

The headline experiment shape of the paper is a parameter sweep — muddy
children over ``n``, coordinated attack over the horizon — and PRs 1–4 made
each *grid point* fast while ``ExperimentRunner.sweep`` still walked the grid
one point at a time on one core.  ``sweep(jobs=N)`` (PR 5) shards the grid
over a process pool: workers rebuild scenario instances from the registry by
parameter key, evaluate, and ship plain report rows back, merged in
deterministic grid order.

``test_parallel_speedup_four_workers`` pins the acceptance claim: on a
temporal-heavy coordinated-attack horizon sweep (on the frozenset oracle,
pinned as the engine default for this module, whose per-run ``O(T^2)``
temporal scans dominate, ~0.3-0.5 s per grid point),
``jobs=4`` is at least **2x** faster end-to-end than ``jobs=1``.  The claim is
a statement about parallel hardware, so the wall-clock assertion runs only
when at least four CPUs are actually available to this process (and never in
``--benchmark-disable`` smoke runs); the row-for-row equivalence of the
parallel and serial sweeps is asserted unconditionally, here and — across
backends and scenario kinds — in ``tests/test_parallel_sweep.py``.

``--jobs`` is a ceiling: a sweep starts in-process and hands the rest of
its grid to the pool only once the work measured so far pays for the
pool's start-up.  ``test_light_grid_stays_in_process`` is the cliff gate
for the other side of that rule: on a light ``random_protocol`` grid,
``jobs=2`` must not be slower than 1/:data:`LIGHT_RATIO_FLOOR` times the
serial sweep (forking a pool per sweep made it about 3x slower).  It uses
no benchmark fixture, so it runs under ``--benchmark-disable`` too.
"""

import os
import statistics
import time

import pytest

from repro.engine import set_default_backend
from repro.experiments import ExperimentRunner
from repro.experiments import runner as runner_module
from repro.logic.syntax import CT, CDiamond, CEps, EDiamond, EEps, Always, Eventually, Knows, Prop

SPEEDUP_FLOOR = 2.0
JOBS = 4

LIGHT_RATIO_FLOOR = 0.8
"""Least median (serial time / ``jobs=2`` time) the light grid may show."""
LIGHT_GRID = {"seed": list(range(8))}
PAIRS = 9

SCENARIO = "coordinated_attack"
BACKEND = "frozenset"  # the temporal reference path: eval-dominated grid points
GRID = {"depth": [20], "horizon": list(range(34, 50, 2))}
SMALL_GRID = {"depth": [2, 3], "horizon": [4, 5]}

_GROUP = ("A", "B")
_FACT = Prop("intend_attack")
FORMULAS = [
    ("ev", Eventually(_FACT)),
    ("alw", Always(_FACT)),
    ("eeps", EEps(_GROUP, _FACT, 1)),
    ("ceps", CEps(_GROUP, _FACT, 1)),
    ("ed", EDiamond(_GROUP, _FACT)),
    ("cd", CDiamond(_GROUP, _FACT)),
    ("ct", CT(_GROUP, _FACT, 3.0)),
    ("ceps_k", CEps(_GROUP, Knows("A", _FACT), 2)),
]


@pytest.fixture(autouse=True, scope="module")
def reference_backend():
    """Run this module's sweeps (and their pool workers) on :data:`BACKEND`."""
    previous = set_default_backend(BACKEND)
    yield
    set_default_backend(previous)


def run_sweep(jobs, grid=None, runner=None):
    """One end-to-end sweep — fresh runner, so nothing is cached across calls."""
    return (runner or ExperimentRunner()).sweep(
        SCENARIO,
        grid if grid is not None else GRID,
        formulas=FORMULAS,
        jobs=jobs,
    )


def comparable_rows(reports):
    """Everything but the timing fields, which legitimately differ per run."""
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


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_of(callable_, repetitions=2):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


# -- measurements ---------------------------------------------------------------


def test_parallel_matches_serial_rows(monkeypatch):
    """Sharded execution is observably the serial sweep: same reports, same order.

    The small grid is too light to pay for a pool, so the pool's start-up
    cost is set to zero: the first point runs in-process, the rest on the pool.
    """
    monkeypatch.setattr(runner_module, "POOL_START_SECONDS", 0.0)
    serial = run_sweep(jobs=1, grid=SMALL_GRID)
    runner = ExperimentRunner()
    parallel = run_sweep(jobs=JOBS, grid=SMALL_GRID, runner=runner)
    assert runner.pool_starts == 1
    assert comparable_rows(parallel) == comparable_rows(serial)


def test_light_grid_stays_in_process():
    """The cliff gate: a light ``jobs=2`` grid is about as fast as serial.

    Each pair times one serial and one ``jobs=2`` sweep of :data:`LIGHT_GRID`
    (4-30 ms in all) on fresh runners, after one warm-up pair pays the
    imports; the gate reads the median per-pair ratio, so a slow spell of
    the host hits both sides of a pair.  Such a spell can also make the
    measured work look heavy enough to start a pool in one pair, which is
    why the gate reads times and not pool starts.
    """

    def seconds(jobs):
        start = time.perf_counter()
        ExperimentRunner().sweep("random_protocol", LIGHT_GRID, jobs=jobs)
        return time.perf_counter() - start

    seconds(1), seconds(2)
    ratio = statistics.median(seconds(1) / seconds(2) for _ in range(PAIRS))
    assert ratio >= LIGHT_RATIO_FLOOR, (
        f"a light jobs=2 sweep should take at most 1/{LIGHT_RATIO_FLOOR} of the "
        f"serial time; median ratio {ratio:.2f} over {PAIRS} pairs"
    )


@pytest.mark.parametrize("jobs", (1, JOBS))
def test_temporal_sweep_wall_clock(benchmark, jobs, request):
    """Time the temporal-heavy sweep end-to-end at each worker count.

    Smoke runs (``--benchmark-disable``) execute one small-grid pass to prove
    the path works; the full grid exists to be *timed*, not to heat an
    unparallel CI box.
    """
    smoke = request.config.getoption("--benchmark-disable")
    grid = SMALL_GRID if smoke else GRID
    benchmark.extra_info["backend"] = BACKEND
    benchmark.extra_info["jobs"] = jobs
    reports = benchmark.pedantic(
        run_sweep, args=(jobs,), kwargs={"grid": grid}, rounds=2, iterations=1
    )
    assert len(reports) == (4 if smoke else len(GRID["horizon"]))
    benchmark.extra_info["worlds"] = sum(report.universe for report in reports)


def test_parallel_speedup_four_workers(request):
    """The acceptance claim: >= 2x end-to-end, jobs=4 vs jobs=1.

    Wall-clock parallel speedup needs parallel hardware: the assertion is
    skipped when fewer than four CPUs are usable (single-core CI) and in
    ``--benchmark-disable`` smoke runs.  The equivalence of the two paths is
    asserted by ``test_parallel_matches_serial_rows`` above unconditionally.
    """
    if request.config.getoption("--benchmark-disable"):
        pytest.skip("timing assertion runs only when benchmarks are enabled")
    cpus = _usable_cpus()
    if cpus < JOBS:
        pytest.skip(
            f"parallel speedup needs >= {JOBS} usable CPUs, found {cpus}; "
            "the differential checks still ran"
        )
    serial_time = _best_of(lambda: run_sweep(jobs=1))
    parallel_time = _best_of(lambda: run_sweep(jobs=JOBS))
    assert parallel_time * SPEEDUP_FLOOR <= serial_time, (
        f"jobs={JOBS} sweep ({parallel_time * 1e3:.0f} ms) should be at least "
        f"{SPEEDUP_FLOOR}x faster than jobs=1 ({serial_time * 1e3:.0f} ms) "
        f"on {cpus} CPUs"
    )
