"""Differential and behavioural tests for the sharded parallel sweep.

The contract under test: ``sweep(jobs=N)`` is observably the serial sweep —
same reports, same order, same ``minimized`` flags — on either engine default
backend and for both scenario kinds; only the timing fields may differ.  Plus
the plumbing that makes that safe: picklable run specs, parameter-key round
trips, worker error propagation, and the streaming CLI output.  A light
``jobs > 1`` grid stays in-process until its measured work pays for a pool,
so the tests that must reach the pool take the ``pool_after_first_point``
fixture (``tests/conftest.py``) and assert that a pool started.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle

import pytest

from repro.cli import main as cli_main
from repro.engine import BACKENDS, set_default_backend
from repro.errors import ScenarioError
from repro.experiments import (
    ExperimentRunner,
    all_scenarios,
    params_from_key,
    params_to_key,
)
from repro.experiments import runner as runner_module
from repro.experiments import supervise
from repro.experiments.parallel import RunSpec, available_cpus, resolve_jobs
from repro.experiments.runner import pool_pays
from repro.logic.syntax import CDiamond, EEps, Eventually, Knows, Prop

JOBS = 4


def comparable(reports):
    """Everything a sweep promises deterministically (timings excluded)."""
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


# -- the differential: parallel == serial ---------------------------------------


def assert_parallel_matches_serial_on_each_backend(scenario, grid, pool_starts):
    """jobs=JOBS and jobs=1 yield identical rows under each engine default.

    Pool workers must evaluate on the parent's default backend, which the
    reports' ``backend`` field shows.  The autouse ``engine_backend`` fixture
    restores the suite's default afterwards.
    """
    for started, backend in enumerate(BACKENDS, start=1):
        set_default_backend(backend)
        serial = ExperimentRunner().sweep(scenario, grid)
        parallel = ExperimentRunner().sweep(scenario, grid, jobs=JOBS)
        assert pool_starts() == started
        assert {report.backend for report in parallel} == {backend}
        assert comparable(parallel) == comparable(serial)


def test_parallel_matches_serial_kripke_both_backends(pool_after_first_point):
    """Kripke scenario, both backends: jobs=4 and jobs=1 yield identical rows."""
    assert_parallel_matches_serial_on_each_backend(
        "muddy_children", {"n": range(2, 5)}, pool_after_first_point
    )


def test_parallel_matches_serial_system_both_backends(pool_after_first_point):
    """System scenario (temporal default formulas), both backends."""
    assert_parallel_matches_serial_on_each_backend(
        "coordinated_attack", {"depth": [2], "horizon": [3, 4, 5]}, pool_after_first_point
    )


def test_parallel_with_explicit_formulas_and_minimize(pool_after_first_point):
    """Explicit formula objects + strings cross the pool; minimize flags survive."""
    formulas = [
        "K_child_0 at_least_one",
        ("common", "C_{child_0,child_1} at_least_one"),
        ("labelled", Knows("child_0", Prop("at_least_one"))),
    ]
    serial = ExperimentRunner().sweep(
        "muddy_children", {"n": [2, 3, 4]}, formulas=formulas, minimize=True
    )
    parallel = ExperimentRunner().sweep(
        "muddy_children", {"n": [2, 3, 4]}, formulas=formulas, minimize=True, jobs=2
    )
    assert pool_after_first_point() == 1
    assert comparable(parallel) == comparable(serial)
    assert all(report.minimized for report in parallel)


def test_parallel_temporal_formula_objects_on_system(pool_after_first_point):
    """Temporal formulas (PR 4 operators) ship to workers as structures."""
    formulas = [
        ("ev", Eventually(Prop("intend_attack"))),
        ("eeps", EEps(("A", "B"), Prop("intend_attack"), 1)),
        ("cd", CDiamond(("A", "B"), Prop("intend_attack"))),
    ]
    grid = {"horizon": [3, 4, 5]}
    serial = ExperimentRunner().sweep("coordinated_attack", grid, formulas=formulas)
    parallel = ExperimentRunner().sweep(
        "coordinated_attack", grid, formulas=formulas, jobs=2
    )
    assert pool_after_first_point() == 1
    assert comparable(parallel) == comparable(serial)


def test_iter_sweep_streams_in_grid_order(pool_after_first_point):
    """iter_sweep yields the exact sequence sweep() returns, serial and parallel."""
    runner = ExperimentRunner()
    expected = comparable(runner.sweep("muddy_children", {"n": [2, 3, 4]}))
    serial_stream = comparable(
        list(ExperimentRunner().iter_sweep("muddy_children", {"n": [2, 3, 4]}))
    )
    parallel_stream = comparable(
        list(
            ExperimentRunner().iter_sweep("muddy_children", {"n": [2, 3, 4]}, jobs=2)
        )
    )
    assert pool_after_first_point() == 1
    assert serial_stream == expected
    assert parallel_stream == expected


def test_worker_errors_propagate(pool_after_first_point):
    """A builder failure inside a worker surfaces as the usual ScenarioError."""
    with pytest.raises(ScenarioError, match="between 0 and n"):
        ExperimentRunner().sweep(
            "muddy_children", {"n": [5, 6, 2, 3], "k": [5]}, jobs=2
        )
    assert pool_after_first_point() == 1


def test_parallel_validates_grid_in_parent():
    """Bad axes fail fast in the parent, before any worker is spawned."""
    with pytest.raises(ScenarioError, match="no parameter"):
        ExperimentRunner().sweep("muddy_children", {"bogus": [1, 2]}, jobs=2)
    with pytest.raises(ScenarioError, match="expects int"):
        ExperimentRunner().sweep("muddy_children", {"n": ["two", "three"]}, jobs=2)


# -- the measured hand-off to the pool ------------------------------------------


def test_pool_pays_is_the_break_even_rule():
    """remaining x mean x (1 - 1/min(jobs, remaining)) > POOL_START_SECONDS."""
    start = runner_module.POOL_START_SECONDS
    # Ten 10 ms points on two workers save 50 ms, twice the start-up cost.
    assert pool_pays(10, 0.010, 2)
    # Two 10 ms points on two workers save 10 ms: not worth a pool.
    assert not pool_pays(2, 0.010, 2)
    # The break-even itself does not pay; just past it does.
    assert not pool_pays(4, start / 2, 2)
    assert pool_pays(4, start / 2 * 1.01, 2)
    # More workers save a larger share of the same work.
    assert not pool_pays(3, start * 0.6, 2) and pool_pays(3, start * 0.6, 3)
    # ``jobs`` is a ceiling: workers beyond the remaining points save nothing
    # (eight uncapped workers would save 1.575 x the start-up here).
    assert not pool_pays(2, start * 0.9, 8)
    # One worker, or one remaining point, never pays, whatever the work.
    assert not pool_pays(100, 60.0, 1)
    assert not pool_pays(1, 60.0, 8)
    assert not pool_pays(0, 60.0, 8)


def refuse_pool(monkeypatch):
    """Make constructing a sweep pool fail the test."""

    def boom(*args, **kwargs):
        raise AssertionError("a light jobs=2 sweep started the pool")

    monkeypatch.setattr(supervise, "SweepSupervisor", boom)


def test_light_jobs_sweep_stays_in_process(monkeypatch):
    """A grid whose measured work cannot pay for a pool never builds one.

    Four points of about 1 ms: only a first point slower than 16 ms, or two
    averaging over 25 ms, would make the pool look worth starting.
    """
    grid = {"seed": list(range(4))}
    serial = ExperimentRunner().sweep("random_protocol", grid)
    refuse_pool(monkeypatch)
    runner = ExperimentRunner()
    parallel = runner.sweep("random_protocol", grid, jobs=2)
    assert comparable(parallel) == comparable(serial)
    # The in-process executor shares this runner's instance cache.
    assert runner.cached_instances == len(grid["seed"])


def test_forced_hand_off_matches_serial_on_every_scenario(pool_after_first_point):
    """Every registered scenario's default point, three times in one grid:
    the first runs in-process, the other two on the pool, and the rows equal
    the serial sweep's, in grid order."""
    scenarios = all_scenarios()
    for started, spec in enumerate(scenarios, start=1):
        first = spec.parameters[0]
        grid = {first.name: [first.default] * 3}
        serial = ExperimentRunner().sweep(spec.name, grid)
        handed_off = ExperimentRunner().sweep(spec.name, grid, jobs=2)
        assert pool_after_first_point() == started, spec.name
        assert comparable(handed_off) == comparable(serial), spec.name
    assert started == len(scenarios) > 10


def test_fail_fast_error_in_the_in_process_head_is_raised_unchanged(monkeypatch):
    """The first point fails before any pool could pay: the error is the
    serial sweep's, exception type and message alike, and no pool starts."""
    grid = {"n": [2, 3, 4], "k": [5]}
    with pytest.raises(ScenarioError) as serial:
        ExperimentRunner().sweep("muddy_children", grid)
    monkeypatch.setattr(runner_module, "POOL_START_SECONDS", 0.0)
    refuse_pool(monkeypatch)
    with pytest.raises(ScenarioError) as parallel:
        ExperimentRunner().sweep("muddy_children", grid, jobs=2)
    assert type(parallel.value) is type(serial.value)
    assert str(parallel.value) == str(serial.value)


# -- spec plumbing --------------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == available_cpus()
    with pytest.raises(ScenarioError, match=">= 0"):
        resolve_jobs(-1)
    with pytest.raises(ScenarioError, match="integer"):
        resolve_jobs(2.5)


def test_available_cpus_honors_scheduling_affinity():
    """``--jobs 0`` sizes the pool by the CPUs this process may *run on*
    (cgroup/taskset mask), not by what the machine physically has."""
    assert available_cpus() >= 1
    if hasattr(os, "sched_getaffinity"):
        assert available_cpus() == len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux fallback
        assert available_cpus() == (os.cpu_count() or 1)
    with pytest.raises(ScenarioError, match="integer"):
        resolve_jobs(True)


def test_params_key_round_trip():
    params = {"n": 4, "k": 2, "announced": False}
    key = params_to_key(params)
    assert key == (("announced", False), ("k", 2), ("n", 4))
    assert params_from_key(key) == params
    # Order-insensitive: the canonical key is what the cache indexes on.
    assert params_to_key({"k": 2, "announced": False, "n": 4}) == key


def test_run_spec_pickles_round_trip():
    """The exact payload shipped to workers survives pickling unchanged."""
    spec = RunSpec(
        scenario="coordinated_attack",
        params_key=params_to_key({"depth": 2, "horizon": 4}),
        formulas=(
            ("ev", Eventually(Prop("intend_attack"))),
            ("eeps", EEps(("A", "B"), Prop("intend_attack"), 0.5)),
        ),
        minimize=False,
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.formulas[1][1].eps == 0.5


# -- CLI surface ----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_sweep_jobs_json_matches_serial(capsys, pool_after_first_point):
    serial_code, serial_out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3,4", "--json"
    )
    parallel_code, parallel_out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3,4", "--json", "--jobs", "2"
    )
    assert serial_code == 0 and parallel_code == 0
    assert pool_after_first_point() == 1

    def strip(reports):
        return [
            {k: v for k, v in report.items() if not k.endswith("_seconds")}
            for report in reports
        ]

    serial_payload = json.loads(serial_out)
    parallel_payload = json.loads(parallel_out)
    assert strip(parallel_payload) == strip(serial_payload)


def test_cli_sweep_json_streams_standard_format(capsys, pool_after_first_point):
    """The streamed array is byte-identical to a one-shot json.dumps."""
    code, out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3,4", "--json", "--jobs", "2"
    )
    assert code == 0
    assert pool_after_first_point() == 1
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"


def test_cli_sweep_jobs_table(capsys, pool_after_first_point):
    code, out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2..4", "--jobs", "2"
    )
    assert code == 0
    assert pool_after_first_point() == 1
    lines = [line for line in out.splitlines() if line and not line.startswith(("n", "-"))]
    assert len(lines) == 3


def test_cli_sweep_rejects_negative_jobs(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3", "--jobs", "-2"
    )
    assert code == 2
    assert "jobs" in err


def test_cli_sweep_json_stays_well_formed_when_a_grid_point_fails(capsys):
    """A mid-stream builder failure closes the array and exits 1 (aborted
    sweep, not a usage error): stdout is valid JSON holding the completed
    prefix, and the error still lands on stderr."""
    code, out, err = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=6,2", "-p", "k=5", "--json"
    )
    assert code == 1
    assert "between 0 and n" in err
    payload = json.loads(out)  # must not be a truncated array
    assert [report["params"]["n"] for report in payload] == [6]


def test_abandoning_the_parallel_stream_early_does_not_finish_the_grid(
    pool_after_first_point,
):
    """Closing the generator after the hand-off cancels the not-yet-started
    chunks instead of silently evaluating the whole grid, and leaves no
    worker process behind."""
    runner = ExperimentRunner()
    stream = runner.iter_sweep("muddy_children", {"n": [2, 3, 4, 5, 6, 7]}, jobs=2)
    assert [next(stream).params["n"] for _ in range(2)] == [2, 3]
    stream.close()  # must return promptly and without raising
    assert runner.pool_starts == 1
    assert multiprocessing.active_children() == []
    assert runner.eval_count == 2


def test_abandoned_pools_leave_no_live_children_twenty_times_over(
    pool_after_first_point,
):
    """Each abandoned stream reaps its killed workers before ``close`` returns.

    Only the executor's manager thread may reap them: when a second thread
    joined the same processes, the loser of the ``waitpid`` race left a dead
    worker listed in ``multiprocessing.active_children()`` now and then;
    twenty abandons in a row showed it on almost every run.
    """
    for attempt in range(20):
        runner = ExperimentRunner()
        stream = runner.iter_sweep("muddy_children", {"n": [2, 3, 4, 5, 6]}, jobs=2)
        assert [next(stream).params["n"] for _ in range(2)] == [2, 3]
        stream.close()
        assert runner.pool_starts == 1, attempt
        assert multiprocessing.active_children() == [], attempt


def test_jobs_sweep_honours_the_cache_bound(pool_after_first_point):
    """A pooled sweep on a runner with a tiny instance-cache bound: workers
    get the parent's bound and still evaluate every point in grid order."""
    runner = ExperimentRunner(max_cached_instances=2)
    reports = runner.sweep(
        "muddy_children",
        {"n": range(2, 6), "k": [1], "announced": [False]},
        jobs=2,
    )
    assert runner.pool_starts == 1
    assert [report.params["n"] for report in reports] == [2, 3, 4, 5]
    assert runner.cached_instances <= 2
