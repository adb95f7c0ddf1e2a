"""Differential and behavioural tests for the sharded parallel sweep.

The contract under test: ``sweep(jobs=N)`` is observably the serial sweep —
same reports, same order, same ``minimized`` flags — on either engine default
backend and for both scenario kinds; only the timing fields may differ.  Plus
the plumbing that makes that safe: picklable run specs, parameter-key round
trips, worker error propagation, and the streaming CLI output.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.cli import main as cli_main
from repro.engine import BACKENDS, set_default_backend
from repro.errors import ScenarioError
from repro.experiments import ExperimentRunner, params_from_key, params_to_key
from repro.experiments.parallel import RunSpec, available_cpus, resolve_jobs
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


def assert_parallel_matches_serial_on_each_backend(scenario, grid):
    """jobs=JOBS and jobs=1 yield identical rows under each engine default.

    Pool workers must evaluate on the parent's default backend, which the
    reports' ``backend`` field shows.  The autouse ``engine_backend`` fixture
    restores the suite's default afterwards.
    """
    for backend in BACKENDS:
        set_default_backend(backend)
        serial = ExperimentRunner().sweep(scenario, grid)
        parallel = ExperimentRunner().sweep(scenario, grid, jobs=JOBS)
        assert {report.backend for report in parallel} == {backend}
        assert comparable(parallel) == comparable(serial)


def test_parallel_matches_serial_kripke_both_backends():
    """Kripke scenario, both backends: jobs=4 and jobs=1 yield identical rows."""
    assert_parallel_matches_serial_on_each_backend("muddy_children", {"n": range(2, 5)})


def test_parallel_matches_serial_system_both_backends():
    """System scenario (temporal default formulas), both backends."""
    assert_parallel_matches_serial_on_each_backend(
        "coordinated_attack", {"depth": [2], "horizon": [3, 4]}
    )


def test_parallel_with_explicit_formulas_and_minimize():
    """Explicit formula objects + strings cross the pool; minimize flags survive."""
    formulas = [
        "K_child_0 at_least_one",
        ("common", "C_{child_0,child_1} at_least_one"),
        ("labelled", Knows("child_0", Prop("at_least_one"))),
    ]
    serial = ExperimentRunner().sweep(
        "muddy_children", {"n": [2, 3]}, formulas=formulas, minimize=True
    )
    parallel = ExperimentRunner().sweep(
        "muddy_children", {"n": [2, 3]}, formulas=formulas, minimize=True, jobs=2
    )
    assert comparable(parallel) == comparable(serial)
    assert all(report.minimized for report in parallel)


def test_parallel_temporal_formula_objects_on_system():
    """Temporal formulas (PR 4 operators) ship to workers as structures."""
    formulas = [
        ("ev", Eventually(Prop("intend_attack"))),
        ("eeps", EEps(("A", "B"), Prop("intend_attack"), 1)),
        ("cd", CDiamond(("A", "B"), Prop("intend_attack"))),
    ]
    grid = {"horizon": [3, 4]}
    serial = ExperimentRunner().sweep("coordinated_attack", grid, formulas=formulas)
    parallel = ExperimentRunner().sweep(
        "coordinated_attack", grid, formulas=formulas, jobs=2
    )
    assert comparable(parallel) == comparable(serial)


def test_iter_sweep_streams_in_grid_order():
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
    assert serial_stream == expected
    assert parallel_stream == expected


def test_worker_errors_propagate():
    """A builder failure inside a worker surfaces as the usual ScenarioError."""
    with pytest.raises(ScenarioError, match="between 0 and n"):
        ExperimentRunner().sweep(
            "muddy_children", {"n": [2, 3], "k": [5]}, jobs=2
        )


def test_parallel_validates_grid_in_parent():
    """Bad axes fail fast in the parent, before any worker is spawned."""
    with pytest.raises(ScenarioError, match="no parameter"):
        ExperimentRunner().sweep("muddy_children", {"bogus": [1, 2]}, jobs=2)
    with pytest.raises(ScenarioError, match="expects int"):
        ExperimentRunner().sweep("muddy_children", {"n": ["two", "three"]}, jobs=2)


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


def test_cli_sweep_jobs_json_matches_serial(capsys):
    serial_code, serial_out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3", "--json"
    )
    parallel_code, parallel_out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3", "--json", "--jobs", "2"
    )
    assert serial_code == 0 and parallel_code == 0

    def strip(reports):
        return [
            {k: v for k, v in report.items() if not k.endswith("_seconds")}
            for report in reports
        ]

    serial_payload = json.loads(serial_out)
    parallel_payload = json.loads(parallel_out)
    assert strip(parallel_payload) == strip(serial_payload)


def test_cli_sweep_json_streams_standard_format(capsys):
    """The streamed array is byte-identical to a one-shot json.dumps."""
    code, out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3", "--json", "--jobs", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"


def test_cli_sweep_jobs_table(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2..4", "--jobs", "2"
    )
    assert code == 0
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


def test_abandoning_the_parallel_stream_early_does_not_finish_the_grid():
    """Closing the generator after one report cancels the not-yet-started
    chunks instead of silently evaluating the whole grid."""
    stream = ExperimentRunner().iter_sweep(
        "muddy_children", {"n": [2, 3, 4, 5]}, jobs=2
    )
    first = next(stream)
    assert first.params["n"] == 2
    stream.close()  # must return promptly and without raising


def test_jobs_sweep_honours_the_cache_bound():
    """A pooled sweep on a runner with a tiny instance-cache bound: workers
    get the parent's bound and still evaluate every point in grid order."""
    runner = ExperimentRunner(max_cached_instances=2)
    reports = runner.sweep(
        "muddy_children",
        {"n": range(2, 6), "k": [1], "announced": [False]},
        jobs=2,
    )
    assert [report.params["n"] for report in reports] == [2, 3, 4, 5]
    assert runner.cached_instances <= 2
