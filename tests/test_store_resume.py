"""Crash/resume differentials: an interrupted sweep plus ``--resume`` equals
one uninterrupted run.

The store's durability claim is exercised under the two realistic failure
shapes:

* **Worker failure** — a scenario builder raises mid-grid (here: an
  env-var-gated poison point in a scratch scenario that otherwise delegates to
  ``muddy_children``), killing the sweep after some rows were recorded;
* **Hard process death** — a subprocess consumes part of a streamed sweep and
  ``os._exit``s without unwinding a single ``finally`` (no sqlite close, no
  WAL checkpoint).

In both cases the rows recorded before the failure must be durable, a resumed
sweep must evaluate *only* the missing grid points (pinned via the runner's
``eval_count``), and the merged rows must be identical — timing fields
excepted — to a sweep that never failed, serially and under ``--jobs 2``.
The in-process ``--jobs 2`` cases take the ``pool_after_first_point``
fixture (``tests/conftest.py``), so their misses after the first really run
on the pool.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.engine import set_default_backend
from repro.errors import ScenarioError
from repro.experiments import (
    ExperimentRunner,
    FaultPolicy,
    ResultStore,
    get_scenario,
    register_scenario,
    unregister_scenario,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POISON_ENV = "REPRO_TEST_POISON_N"
GRID = {"n": [2, 3, 4]}
GRID_POINTS = len(GRID["n"])


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


@pytest.fixture
def fragile_scenario():
    """``muddy_children`` with an env-gated transient failure at ``n``.

    Setting ``REPRO_TEST_POISON_N=4`` makes the builder raise for ``n=4`` —
    in this process *and* in forked pool workers, which inherit the
    environment and this runtime registration.  Unsetting the variable makes
    the exact same grid point build normally, which is what lets a resumed
    sweep complete a grid whose first attempt died.
    """
    real = get_scenario("muddy_children")
    name = "muddy_children_fragile"

    @register_scenario(
        name,
        summary="muddy children with an injectable transient builder failure",
        section="tests",
        parameters=real.parameters,
        formulas=real.formulas,
    )
    def build(**params):
        if os.environ.get(POISON_ENV) == str(params["n"]):
            raise ScenarioError(
                f"injected transient failure at n={params['n']}"
            )
        return real.builder(**params)

    yield name
    unregister_scenario(name)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_then_resume_matches_uninterrupted(
    fragile_scenario, tmp_path, monkeypatch, jobs, pool_after_first_point
):
    expected = ExperimentRunner().sweep(fragile_scenario, GRID)
    assert len(expected) == GRID_POINTS

    path = str(tmp_path / "results.sqlite")
    monkeypatch.setenv(POISON_ENV, "4")
    with ResultStore(path) as store:
        runner = ExperimentRunner(store=store)
        with pytest.raises(ScenarioError, match="injected transient failure"):
            runner.sweep(fragile_scenario, GRID, jobs=jobs)
        recorded = store.stats()["rows"]
    assert runner.pool_starts == (jobs > 1)
    # The poison point (n=4) can never have been recorded; rows
    # streamed back before the failure must have been.  Under --jobs the
    # failing chunk may take neighbours down with it, so the exact count is
    # schedule-dependent — durability of completed-and-streamed rows is not.
    assert recorded < GRID_POINTS
    if jobs == 1:
        assert recorded == 2  # serial order: n=2, n=3 recorded, then the raise

    monkeypatch.delenv(POISON_ENV)
    with ResultStore(path) as store:
        resumed_runner = ExperimentRunner(store=store)
        resumed = resumed_runner.sweep(
            fragile_scenario, GRID, jobs=jobs
        )
        # Only the missing grid points were evaluated; the rest were served.
        assert resumed_runner.store_hits == recorded
        assert resumed_runner.eval_count == GRID_POINTS - recorded
        assert comparable(resumed) == comparable(expected)

        # And now the grid is complete: a further resume evaluates nothing.
        final_runner = ExperimentRunner(store=store)
        final = final_runner.sweep(
            fragile_scenario, GRID, jobs=jobs
        )
        assert final_runner.eval_count == 0
        assert final_runner.store_hits == GRID_POINTS
        assert all(report.from_store for report in final)
        assert comparable(final) == comparable(expected)


def test_hard_process_death_then_resume_matches_uninterrupted(tmp_path):
    """``os._exit`` mid-sweep loses nothing that was already streamed.

    The child process gets no chance to close the sqlite connection or
    checkpoint the WAL; per-``put`` commit durability is the only thing
    standing between the recorded rows and oblivion.
    """
    path = str(tmp_path / "results.sqlite")
    script = tmp_path / "die_mid_sweep.py"
    script.write_text(
        "import os, sys\n"
        "from repro.experiments import ExperimentRunner, ResultStore\n"
        "runner = ExperimentRunner(store=ResultStore(sys.argv[1]))\n"
        "stream = runner.iter_sweep('muddy_children', {'n': [2, 3, 4, 5]})\n"
        "next(stream)\n"
        "next(stream)\n"
        "os._exit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, str(script), path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 3, completed.stderr

    # The child recorded on the production backend; pin the same default here
    # so its rows resume this process's sweep whatever --engine-backend the
    # suite runs under (the autouse fixture restores it afterwards).
    set_default_backend("bitset")
    expected = ExperimentRunner().sweep(
        "muddy_children", {"n": [2, 3, 4, 5]}
    )
    with ResultStore(path) as store:
        assert store.stats()["rows"] == 2  # exactly the two consumed reports
        resumed_runner = ExperimentRunner(store=store)
        resumed = resumed_runner.sweep(
            "muddy_children", {"n": [2, 3, 4, 5]}
        )
        assert resumed_runner.eval_count == 2
        assert resumed_runner.store_hits == 2
        assert [report.from_store for report in resumed] == [
            True,
            True,
            False,
            False,
        ]
        assert comparable(resumed) == comparable(expected)


def test_cli_resume_completes_a_killed_cli_sweep(tmp_path, capsys):
    """End-to-end through the CLI: kill ``repro sweep --store`` mid-stream,
    then ``repro sweep --store --resume`` serves + completes the grid."""
    path = str(tmp_path / "results.sqlite")
    src = os.path.join(REPO_ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src)
    # SIGKILL the CLI once it has printed (hence durably recorded) two rows.
    driver = tmp_path / "kill_mid_sweep.py"
    driver.write_text(
        "import json, os, signal, subprocess, sys\n"
        "proc = subprocess.Popen(\n"
        "    [sys.executable, '-m', 'repro.cli', 'sweep', 'muddy_children',\n"
        "     '-g', 'n=2,3,4',\n"
        "     '--store', sys.argv[1], '--json'],\n"
        "    stdout=subprocess.PIPE, text=True)\n"
        "rows = 0\n"
        "while rows < 2:\n"
        "    line = proc.stdout.readline()\n"
        "    rows += line.count('\"scenario\"')\n"
        "proc.send_signal(signal.SIGKILL)\n"
        "proc.wait()\n"
        "sys.exit(0)\n"
    )
    completed = subprocess.run(
        [sys.executable, str(driver), path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr

    # The killed CLI evaluated on the production backend; resume on the same
    # one whatever --engine-backend the suite runs under.
    set_default_backend("bitset")
    code = cli_main(
        ["sweep", "muddy_children", "-g", "n=2,3,4",
         "--store", path, "--resume", "--json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    # At least the two rows the driver saw printed were served from the store.
    assert sum(report["from_store"] for report in reports) >= 2
    assert [report["params"]["n"] for report in reports] == [2, 3, 4]


def test_concurrent_sweeps_sharing_one_store_match_isolated_runs(tmp_path):
    """Two simultaneous ``--jobs 2`` CLI sweeps writing the same store file.

    Maximum contention: identical grids, so every canonical request key is
    raced by both processes (plus their pool workers).  Both sweeps must
    finish cleanly, the store must end up with exactly one row per grid
    point, and the recorded rows must be identical to an isolated run's.
    """
    path = str(tmp_path / "shared.sqlite")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    argv = [
        sys.executable, "-m", "repro", "sweep", "muddy_children",
        "-g", "n=2,3,4,5", "--jobs", "2",
        "--store", path, "--json",
    ]
    first = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    second = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    outputs = []
    for proc in (first, second):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(json.loads(out))
    for payload in outputs:
        assert [report["params"]["n"] for report in payload] == [2, 3, 4, 5]

    # The CLI processes evaluated on the production backend; compare on the
    # same one whatever --engine-backend the suite runs under.
    set_default_backend("bitset")
    expected = ExperimentRunner().sweep(
        "muddy_children", {"n": [2, 3, 4, 5]}
    )
    with ResultStore(path) as store:
        # One row per grid point — racing writers never duplicate a key.
        assert store.stats()["rows"] == len(expected)
        runner = ExperimentRunner(store=store)
        merged = runner.sweep(
            "muddy_children", {"n": [2, 3, 4, 5]}
        )
        assert runner.eval_count == 0
        assert all(report.from_store for report in merged)
        assert comparable(merged) == comparable(expected)


def test_store_shared_between_serial_and_parallel_runs(
    tmp_path, pool_after_first_point
):
    """Rows recorded by a parallel sweep resume a serial one, and vice versa."""
    path = str(tmp_path / "results.sqlite")
    with ResultStore(path) as store:
        parallel_runner = ExperimentRunner(store=store)
        fresh = parallel_runner.sweep("muddy_children", GRID, jobs=2)
        assert parallel_runner.pool_starts == 1
        assert parallel_runner.eval_count == len(fresh)

    with ResultStore(path) as store:
        serial_runner = ExperimentRunner(store=store)
        serial = serial_runner.sweep("muddy_children", GRID)
        assert serial_runner.eval_count == 0
        assert all(report.from_store for report in serial)
        assert comparable(serial) == comparable(fresh)

        wider = ExperimentRunner(store=store)
        grown = wider.sweep("muddy_children", {"n": [2, 3, 4, 5]}, jobs=2)
        assert wider.eval_count == 1  # only n=5 is new
        assert comparable(grown[:3]) == comparable(fresh)


def test_every_executor_keeps_rows_and_counters_in_parity(
    tmp_path, pool_after_first_point
):
    """Counter-parity differential across the sweep executors.

    The same half-recorded grid, resumed serially, at ``jobs=2`` and under a
    supervising policy (in process and pooled): identical rows, identical
    ``eval_count``/``store_hits`` and ``from_store`` flags, and a second
    resume evaluates nothing.  Both ``jobs=2`` modes reach the pool.
    """
    grid = {"n": [2, 3, 4, 5, 6]}
    supervising = FaultPolicy(on_error="skip", retries=1, retry_backoff=0.001)
    modes = {
        "serial": {},
        "jobs2": {"jobs": 2},
        "supervised": {"policy": supervising},
        "supervised_jobs2": {"jobs": 2, "policy": supervising},
    }
    outcomes = {}
    for name, options in modes.items():
        with ResultStore(str(tmp_path / f"{name}.sqlite")) as store:
            ExperimentRunner(store=store).sweep(
                "muddy_children", {"n": [2, 4]}
            )
            runner = ExperimentRunner(store=store)
            reports = runner.sweep(
                "muddy_children", grid, **options
            )
            resumed = ExperimentRunner(store=store)
            again = resumed.sweep(
                "muddy_children", grid, **options
            )
        assert runner.pool_starts == ("jobs" in options), name
        outcomes[name] = (
            comparable(reports),
            [report.from_store for report in reports],
            (runner.eval_count, runner.store_hits),
            (resumed.eval_count, resumed.store_hits),
            comparable(again),
        )
    for name in modes:
        assert outcomes[name] == outcomes["serial"], name
    assert outcomes["serial"][1] == [True, False, True, False, False]
    assert outcomes["serial"][2] == (3, 2)
    assert outcomes["serial"][3] == (0, 5)
    assert outcomes["serial"][4] == outcomes["serial"][0]
