"""Supervised fault-tolerant sweeps (:mod:`repro.experiments.supervise`).

Every fault here is injected deterministically through the chaos harness
(``REPRO_CHAOS``, :mod:`repro.experiments.chaos`), so the supervision
behaviours — retry/backoff, poison-point quarantine with salvaged neighbours,
watchdog reclamation of hung workers, bounded pool restarts, store
composition and the CLI exit-code contract — reproduce byte-for-byte.

Pool workers inherit the injection config (and its attempt-counting state
directory) through the environment at fork time, which is what lets a single
test fault a worker process from the parent's config.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.errors import ScenarioError, StoreError, SweepFaultError
from repro.experiments import ExperimentRunner, FaultPolicy, ResultStore
from repro.experiments.chaos import ENV_VAR
from repro.experiments.supervise import (
    attempt_record,
    quarantine_report,
    sweep_fault,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SKIP_FAST = FaultPolicy(on_error="skip", retries=0, retry_backoff=0.001)


def set_chaos(monkeypatch, tmp_path, faults, counted=False):
    """Point REPRO_CHAOS at ``faults`` (with a state dir when ``counted``)."""
    config = {"faults": faults}
    if counted:
        state = tmp_path / "chaos-state"
        state.mkdir(exist_ok=True)
        config["state_dir"] = str(state)
    monkeypatch.setenv(ENV_VAR, json.dumps(config))


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


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- FaultPolicy ----------------------------------------------------------------


def test_fault_policy_validation():
    with pytest.raises(ScenarioError, match="on_error"):
        FaultPolicy(on_error="explode")
    with pytest.raises(ScenarioError, match="retries"):
        FaultPolicy(retries=-1)
    with pytest.raises(ScenarioError, match="retries"):
        FaultPolicy(retries=True)
    with pytest.raises(ScenarioError, match="retry_backoff"):
        FaultPolicy(retry_backoff=-0.1)
    with pytest.raises(ScenarioError, match="timeout_per_point"):
        FaultPolicy(timeout_per_point=0)
    with pytest.raises(ScenarioError, match="max_pool_restarts"):
        FaultPolicy(max_pool_restarts=-1)


def test_fault_policy_supervised_property():
    """The default policy is exactly the historical behaviour: unsupervised."""
    assert not FaultPolicy().supervised
    assert FaultPolicy(on_error="skip").supervised
    assert FaultPolicy(retries=1).supervised
    assert FaultPolicy(timeout_per_point=5.0).supervised


def test_backoff_doubles_and_caps():
    policy = FaultPolicy(retries=50, retry_backoff=0.5)
    assert policy.backoff_seconds(1) == 0.5
    assert policy.backoff_seconds(2) == 1.0
    assert policy.backoff_seconds(3) == 2.0
    assert policy.backoff_seconds(100) == 30.0
    assert FaultPolicy(retry_backoff=0.0).backoff_seconds(5) == 0.0


def test_quarantine_report_shape():
    attempts = [
        attempt_record(1, "error", "ChaosInjectedError: boom"),
        attempt_record(2, "timeout", "watchdog expired"),
    ]
    report = quarantine_report("muddy_children", {"n": 4}, "bitset", False, attempts)
    assert report.error == {
        "kind": "timeout",
        "message": "watchdog expired",
        "attempts": attempts,
    }
    assert report.rows == [] and report.universe == 0
    # Round-trips through the dict form (the --json rendering) intact.
    rebuilt = type(report).from_dict(report.to_dict())
    assert rebuilt.error == report.error


def test_sweep_fault_names_the_point_and_history():
    error = sweep_fault(
        "muddy_children",
        {"n": 4, "k": 1},
        "frozenset",
        [attempt_record(1, "crash", "worker died")],
    )
    assert isinstance(error, SweepFaultError)
    assert error.scenario == "muddy_children"
    assert error.params == {"k": 1, "n": 4}
    assert error.backend == "frozenset"
    assert "attempt 1 [crash] worker died" in str(error)


# -- serial supervised execution ------------------------------------------------


def test_serial_skip_quarantines_the_poison_point(monkeypatch, tmp_path):
    set_chaos(monkeypatch, tmp_path, [{"kind": "raise", "params": {"n": 3}}])
    runner = ExperimentRunner()
    reports = runner.sweep("muddy_children", {"n": [2, 3, 4]}, policy=SKIP_FAST)
    assert [r.error is None for r in reports] == [True, False, True]
    bad = reports[1]
    assert bad.error["kind"] == "error"
    assert "ChaosInjectedError" in bad.error["message"]
    assert runner.quarantined == 1 and runner.retries == 0

    monkeypatch.delenv(ENV_VAR)
    clean = ExperimentRunner().sweep("muddy_children", {"n": [2, 4]})
    assert comparable([reports[0], reports[2]]) == comparable(clean)


def test_serial_abort_raises_the_exact_point(monkeypatch, tmp_path):
    set_chaos(monkeypatch, tmp_path, [{"kind": "raise", "params": {"n": 3}}])
    runner = ExperimentRunner()
    with pytest.raises(SweepFaultError) as exc:
        runner.sweep(
            "muddy_children",
            {"n": [2, 3, 4]},
            policy=FaultPolicy(on_error="abort", retries=1, retry_backoff=0.001),
        )
    assert exc.value.params["n"] == 3
    assert len(exc.value.attempts) == 2  # first try + one retry
    assert runner.retries == 1


def test_serial_retries_heal_a_transient_fault(monkeypatch, tmp_path):
    set_chaos(
        monkeypatch,
        tmp_path,
        [{"kind": "raise", "params": {"n": 3}, "failures": 2}],
        counted=True,
    )
    runner = ExperimentRunner()
    reports = runner.sweep(
        "muddy_children",
        {"n": [2, 3, 4]},
        policy=FaultPolicy(on_error="abort", retries=2, retry_backoff=0.001),
    )
    assert all(report.error is None for report in reports)
    assert runner.retries == 2 and runner.quarantined == 0

    monkeypatch.delenv(ENV_VAR)
    clean = ExperimentRunner().sweep("muddy_children", {"n": [2, 3, 4]})
    assert comparable(reports) == comparable(clean)


def test_invalid_grid_params_settle_without_burning_retries(monkeypatch):
    """A schema-level validation error (n = -1) is quarantined on attempt 1 —
    re-running a deterministic parameter rejection would just burn the budget."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    runner = ExperimentRunner()
    reports = runner.sweep(
        "muddy_children",
        {"n": [2, -1]},
        policy=FaultPolicy(on_error="skip", retries=3, retry_backoff=0.001),
    )
    assert reports[0].error is None
    assert reports[1].error is not None
    assert "must be >= 1" in reports[1].error["message"]
    assert len(reports[1].error["attempts"]) == 1  # no pointless retries
    assert runner.retries == 0 and runner.quarantined == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_preflight_failures_settle_without_burning_retries(monkeypatch, jobs):
    """A batch the static pre-flight rejects for one grid point (child_2 does
    not exist at n=2) is as deterministic as a bad parameter: it settles at
    plan time as a one-attempt quarantine row — no retry, no backoff sleep,
    no bisection — on the in-process executor and under the pool alike."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    runner = ExperimentRunner()
    reports = runner.sweep(
        "muddy_children",
        {"n": [2, 3]},
        formulas=["K_child_2 at_least_one"],
        jobs=jobs,
        policy=FaultPolicy(on_error="skip", retries=2, retry_backoff=0.2),
    )
    assert reports[0].error is not None and reports[1].error is None
    assert "CheckError" in reports[0].error["message"]
    assert len(reports[0].error["attempts"]) == 1
    assert runner.retries == 0 and runner.quarantined == 1
    assert runner.eval_count == 1


def test_builder_errors_are_retried_then_quarantined(monkeypatch):
    """A *build-time* failure (k > n passes the schema, the builder rejects
    it) is indistinguishable from a transient fault, so it consumes the retry
    budget before settling."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    runner = ExperimentRunner()
    reports = runner.sweep(
        "muddy_children",
        {"n": [6, 2], "k": [5]},
        policy=FaultPolicy(on_error="skip", retries=1, retry_backoff=0.001),
    )
    assert reports[0].error is None
    assert reports[1].error is not None
    assert "between 0 and n" in reports[1].error["message"]
    assert len(reports[1].error["attempts"]) == 2
    assert runner.retries == 1 and runner.quarantined == 1


# -- supervised pool execution --------------------------------------------------


def test_parallel_supervised_clean_sweep_matches_serial(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    grid = {"n": [2, 3, 4, 5]}
    supervised = ExperimentRunner().sweep(
        "muddy_children", grid, jobs=2, policy=SKIP_FAST
    )
    serial = ExperimentRunner().sweep("muddy_children", grid)
    assert comparable(supervised) == comparable(serial)


def test_parallel_poison_point_is_bisected_out_of_its_chunk(monkeypatch, tmp_path):
    """12 grid points at jobs=2 chunk in pairs: the poison point's chunk
    partner must be salvaged, and only the poison point quarantined."""
    set_chaos(
        monkeypatch,
        tmp_path,
        [{"kind": "raise", "params": {"n": 5, "k": 2}}],
    )
    grid = {"k": [1, 2], "n": [2, 3, 4, 5, 6, 7]}
    runner = ExperimentRunner()
    reports = runner.sweep("muddy_children", grid, jobs=2, policy=SKIP_FAST)
    assert len(reports) == 12
    bad = [report for report in reports if report.error is not None]
    assert len(bad) == 1 and runner.quarantined == 1
    assert bad[0].params["n"] == 5 and bad[0].params["k"] == 2
    assert "ChaosInjectedError" in bad[0].error["message"]

    monkeypatch.delenv(ENV_VAR)
    clean = ExperimentRunner().sweep("muddy_children", grid)
    healthy_expected = [
        entry
        for report, entry in zip(clean, comparable(clean))
        if not (report.params["n"] == 5 and report.params["k"] == 2)
    ]
    healthy = [r for r in reports if r.error is None]
    assert comparable(healthy) == healthy_expected


def test_parallel_sigkilled_worker_is_attributed_and_quarantined(
    monkeypatch, tmp_path
):
    set_chaos(monkeypatch, tmp_path, [{"kind": "sigkill", "params": {"n": 4}}])
    runner = ExperimentRunner()
    reports = runner.sweep(
        "muddy_children", {"n": [2, 3, 4, 5, 6]}, jobs=2, policy=SKIP_FAST
    )
    bad = [report for report in reports if report.error is not None]
    assert [report.params["n"] for report in bad] == [4]
    assert bad[0].error["kind"] == "crash"
    assert "worker process died" in bad[0].error["message"]


def test_watchdog_reclaims_a_hung_point(monkeypatch, tmp_path):
    set_chaos(
        monkeypatch,
        tmp_path,
        [{"kind": "hang", "params": {"n": 4}, "hang_seconds": 120}],
    )
    runner = ExperimentRunner()
    reports = runner.sweep(
        "muddy_children",
        {"n": [2, 3, 4, 5]},
        jobs=2,
        policy=FaultPolicy(
            on_error="skip", retries=0, retry_backoff=0.001, timeout_per_point=1.0
        ),
    )
    bad = [report for report in reports if report.error is not None]
    assert [report.params["n"] for report in bad] == [4]
    assert bad[0].error["kind"] == "timeout"
    assert "watchdog expired" in bad[0].error["message"]


def test_pool_restart_budget_bounds_crash_thrashing(monkeypatch, tmp_path):
    set_chaos(monkeypatch, tmp_path, [{"kind": "sigkill", "params": {"n": 3}}])
    runner = ExperimentRunner()
    with pytest.raises(SweepFaultError, match="pool restarts"):
        runner.sweep(
            "muddy_children",
            {"n": [2, 3, 4]},
            jobs=2,
            policy=FaultPolicy(
                on_error="skip",
                retries=0,
                retry_backoff=0.001,
                max_pool_restarts=0,
            ),
        )


# -- store composition ----------------------------------------------------------


def test_store_refuses_quarantined_reports(tmp_path):
    report = quarantine_report(
        "muddy_children", {"n": 4}, "frozenset", False, [attempt_record(1, "error", "x")]
    )
    from repro.experiments.store import StoreKey

    key = StoreKey.for_request("muddy_children", (("n", 4),), [], "frozenset", False)
    with ResultStore(str(tmp_path / "store.sqlite")) as store:
        with pytest.raises(StoreError, match="quarantined"):
            store.put(key, report)


def test_quarantined_points_are_not_persisted_and_resume_reattempts_them(
    monkeypatch, tmp_path
):
    """The acceptance-criteria flow, serially: fault → quarantine → heal →
    resume evaluates exactly the quarantined point."""
    store_path = str(tmp_path / "store.sqlite")
    set_chaos(monkeypatch, tmp_path, [{"kind": "raise", "params": {"n": 3}}])
    with ResultStore(store_path) as store:
        runner = ExperimentRunner(store=store, resume=True)
        first = runner.sweep("muddy_children", {"n": [2, 3, 4]}, policy=SKIP_FAST)
        assert [r.error is None for r in first] == [True, False, True]
        assert store.stats()["rows"] == 2  # the failure was never recorded

    monkeypatch.delenv(ENV_VAR)
    with ResultStore(store_path) as store:
        runner = ExperimentRunner(store=store, resume=True)
        resumed = runner.sweep("muddy_children", {"n": [2, 3, 4]}, policy=SKIP_FAST)
        assert all(report.error is None for report in resumed)
        assert runner.eval_count == 1  # only n=3 was re-attempted
        assert runner.store_hits == 2
        assert store.stats()["rows"] == 3

    clean = ExperimentRunner().sweep("muddy_children", {"n": [2, 3, 4]})
    assert comparable(resumed) == comparable(clean)


def test_acceptance_e2e_poison_sigkill_and_hang_under_jobs_2(monkeypatch, tmp_path):
    """The ISSUE's acceptance scenario: one permanent poison raise, one
    transient SIGKILL, one transient hang past the watchdog, at
    ``jobs=2 --on-error skip --retries 2``.  Healthy rows match a fault-free
    serial sweep, exactly the poison point is quarantined, the store holds no
    duplicates, and a follow-up resume re-attempts only the quarantined point.
    """
    store_path = str(tmp_path / "store.sqlite")
    set_chaos(
        monkeypatch,
        tmp_path,
        [
            {"kind": "raise", "params": {"n": 3}},
            {"kind": "sigkill", "params": {"n": 5}, "failures": 1},
            {"kind": "hang", "params": {"n": 6}, "failures": 1, "hang_seconds": 120},
        ],
        counted=True,
    )
    grid = {"n": [2, 3, 4, 5, 6, 7]}
    policy = FaultPolicy(
        on_error="skip", retries=2, retry_backoff=0.001, timeout_per_point=1.5
    )
    with ResultStore(store_path) as store:
        runner = ExperimentRunner(store=store, resume=True)
        reports = runner.sweep("muddy_children", grid, jobs=2, policy=policy)
        assert len(reports) == 6
        bad = [report for report in reports if report.error is not None]
        assert [report.params["n"] for report in bad] == [3]
        assert runner.quarantined == 1
        assert runner.retries >= 2  # poison retried; transients healed on retry
        assert store.stats()["rows"] == 5  # healthy rows only, no duplicates

    monkeypatch.delenv(ENV_VAR)
    clean = ExperimentRunner().sweep("muddy_children", grid)
    healthy = [report for report in reports if report.error is None]
    healthy_expected = [
        entry
        for report, entry in zip(clean, comparable(clean))
        if report.params["n"] != 3
    ]
    assert comparable(healthy) == healthy_expected

    with ResultStore(store_path) as store:
        runner = ExperimentRunner(store=store, resume=True)
        resumed = runner.sweep("muddy_children", grid, jobs=2, policy=policy)
        assert all(report.error is None for report in resumed)
        assert runner.eval_count == 1  # resume re-attempts only the poison point
        assert runner.store_hits == 5
    assert comparable(resumed) == comparable(clean)


# -- CLI surface ----------------------------------------------------------------


def test_cli_sweep_exit_0_when_clean(monkeypatch, capsys):
    monkeypatch.delenv(ENV_VAR, raising=False)
    code, out, _ = run_cli(
        capsys,
        "sweep", "muddy_children", "-g", "n=2,3", "--no-store",
        "--on-error", "skip", "--retries", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert all("error" not in element for element in payload)


def test_cli_sweep_exit_3_and_failure_summary_on_quarantine(
    monkeypatch, tmp_path, capsys
):
    set_chaos(monkeypatch, tmp_path, [{"kind": "raise", "params": {"n": 3}}])
    code, out, _ = run_cli(
        capsys,
        "sweep", "muddy_children", "-g", "n=2..4", "--no-store",
        "--on-error", "skip", "--retry-backoff", "0.001",
    )
    assert code == 3
    assert "failure summary: 1 of 3 grid point(s) quarantined" in out
    assert "ChaosInjectedError" in out

    code, out, _ = run_cli(
        capsys,
        "sweep", "muddy_children", "-g", "n=2..4", "--no-store",
        "--on-error", "skip", "--retry-backoff", "0.001", "--json",
    )
    assert code == 3
    payload = json.loads(out)
    assert len(payload) == 4  # three reports + the failure-summary trailer
    summary = payload[-1]["failure_summary"]
    assert summary["quarantined"] == 1
    assert summary["points"][0]["params"]["n"] == 3
    assert payload[1]["error"]["kind"] == "error"


def test_cli_sweep_exit_1_on_abort(monkeypatch, tmp_path, capsys):
    set_chaos(monkeypatch, tmp_path, [{"kind": "raise", "params": {"n": 3}}])
    code, out, err = run_cli(
        capsys,
        "sweep", "muddy_children", "-g", "n=2..4", "--no-store",
        "--retry-backoff", "0.001", "--json",
    )
    assert code == 1
    assert "sweep aborted" in err and "n" in err
    payload = json.loads(out)  # well-formed prefix, no trailer
    assert [element["params"]["n"] for element in payload] == [2]


def test_cli_sweep_bad_policy_flags_are_usage_errors(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "muddy_children", "-g", "n=2,3", "--no-store", "--retries", "-1",
    )
    assert code == 2
    assert "retries" in err


def test_cli_sigint_closes_json_and_commits_store(monkeypatch, tmp_path):
    """Ctrl-C mid-sweep: exit 130, a well-formed --json array holding the
    completed prefix, completed rows committed to the store, and the hung
    worker (plus queued chunks) torn down promptly."""
    store_path = str(tmp_path / "store.sqlite")
    state = tmp_path / "chaos-state"
    state.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env[ENV_VAR] = json.dumps(
        {"faults": [{"kind": "hang", "params": {"n": 6}, "hang_seconds": 600}]}
    )
    env.pop("REPRO_STORE", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep", "muddy_children",
            "-g", "n=2..6", "--jobs", "2", "--on-error", "skip",
            "--store", store_path, "--json",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    seen = []
    for line in proc.stdout:
        seen.append(line)
        if '"n": 5' in line:  # n=2..5 completed; n=6 is hanging in a worker
            break
    else:  # pragma: no cover - only on harness failure
        proc.kill()
        pytest.fail("sweep never streamed its healthy prefix:\n" + "".join(seen))
    os.kill(proc.pid, signal.SIGINT)
    # Drain the same buffered file objects the line iterator used;
    # proc.communicate() would bypass their read-ahead and drop bytes.
    rest = proc.stdout.read()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    out = "".join(seen) + rest
    assert proc.returncode == 130, err
    assert "interrupted" in err
    payload = json.loads(out)  # the array was closed, not truncated
    assert [element["params"]["n"] for element in payload] == [2, 3, 4, 5]
    with ResultStore(store_path) as store:
        assert store.stats()["rows"] == 4  # completed rows were committed
