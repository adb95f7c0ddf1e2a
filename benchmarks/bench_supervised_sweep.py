"""E18 — supervised fault-tolerant sweeps: overhead and recovery wall-clock.

The supervision layer (``FaultPolicy`` + ``SweepSupervisor``, PR 8) exists to
keep long sweeps alive through worker crashes, hangs and poison points.  Its
two quantitative claims:

* **Near-zero overhead on the happy path** — a supervised sweep of a healthy
  grid returns rows identical to the unsupervised sweep, and costs at most a
  small constant factor over it (the serial supervised path is a retry loop
  wrapper; the parallel path adds chunk bookkeeping but no extra evaluation).
* **Recovery time scales with the watchdog timeout, not the fault** — a grid
  point hung for 600 s under ``timeout_per_point=1.0`` is reclaimed and
  quarantined in seconds: the sweep's wall-clock is bounded by the timeout
  budget, never by how long the hung worker would have slept.

Both claims are pinned here; the full fault-matrix differentials (poison
bisection, SIGKILL attribution, transient healing, resume-after-quarantine)
live in ``tests/test_supervise.py``.
"""

import json
import time

import pytest

from repro.engine import get_default_backend
from repro.experiments import ExperimentRunner, FaultPolicy
from repro.experiments.chaos import ENV_VAR

OVERHEAD_CEILING = 2.0
RECOVERY_CEILING_SECONDS = 30.0
HANG_SECONDS = 600.0

SCENARIO = "muddy_children"
GRID = {"n": [2, 3, 4, 5, 6, 7]}
SMALL_GRID = {"n": [2, 3]}

POLICY = FaultPolicy(on_error="skip", retries=2, retry_backoff=0.01)


def run_sweep(policy=None, grid=None, jobs=1):
    """One end-to-end sweep — fresh runner, so nothing is cached across calls."""
    runner = ExperimentRunner()
    reports = runner.sweep(
        SCENARIO,
        grid if grid is not None else GRID,
        jobs=jobs,
        policy=policy,
    )
    return runner, reports


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
            report.error,
            [tuple(sorted(row.to_dict().items())) for row in report.rows],
        )
        for report in reports
    ]


def _best_of(callable_, repetitions=2):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


# -- measurements ---------------------------------------------------------------


def test_supervised_clean_sweep_matches_unsupervised():
    """On a healthy grid, supervision is observably absent from the rows."""
    _, plain = run_sweep(policy=None, grid=SMALL_GRID)
    runner, supervised = run_sweep(policy=POLICY, grid=SMALL_GRID)
    assert comparable_rows(supervised) == comparable_rows(plain)
    assert runner.retries == 0
    assert runner.quarantined == 0


@pytest.mark.parametrize("supervised", (False, True), ids=("plain", "supervised"))
def test_sweep_wall_clock(benchmark, supervised, request):
    """Time the same healthy sweep with and without a fault policy attached."""
    smoke = request.config.getoption("--benchmark-disable")
    grid = SMALL_GRID if smoke else GRID
    policy = POLICY if supervised else None
    benchmark.extra_info["backend"] = get_default_backend()
    benchmark.extra_info["supervised"] = supervised
    _, reports = benchmark.pedantic(
        run_sweep, kwargs={"policy": policy, "grid": grid}, rounds=2, iterations=1
    )
    assert len(reports) == len(grid["n"])
    assert all(report.error is None for report in reports)


def test_supervision_overhead_bounded(request):
    """A fault policy on a healthy serial sweep costs < OVERHEAD_CEILING x."""
    if request.config.getoption("--benchmark-disable"):
        pytest.skip("timing assertion runs only when benchmarks are enabled")
    plain_time = _best_of(lambda: run_sweep(policy=None))
    supervised_time = _best_of(lambda: run_sweep(policy=POLICY))
    assert supervised_time <= plain_time * OVERHEAD_CEILING, (
        f"supervised sweep ({supervised_time * 1e3:.0f} ms) should cost at "
        f"most {OVERHEAD_CEILING}x the plain sweep ({plain_time * 1e3:.0f} ms)"
    )


def test_watchdog_recovery_is_bounded_by_the_timeout(request, monkeypatch):
    """A 600 s hang is reclaimed in seconds under ``timeout_per_point=1.0``.

    The point of the watchdog is exactly this asymmetry: the sweep's
    wall-clock tracks the *timeout budget* (timeout x chunk size, plus pool
    respawn), not the fault's duration.  Smoke runs skip it — the measurement
    IS the claim, and it costs a few real seconds of killing and respawning
    workers.
    """
    if request.config.getoption("--benchmark-disable"):
        pytest.skip("recovery timing runs only when benchmarks are enabled")
    hung_n = GRID["n"][-1]
    monkeypatch.setenv(
        ENV_VAR,
        json.dumps(
            {
                "faults": [
                    {
                        "kind": "hang",
                        "params": {"n": hung_n},
                        "hang_seconds": HANG_SECONDS,
                    }
                ]
            }
        ),
    )
    policy = FaultPolicy(on_error="skip", retries=0, timeout_per_point=1.0)
    start = time.perf_counter()
    runner, reports = run_sweep(policy=policy, jobs=2)
    elapsed = time.perf_counter() - start
    assert elapsed < RECOVERY_CEILING_SECONDS < HANG_SECONDS, (
        f"hung-point sweep took {elapsed:.1f} s; the watchdog should bound "
        f"recovery near the 1 s per-point timeout, not the {HANG_SECONDS:.0f} s hang"
    )
    quarantined = [report for report in reports if report.error is not None]
    assert [report.params["n"] for report in quarantined] == [hung_n]
    assert quarantined[0].error["kind"] == "timeout"
    assert runner.quarantined == 1
