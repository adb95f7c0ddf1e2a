"""The sweep process pool, supervised by a :class:`FaultPolicy`.

:class:`SweepSupervisor` is the only code in the package that runs a
process pool (``tools/lint_repo.py`` rule LNT004 keeps it that way).  The
runner's sweep pipeline — plan, partition against the store, execute, merge
(see :meth:`~repro.experiments.runner.ExperimentRunner.execute`) — hands
it the store misses whenever a sweep needs a pool: a watchdog, a
supervised ``jobs > 1`` sweep, or a fail-fast ``jobs > 1`` sweep whose
measured work so far says the pool pays for its start-up
(:func:`~repro.experiments.runner.pool_pays`).  The policy decides how a
failing grid point degrades:

* **Fail fast** (the default policy, :attr:`FaultPolicy.supervised` false) —
  the first failure in grid order is re-raised unchanged, after every row
  before it has streamed; no bisection, retry or pool restart.
* **Retries with exponential backoff** — a failed grid point is re-attempted
  up to ``retries`` times, waiting ``retry_backoff * 2**(failures-1)`` seconds
  between attempts, so transient faults (OOM kills, flaky builders) heal
  without human help.
* **Watchdog timeouts** — with ``timeout_per_point`` set, every submitted
  chunk gets a deadline of ``timeout_per_point × points`` (plus a fixed grace
  for pool spin-up).  An expired chunk's pool is killed — a hung worker cannot
  be recovered any other way — innocent in-flight chunks are resubmitted, and
  the expired chunk re-enters supervision as a failure.
* **Bounded pool restarts** — a ``BrokenProcessPool`` (worker ``SIGKILL``/OOM)
  or a watchdog kill discards and respawns the pool; more than
  ``max_pool_restarts`` restarts in one sweep raises
  :class:`~repro.errors.SweepFaultError` instead of thrashing forever.
* **Bisection down to the poison point** — a failed multi-point chunk is split
  in half and re-run, recursively, until the failure is isolated to a single
  grid point; the healthy points of the chunk are salvaged (deterministic
  evaluation re-produces their rows bit-for-bit) and only the true poison
  point is retried/quarantined.  Crash- and timeout-bisected halves run
  *cautiously* — one at a time — because the next pool break is how the
  culprit is attributed.
* **Quarantine** (``on_error="skip"``) — a point that exhausts its retry
  budget becomes a structured error row (an
  :class:`~repro.experiments.runner.ExperimentReport` with its ``error`` field
  set, carrying the full attempt history) merged in deterministic grid order
  with the healthy rows; ``on_error="abort"`` raises
  :class:`~repro.errors.SweepFaultError` naming the point instead.

The policy itself — :class:`FaultPolicy` and the retry-or-settle rule
:func:`settle_failure` for a single point — lives in
:mod:`repro.experiments.policy`, shared with the runner's in-process executor
(and re-exported here), so only a pool sweep imports this module.  Workers evaluate the planned
specs without re-validating them and never touch the store: the runner
records healthy rows and *skips* quarantined ones, so a later ``--resume``
re-attempts exactly the quarantined points.
"""

from __future__ import annotations

import gc
import queue
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import get_default_backend, set_default_backend
from repro.errors import ScenarioError, SweepFaultError
from repro.experiments.parallel import RunSpec
from repro.experiments.policy import (
    ON_ERROR_MODES,
    FaultPolicy,
    attempt_record,
    describe_failure,
    quarantine_report,
    settle_failure,
    sweep_fault,
)
from repro.experiments.registry import load_builtin_scenarios, params_from_key
from repro.experiments.runner import ExperimentReport, ExperimentRunner

__all__ = [
    "ON_ERROR_MODES",
    "FaultPolicy",
    "SweepSupervisor",
    "attempt_record",
    "describe_failure",
    "quarantine_report",
    "settle_failure",
    "sweep_fault",
]

DEADLINE_GRACE_SECONDS = 1.0
"""Fixed slack added to every chunk deadline.

Covers what ``timeout_per_point`` should not have to: pool spin-up (fork +
worker initializer), submission latency, and scheduler jitter on loaded
machines.  Without it a 1-point chunk whose evaluation fits the budget could
still trip the watchdog on a cold pool.
"""

IDLE_WAKE_SECONDS = 1.0
"""Longest the supervisor sleeps waiting on the pool.

A Ctrl-C can land on a pool helper thread (the CLI blocks SIGINT in the main
thread while it writes a row); CPython runs the handler only once the main
thread runs again, so an untimed wait on a hung chunk could swallow it.
"""

DEFAULT_CHUNKS_PER_WORKER = 4
"""How many chunks each worker gets on average.

More chunks than workers smooths out uneven grid points (a temporal-heavy
horizon=6 point can take many times longer than horizon=3) at the cost of a
little more submission overhead; four per worker is a conventional balance.
"""


# One runner per worker process, created by the pool initializer.  Module-level
# because ProcessPoolExecutor tasks can only reach per-process state through
# globals; the parent process never touches it.
_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _init_worker(max_cached_instances: int, backend: str) -> None:
    """Pool initializer: build this worker's runner and load the registry.

    ``backend`` is the parent's engine default, so workers evaluate on the
    same backend as the parent whatever the process start method.
    """
    global _WORKER_RUNNER
    # A forked worker inherits the parent's heap.  Frozen, it is left out of
    # the worker's full collections, which would otherwise traverse (and so
    # copy) every inherited page, as often as the parent's object count lets
    # the collector's long-lived threshold trip.
    gc.freeze()
    set_default_backend(backend)
    load_builtin_scenarios()
    _WORKER_RUNNER = ExperimentRunner(max_cached_instances=max_cached_instances)


def _run_chunk(specs: Sequence[RunSpec]) -> List[ExperimentReport]:
    """Evaluate one contiguous chunk of planned grid points in this worker."""
    runner = _WORKER_RUNNER
    if runner is None:  # pragma: no cover - initializer always runs first
        raise ScenarioError("sweep worker used before initialization")
    return [runner._evaluate(spec) for spec in specs]


def _chunked(specs: Sequence[RunSpec], jobs: int) -> List[Sequence[RunSpec]]:
    """Split ``specs`` into contiguous chunks sized for ``jobs`` workers."""
    size = max(1, -(-len(specs) // (jobs * DEFAULT_CHUNKS_PER_WORKER)))
    return [specs[start : start + size] for start in range(0, len(specs), size)]


class _Unit:
    """One schedulable slice of the grid: contiguous specs plus retry state.

    ``attempts`` only accumulates once the unit has been bisected down to a
    single spec — multi-point units are split on failure, never retried, so a
    retry budget is always spent on the exact poison point.  ``ready_at`` is
    the backoff gate: the supervisor will not resubmit the unit before then.
    """

    __slots__ = ("start", "specs", "attempts", "ready_at")

    def __init__(self, start: int, specs: Sequence[RunSpec]):
        self.start = start
        self.specs = tuple(specs)
        self.attempts: List[Dict[str, object]] = []
        self.ready_at = 0.0


class SweepSupervisor:
    """Run a spec list through a supervised worker pool (see module docs).

    The public surface is :meth:`run` — a generator yielding one report per
    spec, healthy or quarantined, in grid order — plus the counters ``retries``
    (re-attempts performed), ``quarantined`` (points given up on),
    ``pool_starts`` (pools started, restarts included) and ``pool_restarts``
    (pools discarded after a crash or watchdog kill); the runner folds the
    first three into its own totals.  A supervisor runs its specs once.
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        jobs: int,
        policy: FaultPolicy,
        max_cached_instances: Optional[int] = None,
    ):
        from repro.experiments.runner import DEFAULT_MAX_CACHED_INSTANCES

        self.specs = list(specs)
        chunks = _chunked(self.specs, max(1, int(jobs)))
        # No more workers than chunks: a short grid never forks idle workers.
        self.jobs = max(1, min(int(jobs), len(chunks)))
        self.policy = policy
        self.max_cached_instances = (
            DEFAULT_MAX_CACHED_INSTANCES
            if max_cached_instances is None
            else max_cached_instances
        )
        self.retries = 0
        self.quarantined = 0
        self.pool_starts = 0
        self.pool_restarts = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending: Deque[_Unit] = deque()
        offset = 0
        for chunk in chunks:
            self._pending.append(_Unit(offset, chunk))
            offset += len(chunk)
        # Units suspected of crashing or hanging a worker run from this queue,
        # one at a time, so the next pool break identifies its culprit exactly.
        self._cautious: Deque[_Unit] = deque()
        self._inflight: Dict[object, Tuple[_Unit, Optional[float]]] = {}
        # Reports by grid index; under the fail-fast policy a failed chunk
        # leaves its exception at its first index, raised once every row
        # before it has been yielded.
        self._buffer: Dict[int, object] = {}
        # Finished futures, put by their done-callbacks.  The loop blocks on
        # this queue instead of ``concurrent.futures.wait``, whose lock loop a
        # Ctrl-C can interrupt halfway, leaving future locks held so that the
        # pool's manager thread deadlocks interpreter exit.
        self._done: "queue.SimpleQueue[object]" = queue.SimpleQueue()

    # -- pool lifecycle --------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.max_cached_instances, get_default_backend()),
            )
            self.pool_starts += 1
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down *now*, killing hung or orphaned workers.

        ``shutdown`` alone never returns a hung worker: its process would keep
        sleeping, and the interpreter's atexit hook would then block on joining
        it.  The worker processes are reached through the executor's private
        ``_processes`` map — stable since 3.7 and the only handle there is —
        and killed outright; the pool object is discarded either way.  The
        killed workers are then reaped by the executor's manager thread alone,
        which ``shutdown(wait=True)`` waits for: a second thread joining the
        same processes could lose the ``waitpid`` race and leave a dead child
        registered in :func:`multiprocessing.active_children`.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                if process.is_alive():
                    process.kill()
            except (OSError, ValueError):  # pragma: no cover - already reaped
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _restart_pool(self, reason: str, suspect: _Unit) -> None:
        """Discard the pool, counting the restart against the policy budget."""
        self._discard_pool()
        self.pool_restarts += 1
        if self.pool_restarts > self.policy.max_pool_restarts:
            spec = suspect.specs[0]
            raise SweepFaultError(
                f"sweep gave up after {self.pool_restarts} pool restarts "
                f"({reason}); first suspect grid point: {spec.scenario} "
                f"{dict(spec.params_key)}",
                scenario=spec.scenario,
                params=params_from_key(spec.params_key),
                attempts=list(suspect.attempts),
            )

    # -- the supervision loop --------------------------------------------------
    def run(self) -> Iterator[ExperimentReport]:
        """Yield one report per spec, in grid order, surviving point faults."""
        buffer = self._buffer
        emit = 0
        total = len(self.specs)
        try:
            while emit < total:
                while emit in buffer:
                    report = buffer.pop(emit)
                    if isinstance(report, BaseException):
                        raise report
                    yield report
                    emit += 1
                if emit >= total:
                    break
                now = time.monotonic()
                self._submit_ready(now)
                if not self._inflight:
                    waiting = list(self._cautious) + list(self._pending)
                    if not waiting and emit not in buffer:
                        raise ScenarioError(
                            "internal error: sweep supervisor lost track of "
                            f"{total - emit} grid point(s)"
                        )  # pragma: no cover - invariant guard
                    if waiting:
                        # Everything runnable is backing off; sleep to the
                        # earliest retry gate.
                        wake = min(unit.ready_at for unit in waiting)
                        time.sleep(min(max(wake - time.monotonic(), 0.0), 1.0))
                    continue
                try:
                    self._handle_done(self._done.get(timeout=self._wait_timeout(now)))
                except queue.Empty:
                    pass
                self._expire_deadlines()
        finally:
            self._discard_pool()

    # -- scheduling ------------------------------------------------------------
    @staticmethod
    def _take_ready(units: Deque[_Unit], now: float) -> Optional[_Unit]:
        for index, unit in enumerate(units):
            if unit.ready_at <= now:
                del units[index]
                return unit
        return None

    def _submit_ready(self, now: float) -> None:
        # In cautious mode exactly one unit runs in the whole pool.  A
        # supervised pool keeps one chunk per worker in flight, so watchdog
        # deadlines measure *running* time and a crash indicts few chunks; a
        # fail-fast pool queues every chunk at once, so workers never wait on
        # this thread between chunks.
        source = self._cautious if self._cautious else self._pending
        if self._cautious:
            limit = 1
        elif self.policy.supervised:
            limit = self.jobs
        else:
            limit = len(self.specs)
        capacity = limit - len(self._inflight)
        while capacity > 0 and source:
            unit = self._take_ready(source, now)
            if unit is None:
                break
            try:
                future = self._ensure_pool().submit(_run_chunk, list(unit.specs))
            except BrokenProcessPool as error:
                if not self.policy.supervised:
                    self._buffer[unit.start] = error
                    return
                # The pool died between submissions (a worker was killed while
                # idle); everything in flight is suspect, this unit included.
                self._recover_broken_pool(unit, error)
                return
            future.add_done_callback(self._done.put)
            deadline = None
            if self.policy.timeout_per_point is not None:
                deadline = (
                    time.monotonic()
                    + self.policy.timeout_per_point * len(unit.specs)
                    + DEADLINE_GRACE_SECONDS
                )
            self._inflight[future] = (unit, deadline)
            capacity -= 1

    def _wait_timeout(self, now: float) -> float:
        marks = [d for _, d in self._inflight.values() if d is not None]
        marks += [
            unit.ready_at
            for unit in list(self._pending) + list(self._cautious)
            if unit.ready_at > now
        ]
        if not marks:
            return IDLE_WAKE_SECONDS
        return min(max(min(marks) - now, 0.0) + 0.01, IDLE_WAKE_SECONDS)

    # -- completion and failure handling ---------------------------------------
    def _harvest(self, unit: _Unit, reports: Sequence[ExperimentReport]) -> None:
        for index, report in enumerate(reports):
            self._buffer[unit.start + index] = report

    def _handle_done(self, future) -> None:
        entry = self._inflight.pop(future, None)
        if entry is None:
            return  # already harvested, or from a discarded pool
        unit, _ = entry
        try:
            reports = future.result(timeout=0)
        except Exception as error:
            if not self.policy.supervised:
                self._buffer[unit.start] = error
            elif isinstance(error, BrokenProcessPool):
                self._recover_broken_pool(unit, error)
            else:
                # The worker raised and said so: the pool is healthy, the
                # culprit chunk is known. Bisect or retry in parallel mode.
                self._failed(unit, "error", describe_failure(error), crash=False)
        else:
            self._harvest(unit, reports)

    def _recover_broken_pool(self, first_suspect: _Unit, error: BaseException) -> None:
        """A worker died without a word (SIGKILL, OOM): rebuild and attribute.

        Completed results still held by other futures are harvested first.
        Every unit that was in flight is a *suspect* — the executor cannot say
        whose worker died — so suspects re-run cautiously, one at a time; when
        a pool with a single unit in flight breaks, that unit is the proven
        culprit and takes the failure.
        """
        suspects = [first_suspect]
        for future, (unit, _) in list(self._inflight.items()):
            try:
                self._harvest(unit, future.result(timeout=0))
            except Exception:  # still running, or broken with the pool
                suspects.append(unit)
        self._inflight.clear()
        self._restart_pool("a worker process died unexpectedly", suspects[0])
        if len(suspects) == 1:
            # Alone in the pool: proven culprit.
            self._failed(
                suspects[0],
                "crash",
                f"worker process died during this chunk ({describe_failure(error)})",
                crash=True,
            )
            return
        for unit in sorted(suspects, key=lambda u: u.start, reverse=True):
            self._cautious.appendleft(unit)

    def _expire_deadlines(self) -> None:
        if self.policy.timeout_per_point is None or not self._inflight:
            return
        now = time.monotonic()
        expired = [
            future
            for future, (_, deadline) in self._inflight.items()
            if deadline is not None and now >= deadline and not future.done()
        ]
        if not expired:
            return
        # A hung worker can only be stopped by killing the pool, which also
        # discards the innocent chunks' workers: harvest what finished, then
        # resubmit the innocents and route the expired units through failure
        # handling.
        for future in list(self._inflight):
            if future not in expired and future.done():
                self._handle_done(future)
        expired_units = [
            self._inflight[future][0] for future in expired if future in self._inflight
        ]
        innocents = [
            unit
            for future, (unit, _) in self._inflight.items()
            if future not in expired
        ]
        if not expired_units:  # pragma: no cover - harvested by a racing break
            return
        self._inflight.clear()
        self._restart_pool("a worker exceeded the point watchdog", expired_units[0])
        for unit in sorted(innocents, key=lambda u: u.start, reverse=True):
            self._pending.appendleft(unit)
        budget = self.policy.timeout_per_point
        for unit in expired_units:
            self._failed(
                unit,
                "timeout",
                f"watchdog expired: {len(unit.specs)} point(s) still "
                f"running after {budget * len(unit.specs):g}s "
                f"(timeout-per-point {budget:g}s)",
                crash=True,
            )

    def _failed(self, unit: _Unit, kind: str, detail: str, crash: bool) -> None:
        """Apply the fault policy to a failed unit (bisect / retry / settle)."""
        # Crash/hang units stay cautious — running them alone is how the next
        # break or timeout pins the poison point; plain-error units can rejoin
        # normal parallelism, the worker will name the failure.
        target = self._cautious if crash else self._pending
        if len(unit.specs) > 1:
            mid = len(unit.specs) // 2
            target.appendleft(_Unit(unit.start + mid, unit.specs[mid:]))
            target.appendleft(_Unit(unit.start, unit.specs[:mid]))
            return
        unit.attempts.append(attempt_record(len(unit.attempts) + 1, kind, detail))
        report = settle_failure(self.policy, unit.specs[0], unit.attempts)
        if report is not None:
            self.quarantined += 1
            self._buffer[unit.start] = report
            return
        self.retries += 1
        unit.ready_at = time.monotonic() + self.policy.backoff_seconds(
            len(unit.attempts)
        )
        target.appendleft(unit)
