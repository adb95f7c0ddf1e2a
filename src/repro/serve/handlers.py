"""Endpoint implementations for the evaluation service.

Each handler is a plain function over :class:`ServeState` — the resident
runner, executor, coalescing map and counters — returning JSON-ready
payloads (or, for sweeps, an async iterator of NDJSON lines).  The HTTP
framing lives in :mod:`repro.serve.app`; nothing here reads sockets.

``POST /run`` and ``POST /sweep`` plan their request once, on the event
loop (:mod:`repro.serve.schema`), and execute that plan in the executor
through :meth:`~repro.experiments.runner.ExperimentRunner.execute`, the
same executor ``repro run`` and ``repro sweep`` use.

The payload shapes deliberately mirror the CLI's ``--json`` renderings:
``GET /scenarios`` is ``repro list --json``, ``GET /scenarios/<name>`` is
``repro describe --json``, ``POST /run`` is ``repro run --json``, and every
``POST /sweep`` NDJSON row parses to exactly the element ``repro sweep
--json`` would print for that grid point.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Tuple

from repro.errors import ReproError
from repro.experiments.registry import (
    all_scenarios,
    scenario_description,
    scenario_listing,
)
from repro.experiments.runner import ExperimentRunner
from repro.serve.coalesce import CoalescingMap
from repro.serve.schema import (
    ServeRequestError,
    parse_run_request,
    parse_sweep_request,
)

__all__ = [
    "ServeState",
    "handle_healthz",
    "handle_stats",
    "handle_scenarios",
    "handle_scenario_detail",
    "handle_run",
    "sweep_lines",
]


@dataclass
class ServeState:
    """Everything the service keeps resident across requests.

    One :class:`~repro.experiments.runner.ExperimentRunner` (its instance
    and evaluator caches are the whole point of serving), one executor the
    model checks run on so the event loop stays responsive, one
    :class:`~repro.serve.coalesce.CoalescingMap`, and request counters.
    """

    runner: ExperimentRunner
    executor: ThreadPoolExecutor
    coalescer: CoalescingMap = field(default_factory=CoalescingMap)
    requests: int = 0
    """Total requests routed (any endpoint, any outcome)."""
    sweeps_streamed: int = 0
    """How many ``POST /sweep`` streams were opened."""
    shutdown: threading.Event = field(default_factory=threading.Event)
    """Set once at graceful shutdown; in-flight sweep producers notice it
    between grid points and stop at a line boundary."""


def handle_healthz(state: ServeState) -> Dict[str, object]:
    """``GET /healthz`` — liveness, answered without touching the executor."""
    return {
        "ok": True,
        "scenarios": len(all_scenarios()),
        "store": state.runner.store is not None,
    }


def handle_stats(state: ServeState) -> Dict[str, object]:
    """``GET /stats`` — the counters the coalescing/caching invariants live on.

    ``eval_count``, ``store_hits`` and ``pool_starts`` (worker pools the
    served ``jobs > 1`` sweeps actually started) come straight from the
    resident runner; ``coalesce`` reports leaders (misses), followers (hits)
    and the number of evaluations currently in flight.  The serve tests and the CI
    load driver assert against exactly this payload.
    """
    return {
        "requests": state.requests,
        "sweeps_streamed": state.sweeps_streamed,
        "eval_count": state.runner.eval_count,
        "store_hits": state.runner.store_hits,
        "pool_starts": state.runner.pool_starts,
        "cached_instances": state.runner.cached_instances,
        "coalesce": {
            "hits": state.coalescer.hits,
            "misses": state.coalescer.misses,
            "inflight": state.coalescer.inflight,
        },
    }


def handle_scenarios(state: ServeState) -> List[Dict[str, object]]:
    """``GET /scenarios`` — the ``repro list --json`` payload."""
    return scenario_listing()


def handle_scenario_detail(state: ServeState, name: str) -> Dict[str, object]:
    """``GET /scenarios/<name>`` — the ``repro describe --json`` payload."""
    try:
        return scenario_description(name)
    except ReproError as error:
        raise ServeRequestError(
            str(error), status=404, error_type="unknown_scenario"
        ) from None


async def handle_run(state: ServeState, payload: object) -> Dict[str, object]:
    """``POST /run`` — plan, coalesce, execute in the executor.

    Planning (parameter coercion, formula normalisation, static pre-flight,
    store key) happens on the event loop — it is cheap and produces 400
    bodies before any executor slot is taken.  The planned point itself is
    executed in the executor under its content address: N concurrent
    identical requests share one
    :meth:`~repro.experiments.runner.ExperimentRunner.execute` call and all N
    receive renderings of the same report.
    """
    point = parse_run_request(payload)
    loop = asyncio.get_running_loop()

    def evaluate() -> Dict[str, object]:
        (report,) = state.runner.execute([point])
        return report.to_dict()

    async def thunk() -> Dict[str, object]:
        return await loop.run_in_executor(state.executor, evaluate)

    digest = None if point.key is None else point.key.digest
    return await state.coalescer.run(digest, thunk)


def _ndjson(payload: Dict[str, object]) -> str:
    """One NDJSON line: compact JSON plus the terminating newline."""
    return json.dumps(payload, separators=(",", ":")) + "\n"


async def sweep_lines(state: ServeState, payload: object) -> AsyncIterator[str]:
    """``POST /sweep`` — plan, then stream the plan's reports as NDJSON lines.

    Planning (including a pre-flight of every distinct grid point's
    formula batch) runs before the first line, so an invalid sweep is a
    JSON error response, never a broken stream.  The returned iterator
    yields one compact ``report.to_dict()`` line per grid point in
    deterministic grid order — parsing each line gives exactly the element
    ``repro sweep --json`` prints — followed by a
    ``{"sweep_complete": true, "rows": N}`` trailer.  A stream that ends
    without the trailer was truncated (client disconnect, server shutdown,
    or a mid-sweep fault, which appears as a final ``sweep_error`` line).

    The sweep itself runs on one executor thread which feeds the event
    loop through an :class:`asyncio.Queue`; the loop keeps serving other
    requests (and ``/healthz``) while rows stream.  Consumer cancellation
    or shutdown flips a :class:`threading.Event` the producer checks
    between grid points, so the generator underneath ``execute`` is
    closed promptly and the stream always stops at a line boundary.
    """
    points, jobs = parse_sweep_request(payload)
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Tuple[str, object]]" = asyncio.Queue()
    stop = threading.Event()

    def produce() -> None:
        emitted = 0
        try:
            stream = state.runner.execute(points, jobs=jobs)
            try:
                for report in stream:
                    if stop.is_set() or state.shutdown.is_set():
                        return
                    loop.call_soon_threadsafe(
                        queue.put_nowait, ("row", report.to_dict())
                    )
                    emitted += 1
            finally:
                stream.close()
        except BaseException as error:  # rendered as a sweep_error line
            loop.call_soon_threadsafe(queue.put_nowait, ("error", error))
        else:
            loop.call_soon_threadsafe(queue.put_nowait, ("done", emitted))

    async def lines() -> AsyncIterator[str]:
        state.sweeps_streamed += 1
        future = loop.run_in_executor(state.executor, produce)
        try:
            while True:
                kind, value = await queue.get()
                if kind == "row":
                    yield _ndjson(value)
                elif kind == "done":
                    yield _ndjson({"sweep_complete": True, "rows": value})
                    return
                else:
                    error = value
                    error_type = (
                        type(error).__name__
                        if isinstance(error, ReproError)
                        else "internal_error"
                    )
                    yield _ndjson(
                        {
                            "sweep_error": {
                                "type": error_type,
                                "message": str(error),
                            }
                        }
                    )
                    return
        finally:
            stop.set()
            future.cancel()

    return lines()
