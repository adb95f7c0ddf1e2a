"""The ``repro serve`` evaluation service.

A long-lived asyncio JSON-over-HTTP server that keeps the expensive parts
of the pipeline — the scenario registry, one
:class:`~repro.experiments.runner.ExperimentRunner` with its instance and
evaluator caches, and optionally an open persistent
:class:`~repro.experiments.store.ResultStore` — resident across requests,
so repeated evaluations cost a cache lookup instead of a process boot.

Endpoints (see :mod:`repro.serve.handlers` for payload shapes):

- ``GET /healthz`` — liveness (answered even while sweeps stream)
- ``GET /stats`` — eval/store/coalescing counters
- ``GET /scenarios`` / ``GET /scenarios/<name>`` — the registry, in the
  CLI's ``--json`` renderings
- ``POST /run`` — one evaluation; concurrent identical requests coalesce
  on the store's content address into a single evaluation
- ``POST /sweep`` — a grid sweep streamed as NDJSON, rows byte-compatible
  with ``repro sweep --json`` elements

Use :func:`run_server` for the foreground CLI, :class:`ServerThread` to
host a server from synchronous code (tests, benchmarks, the load driver).
"""

from repro.serve.app import ServeApp, ServerThread, run_server
from repro.serve.coalesce import CoalescingMap
from repro.serve.schema import (
    ServeRequestError,
    parse_run_request,
    parse_sweep_request,
)

__all__ = [
    "ServeApp",
    "ServerThread",
    "run_server",
    "CoalescingMap",
    "ServeRequestError",
    "parse_run_request",
    "parse_sweep_request",
]
