"""End-to-end benchmark of ``repro`` sweeps and the ``repro serve`` service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kripke_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs the same inputs once more, replays them through the
layers with spans, and reports the per-layer metrics.  Every operation's
output is checked against the frozenset reference; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 0 only when every output
was correct.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibrate import kernel_seconds, slowdown
from inputs import (
    hot_set,
    kripke_block,
    parallel_sweep,
    request_points,
    serve_block,
    sweep_points,
    system_block,
)
from processes import BenchmarkError, probe_imports, run_worker, start_servers
from serve_load import Client, closed_loop, response_rows

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench_out"

SETUP_STARTS = 7
"""Fresh interpreter starts per sweep run; setup_s is their median."""
SERVER_STARTS = 5
"""Server starts per serve_mixed run; setup_s is their median."""
SERIAL_SHARE = 0.55
"""Share of ``--seconds`` the serial sweep pass runs; the ``jobs`` pass
repeats the same blocks, which takes most of the rest."""
SERVE_SEGMENTS = 4
"""The serve_mixed loop runs in this many segments, calibrated between."""
SERVE_JOBS_SHARE = 0.2
"""Share of ``--seconds`` serve_mixed spends on served ``jobs=2`` sweeps."""
TRACE_BLOCKS = 4
"""Blocks per client in the traced serve_mixed pass; fixed, so counts repeat."""


class Context:
    def __init__(self, args: argparse.Namespace, oracle) -> None:
        self.oracle = oracle
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("REPRO_STORE", "REPRO_CHAOS", "PYTHONPATH")
        }
        self.env["PYTHONPATH"] = str(SRC)
        # Never more clients or pool workers than CPUs this process may use.
        self.parallel = max(1, min(2, len(os.sched_getaffinity(0))))
        # Then every process of the run shares one CPU.  Each served request
        # and each pool task wakes another process, and on a virtual machine
        # a wake-up across CPUs can cost more than the work: split over two
        # CPUs, served throughput swung by 2x with the host's load, while on
        # one it repeated within a few percent.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.calibration: list = []

    def calibrate(self, passes: int = 3) -> None:
        """Time the calibration kernel (see ``calibrate.py``) a few times."""
        self.calibration.extend(kernel_seconds() for _ in range(passes))

    def slowdown(self) -> float:
        return slowdown(self.calibration)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def window_rates(finished: list, elapsed: float, window: float) -> list:
    """Completions per second in each whole window of ``window`` seconds.

    The metric is their median: a burst of load from outside the benchmark
    slows some windows, not the median one.
    """
    counts = [0] * int(elapsed // window)
    for moment in finished:
        slot = int(moment // window)
        if slot < len(counts):
            counts[slot] += 1
    return [count / window for count in counts]


def scaled(value: float, unit: str, host_slowdown: float) -> float:
    """A raw end-to-end value at the reference host speed (``calibrate.py``)."""
    if unit in ("s", "ms"):
        return value / host_slowdown
    if unit == "1/s":
        return value * host_slowdown
    return value


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- sweeps -----------------------------------------------------------------------


def sweep_workload(ctx: Context, block: list) -> dict:
    ctx.calibrate()
    setup = probe_imports(ctx.env, ROOT, SETUP_STARTS)
    ctx.calibrate()
    task = {
        "task": "sweeps",
        "block": block,
        "jobs": ctx.parallel,
        "serial_seconds": SERIAL_SHARE * ctx.seconds,
        "trace": ctx.trace,
        "trace_path": str(ctx.work / "spans.json"),
    }
    result, rss = run_worker(task, ctx.env, ROOT, ctx.work / "worker.log")
    ctx.calibration.extend(result["calibration"])

    expected = [
        ctx.oracle.rows(sweep["scenario"], params, sweep["formulas"], sweep["minimize"])
        for sweep in block
        for params in sweep_points(sweep)
    ]
    serial, parallel = result["serial"], result["parallel"]
    # An operation fails when its rows differ from the expected rows, so
    # jobs=2 passes only with exactly the serial rows, in grid order.
    outputs = [rows for _, rows in serial + parallel]
    failed = sum(rows != expected[index % len(expected)] for index, rows in enumerate(outputs))
    failed += max(0, len(serial) - len(parallel))
    attempted = len(outputs) + max(0, len(serial) - len(parallel))

    # The median repetition's rate: a burst of load from outside the
    # benchmark slows some repetitions, not the median one.
    serial_rate = len(expected) / median(result["serial_reps"])
    parallel_rate = len(expected) / median(result["parallel_reps"])
    if not ctx.trace:
        latencies = [seconds for seconds, _ in serial]
        raw = {
            "setup_s": (median([s[0] for s in setup]), "s"),
            "ops_per_s": (serial_rate, "1/s"),
            "op_p50_ms": (median(latencies) * 1000, "ms"),
            "op_p90_ms": (p90(latencies) * 1000, "ms"),
            "jobs2_ops_per_s": (parallel_rate, "1/s"),
            "rss_peak_mb": (rss, "MB"),
        }
        return {"attempted": attempted, "failed": failed, "raw": raw}

    failed += sum(rows != want for rows, want in zip(result["replay_rows"], expected))
    attempted += len(result["replay_rows"])
    metrics = layer_metrics(setup, result)
    metrics.update(
        {
            "parallel.first_row_ms": (median(result["first_rows"]) * 1000, "ms"),
            "parallel.speedup": (ratio(parallel_rate, serial_rate), "ratio"),
            "parallel.serial_ops_per_s": (serial_rate, "1/s"),
            "stats.eval_count": (result["eval_count"], "count"),
        }
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def kripke_sweep(ctx: Context) -> dict:
    return sweep_workload(ctx, kripke_block(ctx.seed))


def system_sweep(ctx: Context) -> dict:
    return sweep_workload(ctx, system_block(ctx.seed))


# -- serve ------------------------------------------------------------------------


def serve_mixed(ctx: Context) -> dict:
    def blocks(client: int, index: int) -> list:
        return serve_block(ctx.seed, client, index)

    warm = [request for client in range(ctx.parallel) for request in hot_set(client)]
    ctx.calibrate()
    setup_probe = probe_imports(ctx.env, ROOT, SETUP_STARTS) if ctx.trace else []
    server, setup = start_servers(ctx.env, ROOT, ctx.work, SERVER_STARTS, ctx.parallel)
    try:
        control = Client(server.port)
        warmed = [control.send(request) for request in warm]
        ctx.calibrate()
        if not ctx.trace:
            # Served jobs=2 sweeps first, on a server that has only answered
            # the warm-up: run after the mixed loop, the same sweeps took
            # from 1x to 2x as long as on a fresh server, varying by run.
            sweeps, index = [], 0
            sweeps_began = time.perf_counter()
            while not sweeps or time.perf_counter() - sweeps_began < SERVE_JOBS_SHARE * ctx.seconds:
                sweeps.append(control.send(parallel_sweep(ctx.seed, index)))
                index += 1
            ctx.calibrate()
            # The loop runs in segments with the calibration kernel between
            # them, so the host's speed is sampled throughout.
            mixed, rates = [], []
            for segment in range(SERVE_SEGMENTS):
                exchanges, began, elapsed = closed_loop(
                    server.port,
                    ctx.parallel,
                    lambda client, index: blocks(client, segment * 1000 + index),
                    seconds=(1 - SERVE_JOBS_SHARE) * ctx.seconds / SERVE_SEGMENTS,
                )
                mixed += exchanges
                rates += window_rates(
                    [e.finished - began for e in exchanges],
                    elapsed,
                    window=min(1.0, ctx.seconds / (4 * SERVE_SEGMENTS)),
                )
                ctx.calibrate()
        else:
            mixed, began, elapsed = closed_loop(
                server.port, ctx.parallel, blocks, block_count=TRACE_BLOCKS
            )
            sweeps = []
            stats = control.get_json("/stats")
        control.close()
    finally:
        server.stop()
    ctx.calibrate()

    failed = check_exchanges(ctx.oracle, warmed + mixed + sweeps)
    attempted = len(warmed) + len(mixed) + len(sweeps)
    if not ctx.trace:
        latencies = [exchange.seconds for exchange in mixed]
        points = len(request_points(sweeps[0].request))
        raw = {
            "setup_s": (median(setup), "s"),
            "ops_per_s": (median(rates), "1/s"),
            "op_p50_ms": (median(latencies) * 1000, "ms"),
            "op_p90_ms": (p90(latencies) * 1000, "ms"),
            "jobs2_ops_per_s": (points / median([e.seconds for e in sweeps]), "1/s"),
            "rss_peak_mb": (server.peak_rss_mb, "MB"),
        }
        return {"attempted": attempted, "failed": failed, "raw": raw}

    served = warmed + mixed
    task = {
        "task": "replay",
        "requests": [exchange.request for exchange in served],
        "store_dir": str(ctx.work),
        "trace_path": str(ctx.work / "spans.json"),
    }
    result, _ = run_worker(task, ctx.env, ROOT, ctx.work / "worker.log")
    failed += sum(
        rows != expected_rows(ctx.oracle, exchange.request)
        for rows, exchange in zip(result["replay_rows"], served)
        if exchange.request["kind"] != "scenarios"
    )
    attempted += len(result["replay_rows"])
    metrics = layer_metrics(setup_probe, result)
    streams = [e.first_row for e in mixed if e.first_row is not None]
    metrics.update(
        {
            "serve.overhead_ms": (
                median([e.seconds - t for e, t in zip(served, result["request_times"])]) * 1000,
                "ms",
            ),
            "serve.stream_first_row_ms": (median(streams) * 1000, "ms"),
            "stats.eval_count": (stats["eval_count"], "count"),
            "stats.store_hits": (stats["store_hits"], "count"),
            "stats.coalesce_hits": (stats["coalesce"]["hits"], "count"),
        }
    )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def expected_rows(oracle, request: dict) -> list:
    """The rows each grid point of a ``/run`` or ``/sweep`` request must hold."""
    return [
        oracle.rows(point["scenario"], point["params"], point["formulas"])
        for point in request_points(request)
    ]


def check_exchanges(oracle, exchanges) -> int:
    """How many exchanges failed: a non-200 status or rows unlike the oracle's."""
    names = oracle.scenario_names()
    verdicts = {}
    failed = 0
    for exchange in exchanges:
        key = (json.dumps(exchange.request, sort_keys=True), exchange.status, exchange.body)
        verdict = verdicts.get(key)
        if verdict is None:
            if exchange.status != 200:
                verdict = False
            elif exchange.request["kind"] == "scenarios":
                try:
                    listed = [entry["name"] for entry in json.loads(exchange.body)]
                except (ValueError, KeyError, TypeError):
                    listed = None
                verdict = listed == names
            else:
                verdict = response_rows(exchange) == expected_rows(oracle, exchange.request)
            verdicts[key] = verdict
        failed += not verdict
    return failed


# -- per-layer metrics --------------------------------------------------------------

LAYERS = [
    ("build.kripke_ms", "build.kripke"),
    ("build.system_ms", "build.system"),
    ("index.kripke_ms", "index.kripke"),
    ("index.system_ms", "index.system"),
    ("eval.knowledge_ms", "eval.knowledge"),
    ("eval.common_ms", "eval.common"),
    ("eval.temporal_ms", "eval.temporal"),
    ("minimize.quotient_ms", "minimize.quotient"),
    ("registry.validate_ms", "registry.validate"),
    ("logic.parse_ms", "logic.parse"),
    ("logic.check_ms", "logic.check"),
    ("logic.pretty_ms", "logic.pretty"),
    ("store.get_ms", "store.get"),
    ("store.put_ms", "store.put"),
    ("render.report_ms", "render.report"),
]

PER_LAYER_DEFAULTS = {
    "serve.overhead_ms": (0.0, "ms"),
    "serve.stream_first_row_ms": (0.0, "ms"),
    "parallel.first_row_ms": (0.0, "ms"),
    "parallel.speedup": (0.0, "ratio"),
    "parallel.serial_ops_per_s": (0.0, "1/s"),
    "stats.eval_count": (0, "count"),
    "stats.store_hits": (0, "count"),
    "stats.coalesce_hits": (0, "count"),
}
"""Metrics of layers a workload never reaches (a sweep has no server, only
system_sweep and kripke_sweep start a pool from the runner): zero work."""


def layer_metrics(setup: list, result: dict) -> dict:
    """Self time per layer summed over the traced replay, plus counts and ratios."""
    self_times = result["self_times"]
    counts = result["counts"]
    metrics = dict(PER_LAYER_DEFAULTS)
    metrics["cli.import_s"] = (median([s[1] for s in setup]), "s")
    metrics["cli.modules_loaded"] = (median([s[2] for s in setup]), "count")
    for metric, span in LAYERS:
        metrics[metric] = (self_times.get(span, [0.0, 0])[0] * 1000, "ms")
    metrics["minimize.ratio"] = (mean(result["quotient_ratios"]), "ratio")
    metrics["store.hit_ratio"] = (
        ratio(counts.get("store.hits", 0), counts.get("store.lookups", 0)),
        "ratio",
    )
    metrics["runner.instance_hit_ratio"] = (
        ratio(counts.get("instance.hits", 0), counts.get("instance.lookups", 0)),
        "ratio",
    )
    op_seconds, op_count = self_times.get("op", [0.0, 0])
    metrics["runner.untraced_ms"] = (ratio(op_seconds, op_count) * 1000, "ms")
    metrics["build.worlds"] = (counts.get("build.worlds", 0), "count")
    metrics["eval.formulas"] = (counts.get("eval.formulas", 0), "count")
    metrics["trace.ops_per_s"] = (result["replay_ops"] / result["replay_seconds"], "1/s")
    metrics["trace.untraced_ops_per_s"] = (
        result["replay_ops"] / result["untraced_replay_seconds"],
        "1/s",
    )
    return metrics


WORKLOADS = {
    "kripke_sweep": kripke_sweep,
    "system_sweep": system_sweep,
    "serve_mixed": serve_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_STORE", None)
    os.environ.pop("REPRO_CHAOS", None)
    from oracle import Oracle

    ctx = Context(args, Oracle())
    try:
        outcome = WORKLOADS[args.workload](ctx)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for path in ctx.work.glob("*.sqlite*"):
        path.unlink()

    host_slowdown = ctx.slowdown()
    print(
        f"{args.workload}: ops={outcome['attempted']} ops_failed={outcome['failed']} "
        f"host_slowdown={host_slowdown:.4f}"
    )
    if "raw" in outcome:
        outcome["metrics"] = {
            name: (scaled(value, unit, host_slowdown), unit)
            for name, (value, unit) in outcome["raw"].items()
        }
    else:
        outcome["metrics"]["host.slowdown"] = (host_slowdown, "ratio")
    for name, (value, unit) in outcome["metrics"].items():
        timed = outcome.get("raw", {}).get(name)
        suffix = f" (as timed: {timed[0]:.4f})" if timed else ""
        print(f"  {name:28s} {value:14.4f} {unit:6s}{suffix}")
    correct = outcome["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
