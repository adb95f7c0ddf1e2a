"""The benchmark's work process: sweeps through the public runner, and traced replays.

Run as ``python3 perfbench/worker.py`` with ``src`` on ``PYTHONPATH``; it
reads one JSON task from stdin and prints one JSON result on stdout.  Its
peak memory is the sweep process's, so the benchmark process, which holds
the correctness oracle, stays out of ``rss_peak_mb``.

Tasks:

``sweeps``
    Cold ``ExperimentRunner.iter_sweep`` calls over a block of sweeps: a
    serial pass repeated until the time is up, then the same number of
    repetitions at ``jobs``.  Each operation's time is the gap between
    streamed rows; each repetition's time is reported too.  With ``trace``
    the block runs once per pass and is then replayed through the layers
    with spans.

``replay``
    The served requests of a serve_mixed run, replayed in this process
    through the layers with spans, against a fresh result store.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from typing import Optional

from repro.experiments.registry import all_scenarios, get_scenario
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore

from calibrate import kernel_seconds
from inputs import request_points, sweep_points
from tracing import NullRecorder, SpanRecorder, TracedReplay, outcome_row

MIN_SERIAL_OPS = 110
"""The serial pass runs on until it has this many operations, so that at
least ten samples lie beyond the p90 on any machine."""


def _formulas(sweep: dict):
    formulas = sweep["formulas"]
    return None if formulas is None else [tuple(entry) for entry in formulas]


def run_sweep(sweep: dict, jobs: int, ops: list) -> tuple:
    """One cold sweep; appends ``[seconds, rows]`` per point to ``ops``.

    The heap is collected first, so every sweep starts as clean as in a
    fresh ``repro sweep`` process and the peak memory does not depend on
    the order of the sweeps.  Returns the time to the first row, the
    sweep's wall time and the runner's evaluation count.
    """
    gc.collect()
    runner = ExperimentRunner()
    start = last = time.perf_counter()
    first = None
    for report in runner.iter_sweep(
        sweep["scenario"],
        sweep["grid"],
        formulas=_formulas(sweep),
        minimize=sweep["minimize"],
        jobs=jobs,
    ):
        now = time.perf_counter()
        if first is None:
            first = now - start
        ops.append([now - last, [outcome_row(row) for row in report.rows]])
        last = now
    return first, last - start, runner.eval_count


def _first_point(sweep: dict, repeat: int = 1) -> dict:
    grid = {name: values[:1] for name, values in sweep["grid"].items()}
    axis = next(iter(grid))
    grid[axis] = grid[axis] * repeat
    return dict(sweep, grid=grid)


def warm_up(block: list, jobs: int) -> None:
    """Pay each scenario's first-call imports, and the pool's, before timing."""
    for sweep in block:
        run_sweep(_first_point(sweep), 1, [])
    run_sweep(_first_point(block[0], repeat=2), jobs, [])


def sweeps_task(task: dict) -> dict:
    block, jobs = task["block"], task["jobs"]
    calibration = [kernel_seconds() for _ in range(3)]
    warm_up(block, jobs)

    serial, serial_reps, eval_count = [], [], 0
    start = time.perf_counter()
    while True:
        seconds = 0.0
        for sweep in block:
            _, elapsed, evaluated = run_sweep(sweep, 1, serial)
            calibration.append(kernel_seconds())
            seconds += elapsed
            eval_count += evaluated
        serial_reps.append(seconds)
        if task["trace"] or (
            time.perf_counter() - start >= task["serial_seconds"]
            and len(serial) >= MIN_SERIAL_OPS
        ):
            break

    parallel, parallel_reps, first_rows = [], [], []
    for _ in serial_reps:
        seconds = 0.0
        for sweep in block:
            first, elapsed, _ = run_sweep(sweep, jobs, parallel)
            calibration.append(kernel_seconds())
            first_rows.append(first)
            seconds += elapsed
        parallel_reps.append(seconds)

    result = {
        "calibration": calibration,
        "serial": serial,
        "serial_reps": serial_reps,
        "parallel": parallel,
        "parallel_reps": parallel_reps,
        "first_rows": first_rows,
        "eval_count": eval_count,
    }
    if task["trace"]:

        def replay_block(replay: TracedReplay) -> list:
            rows = []
            for sweep in block:
                replay.clear_instances()
                for params in sweep_points(sweep):
                    replay.recorder.operation = len(rows)
                    rows.append(
                        replay.run(sweep["scenario"], params, sweep["formulas"], sweep["minimize"])
                    )
            return rows

        result.update(traced_replays(replay_block, task["trace_path"]))
    return result


def traced_replays(replay_ops, trace_path: str, store_dir: Optional[str] = None) -> dict:
    """Replay the operations untraced and traced, alternately, twice each.

    ``replay_ops(replay)`` performs every operation on ``replay`` and
    returns their rows; every pass starts from a fresh state (and, with
    ``store_dir``, a fresh result store there).  An untimed first pass pays
    the first-call costs.  The summed pass times give the tracing overhead;
    the last traced pass gives the per-layer self times and counts.
    """
    passes = [None, NullRecorder, SpanRecorder, NullRecorder, SpanRecorder]
    summary = {"untraced_replay_seconds": 0.0, "replay_seconds": 0.0}
    for index, kind in enumerate(passes):
        gc.collect()  # each pass starts without the previous passes' garbage
        recorder = (kind or NullRecorder)()
        store = None if store_dir is None else ResultStore(f"{store_dir}/replay-{index}.sqlite")
        replay = TracedReplay(recorder, store=store)
        start = time.perf_counter()
        rows = replay_ops(replay)
        seconds = time.perf_counter() - start
        if store is not None:
            store.close()
        if kind is NullRecorder:
            summary["untraced_replay_seconds"] += seconds
        elif kind is SpanRecorder:
            summary["replay_seconds"] += seconds
            summary.update(_trace_summary(recorder, replay, rows))
    recorder.write(trace_path)
    summary["replay_ops"] *= 2
    return summary


def replay_task(task: dict) -> dict:
    """Replay served requests in order, each pass against a fresh store."""

    def replay_requests(replay: TracedReplay) -> list:
        rows = []
        for index, request in enumerate(task["requests"]):
            replay.recorder.operation = index
            with replay.recorder.span("request"):
                rows.append(_replay_request(replay, request))
        return rows

    return traced_replays(replay_requests, task["trace_path"], task["store_dir"])


def _replay_request(replay: TracedReplay, request: dict) -> list:
    if request["kind"] == "scenarios":
        with replay.recorder.span("render.report"):
            json.dumps(
                [
                    {
                        "name": spec.name,
                        "section": spec.section,
                        "summary": spec.summary,
                        "parameters": [p.name for p in spec.parameters],
                    }
                    for spec in all_scenarios()
                ]
            )
        return []
    points = request_points(request)
    if request["kind"] == "sweep":
        # The service pre-flights every grid point before the stream starts.
        with replay.recorder.span("logic.check"):
            spec = get_scenario(request["body"]["scenario"])
            for point in points:
                validated = spec.validate_params(point["params"])
                batch = (
                    list(spec.default_formulas(validated).items())
                    if point["formulas"] is None
                    else ExperimentRunner.normalise_formulas(map(tuple, point["formulas"]))
                )
                ExperimentRunner.preflight_batch(spec, validated, batch)
    return [
        replay.run(point["scenario"], point["params"], point["formulas"])
        for point in points
    ]


def _trace_summary(recorder, replay, rows) -> dict:
    return {
        "self_times": recorder.self_times(),
        "counts": dict(replay.counts),
        "quotient_ratios": replay.quotient_ratios,
        "request_times": [end - start for name, start, end, _, _ in recorder.spans if name == "request"],
        "replay_rows": rows,
        "replay_ops": len(rows),
    }


def main() -> int:
    task = json.load(sys.stdin)
    handler = {"sweeps": sweeps_task, "replay": replay_task}[task["task"]]
    result = handler(task)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
