"""E18 — the evaluation service: warm served requests vs cold CLI one-shots.

The service's reason to exist is that answering a request from a resident
process — scenario registry imported, model instance and evaluator already
cached — must be far cheaper than booting ``repro run`` from scratch, which
pays the interpreter start, the imports, the model build and the evaluation
every single time.  This module measures both sides of that claim against
the same request and pins it:

* a warm ``POST /run`` answered by a running server beats a cold one-shot
  ``python -m repro run`` subprocess by at least :data:`SPEEDUP_FLOOR`
  (the acceptance floor is 5x; in practice the gap is orders of magnitude,
  since a served warm request skips everything but the HTTP exchange and a
  cache lookup);
* the served response is the same report the CLI prints (timing fields
  excepted) — speed without fidelity would be worthless.
"""

import http.client
import json
import os
import statistics
import subprocess
import sys
import time

import pytest

from repro.serve import ServerThread

SPEEDUP_FLOOR = 5.0
PAIRS = 5

SCENARIO = "muddy_children"
PARAMS = {"n": 4, "k": 2}
CLI_ARGS = [SCENARIO, "-p", "n=4", "-p", "k=2", "--json"]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Wall-clock fields legitimately differ between the two entry points.
TIMING_FIELDS = ("build_seconds", "eval_seconds")


def comparable(report_dict):
    """Everything but the timing fields, which legitimately differ."""
    return {k: v for k, v in report_dict.items() if k not in TIMING_FIELDS}


def cold_cli_run():
    """One cold one-shot CLI invocation; returns (report_dict, seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", *CLI_ARGS],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO_ROOT,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout), elapsed


def served_run(port):
    """One ``POST /run`` against the resident server; returns (dict, seconds)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        start = time.perf_counter()
        conn.request(
            "POST", "/run", body=json.dumps({"scenario": SCENARIO, "params": PARAMS})
        )
        response = conn.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - start
        assert response.status == 200, payload
        return json.loads(payload), elapsed
    finally:
        conn.close()


@pytest.fixture(scope="module")
def warm_server():
    """A running server whose caches already hold the benchmark request."""
    with ServerThread() as server:
        served_run(server.port)  # build the instance, cache the evaluator
        yield server


def test_served_report_matches_cli_report(warm_server):
    """Fidelity first: the served report is the CLI's report."""
    cli_report, _seconds = cold_cli_run()
    served_report, _seconds = served_run(warm_server.port)
    assert comparable(served_report) == comparable(cli_report)


def test_warm_served_request_latency(benchmark, warm_server):
    """Time one warm served request end to end (connect, POST, read)."""
    port = warm_server.port

    def one_request():
        report, _seconds = served_run(port)
        return report

    report = benchmark(one_request)
    assert report["scenario"] == SCENARIO
    benchmark.extra_info["universe"] = report["universe"]


def test_serve_speedup_floor(warm_server):
    """Warm served requests beat cold CLI one-shots by >= SPEEDUP_FLOOR.

    Each pair times one cold CLI one-shot and one warm served request back
    to back; the gate reads the median of the per-pair ratios, so a slow
    spell of the host hits both sides of a pair.
    """
    ratios = []
    for _ in range(PAIRS):
        _report, cold_seconds = cold_cli_run()
        _report, warm_seconds = served_run(warm_server.port)
        ratios.append(cold_seconds / warm_seconds)
    ratio = statistics.median(ratios)
    assert ratio >= SPEEDUP_FLOOR, (
        f"a warm served request should be at least {SPEEDUP_FLOOR}x faster than "
        f"a cold CLI one-shot; median ratio {ratio:.2f} over {PAIRS} pairs"
    )
