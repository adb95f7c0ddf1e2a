"""The evaluation service: endpoints, coalescing, streaming, shutdown.

Four families of guarantees live here:

* **Endpoint round-trips** — every endpoint answered by a real server on an
  ephemeral port matches its CLI ``--json`` twin: ``GET /scenarios`` is
  ``repro list --json``, ``GET /scenarios/<name>`` is ``repro describe
  --json``, a ``POST /run`` body is a ``repro run --json`` report, and the
  ``POST /sweep`` NDJSON rows parse to exactly the elements ``repro sweep
  --json`` prints, in the same grid order (timing fields excluded — they
  are honest wall-clock measurements).
* **Coalescing** — N concurrent identical ``POST /run`` requests cost one
  ``eval_count`` and produce byte-identical responses; different requests
  evaluate independently; the request digest is the store's content
  address, so the same logical request from HTTP JSON and from CLI ``-p``
  strings lands on the same store row.
* **Error bodies** — malformed requests answer structured JSON carrying
  the library's message and, for static-check failures, the full REP
  diagnostic list; transport errors (bad JSON, bad route, bad method) are
  equally structured.
* **Lifecycle** — the event loop answers ``/healthz`` while a sweep
  streams, and a graceful shutdown mid-stream truncates the NDJSON at a
  line boundary (every received line parses; the completion trailer is
  absent).

The container has no async test plugin, so every test drives the server
with plain :mod:`http.client` from the test thread while
:class:`repro.serve.ServerThread` owns the event loop.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.serve import ServerThread, parse_run_request
from repro.serve.schema import ServeRequestError, parse_sweep_request

# Wall-clock measurements legitimately differ between otherwise identical
# reports; everything else must match exactly.
TIMING_FIELDS = ("build_seconds", "eval_seconds")


def comparable(report_dict):
    return {k: v for k, v in report_dict.items() if k not in TIMING_FIELDS}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def get(server, path):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def post(server, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def slow_runner(server, delay=0.25):
    """Wrap the resident runner's evaluation step with a delay.

    Evaluations on the test scenarios finish in single-digit milliseconds —
    faster than eight client threads can connect — so coalescing tests
    widen the in-flight window to make the overlap deterministic.  Every
    ``POST /run`` miss and every served sweep point evaluates through
    ``_evaluate``, so the delay applies per evaluated point.
    """
    runner = server.app.state.runner
    original = runner._evaluate

    def slowed(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    runner._evaluate = slowed
    return runner


@pytest.fixture
def server():
    with ServerThread() as running:
        yield running


# -- endpoint round-trips ------------------------------------------------------

def test_healthz(server):
    status, payload = get(server, "/healthz")
    assert status == 200
    assert payload["ok"] is True
    assert payload["scenarios"] > 0
    assert payload["store"] is False


def test_stats_shape(server):
    status, payload = get(server, "/stats")
    assert status == 200
    assert payload["eval_count"] == 0
    assert payload["store_hits"] == 0
    assert payload["coalesce"] == {"hits": 0, "misses": 0, "inflight": 0}


def test_scenarios_matches_cli_list_json(server, capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    status, payload = get(server, "/scenarios")
    assert status == 200
    assert payload == json.loads(out)


def test_scenario_detail_matches_cli_describe_json(server, capsys):
    code, out, _ = run_cli(capsys, "describe", "muddy_children", "--json")
    assert code == 0
    status, payload = get(server, "/scenarios/muddy_children")
    assert status == 200
    assert payload == json.loads(out)


def test_run_matches_cli_run_json(server, capsys):
    code, out, _ = run_cli(
        capsys, "run", "muddy_children", "-p", "n=3", "-p", "k=2", "--json"
    )
    assert code == 0
    status, body = post(
        server, "/run", {"scenario": "muddy_children", "params": {"n": 3, "k": 2}}
    )
    assert status == 200
    assert comparable(json.loads(body)) == comparable(json.loads(out))


def test_sweep_rows_match_cli_sweep_json(server, capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "muddy_children",
        "-g",
        "n=2..4",
        "-p",
        "k=1",
        "--json",
    )
    assert code == 0
    cli_rows = json.loads(out)
    status, body = post(
        server,
        "/sweep",
        {
            "scenario": "muddy_children",
            "grid": {"n": [2, 3, 4]},
            "params": {"k": 1},
        },
    )
    assert status == 200
    lines = [json.loads(line) for line in body.decode().splitlines()]
    assert lines[-1] == {"sweep_complete": True, "rows": len(cli_rows)}
    served_rows = lines[:-1]
    assert len(served_rows) == len(cli_rows)
    for served, expected in zip(served_rows, cli_rows):
        assert comparable(served) == comparable(expected)


@pytest.mark.parametrize(
    "path,payload",
    [
        ("/run", {"scenario": "muddy_children", "backend": "frozenset"}),
        ("/sweep", {"scenario": "muddy_children", "grid": {"n": [2]}, "backends": "both"}),
    ],
)
def test_backend_choice_fields_are_rejected(server, path, payload):
    status, body = post(server, path, payload)
    assert status == 400
    assert "unknown request field" in json.loads(body)["error"]["message"]


def test_sweep_rows_are_compact_single_lines(server):
    status, body = post(
        server,
        "/sweep",
        {"scenario": "muddy_children", "grid": {"n": [2]}, "params": {"k": 1}},
    )
    assert status == 200
    lines = body.decode().splitlines()
    for line in lines:
        # each line is one complete, compact JSON document
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


# -- error bodies --------------------------------------------------------------

def test_unknown_scenario_is_404(server):
    status, body = post(server, "/run", {"scenario": "nope", "params": {}})
    assert status == 404
    error = json.loads(body)["error"]
    assert error["type"] == "unknown_scenario"
    assert "nope" in error["message"]
    status, _payload = get(server, "/scenarios/nope")
    assert status == 404


def test_check_error_carries_rep_diagnostics(server):
    status, body = post(
        server,
        "/run",
        {"scenario": "muddy_children", "formulas": ["K_1 bogus_atom"]},
    )
    assert status == 400
    error = json.loads(body)["error"]
    assert error["type"] == "check_failed"
    codes = {diagnostic["code"] for diagnostic in error["diagnostics"]}
    assert codes & {"REP101", "REP102"}


def test_bad_parameter_is_400(server):
    status, body = post(
        server, "/run", {"scenario": "muddy_children", "params": {"n": 2.5}}
    )
    assert status == 400
    assert "fractional" in json.loads(body)["error"]["message"]


@pytest.mark.parametrize(
    "scenario,name,value",
    [("muddy_children", "n", 17), ("cheating_husbands", "n", 17), ("phases", "skew", 129)],
)
def test_over_maximum_parameter_is_refused_before_any_build(server, capsys, scenario, name, value):
    code, _, err = run_cli(capsys, "run", scenario, "-p", f"{name}={value}")
    assert code == 2
    assert "must be <=" in err
    status, body = post(server, "/run", {"scenario": scenario, "params": {name: value}})
    assert status == 400
    assert "must be <=" in json.loads(body)["error"]["message"]
    assert server.app.state.runner.cached_instances == 0


def test_unexpected_exception_is_a_structured_500(server):
    """An exception outside the repro error types still gets a JSON answer.

    A deep enough protocol horizon used to raise ``RecursionError`` in run
    enumeration, which escaped the dispatcher and closed the connection
    with no response; any such error now maps to ``internal_error``.
    """
    runner = server.app.state.runner

    def overflowing(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    runner._evaluate = overflowing
    status, body = post(server, "/run", {"scenario": "muddy_children", "params": {"n": 2}})
    assert status == 500
    error = json.loads(body)["error"]
    assert error["type"] == "internal_error"
    assert error["message"].startswith("RecursionError: ")
    status, payload = get(server, "/healthz")
    assert status == 200 and payload["ok"] is True


def test_invalid_json_body_is_400(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("POST", "/run", body=b"{not json")
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"]["type"] == "invalid_request"
    finally:
        conn.close()


def test_unknown_route_and_bad_method(server):
    status, payload = get(server, "/no/such/route")
    assert status == 404
    assert payload["error"]["type"] == "not_found"
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("POST", "/healthz", body=b"{}")
        response = conn.getresponse()
        assert response.status == 405
    finally:
        conn.close()


def test_sweep_conflicting_fixed_and_swept_param(server):
    status, body = post(
        server,
        "/sweep",
        {"scenario": "muddy_children", "grid": {"n": [2, 3]}, "params": {"n": 2}},
    )
    assert status == 400
    assert "both fixed" in json.loads(body)["error"]["message"]


def test_sweep_invalid_batch_fails_before_streaming(server):
    # pre-flight runs before the 200 status line: the failure is a JSON
    # error body, not a truncated NDJSON stream
    status, body = post(
        server,
        "/sweep",
        {
            "scenario": "muddy_children",
            "grid": {"n": [2, 3]},
            "formulas": ["K_1 bogus_atom"],
        },
    )
    assert status == 400
    assert json.loads(body)["error"]["type"] == "check_failed"


# -- coalescing ----------------------------------------------------------------

def test_concurrent_identical_runs_coalesce_to_one_evaluation():
    with ServerThread() as server:
        runner = slow_runner(server)
        payload = {"scenario": "muddy_children", "params": {"n": 4, "k": 3}}

        def one(_index):
            return post(server, "/run", payload)

        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(one, range(8)))
        assert {status for status, _ in results} == {200}
        assert len({body for _, body in results}) == 1
        assert runner.eval_count == 1
        _status, stats = get(server, "/stats")
        assert stats["eval_count"] == 1
        assert stats["coalesce"]["misses"] == 1
        assert stats["coalesce"]["hits"] == 7


def test_different_requests_do_not_coalesce():
    with ServerThread() as server:
        runner = slow_runner(server, delay=0.15)

        def one(n):
            return post(
                server, "/run", {"scenario": "muddy_children", "params": {"n": n}}
            )

        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(one, (3, 4)))
        assert {status for status, _ in results} == {200}
        assert runner.eval_count == 2


def test_digest_identical_across_json_and_cli_spellings():
    # JSON floats, JSON ints and CLI strings all canonicalise to the same
    # content address — the coalescing key and the store key are one thing
    spellings = [
        {"scenario": "muddy_children", "params": {"n": 4.0, "k": 2.0}},
        {"scenario": "muddy_children", "params": {"n": 4, "k": 2}},
        {"scenario": "muddy_children", "params": {"n": "4", "k": "2"}},
        {"scenario": "muddy_children", "params": {"k": 2, "n": 4}},
    ]
    digests = {parse_run_request(payload).digest for payload in spellings}
    assert len(digests) == 1
    assert None not in digests


def test_http_run_and_cli_run_share_a_store_row(tmp_path, capsys):
    # The differential test pinning satellite 3: an HTTP request with JSON
    # float params and a CLI invocation with -p strings must land on the
    # same store key, so the CLI run is served from the HTTP run's row.
    store_path = str(tmp_path / "serve.sqlite")
    with ServerThread(store_path=store_path) as server:
        status, body = post(
            server,
            "/run",
            {"scenario": "muddy_children", "params": {"n": 4.0, "k": 2.0}},
        )
        assert status == 200
        assert json.loads(body)["from_store"] is False
        assert server.app.state.runner.eval_count == 1

        # a second identical request is served from the store, not re-evaluated
        status, body = post(
            server,
            "/run",
            {"scenario": "muddy_children", "params": {"n": 4, "k": 2}},
        )
        assert status == 200
        assert json.loads(body)["from_store"] is True
        assert server.app.state.runner.eval_count == 1

    code, out, _ = run_cli(
        capsys,
        "run",
        "muddy_children",
        "-p",
        "n=4",
        "-p",
        "k=2",
        "--store",
        store_path,
        "--resume",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["from_store"] is True


# -- lifecycle -----------------------------------------------------------------

def test_healthz_answers_while_sweep_streams():
    with ServerThread() as server:
        slow_runner(server, delay=0.3)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request(
                "POST",
                "/sweep",
                body=json.dumps(
                    {
                        "scenario": "muddy_children",
                        "grid": {"n": [2, 3, 4]},
                        "params": {"k": 1},
                    }
                ),
            )
            response = conn.getresponse()
            first = response.readline()  # at least one point evaluated
            assert json.loads(first)["params"]["n"] == 2
            # the remaining points take ~0.6s; the loop must answer now
            started = time.perf_counter()
            status, payload = get(server, "/healthz")
            elapsed = time.perf_counter() - started
            assert status == 200 and payload["ok"] is True
            assert elapsed < 0.25
            rest = response.read().decode()
            assert json.loads(rest.splitlines()[-1])["sweep_complete"] is True
        finally:
            conn.close()


def test_graceful_shutdown_mid_stream_ends_on_a_line_boundary():
    server = ServerThread().start()
    try:
        slow_runner(server, delay=0.2)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        conn.request(
            "POST",
            "/sweep",
            body=json.dumps(
                {
                    "scenario": "muddy_children",
                    "grid": {"n": [2, 3, 4, 5, 6]},
                    "params": {"k": 1},
                }
            ),
        )
        response = conn.getresponse()
        first = response.readline()
        assert json.loads(first)["params"]["n"] == 2
    finally:
        server.stop()
    # whatever arrived after shutdown still parses line by line, and the
    # completion trailer never appeared: the stream is honestly truncated
    remainder = response.read().decode()
    documents = [json.loads(line) for line in remainder.splitlines() if line]
    assert all("sweep_complete" not in doc for doc in documents)
    conn.close()


def test_keepalive_connection_serves_many_requests(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        for _ in range(3):
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
        conn.request(
            "POST",
            "/run",
            body=json.dumps({"scenario": "muddy_children", "params": {}}),
        )
        assert conn.getresponse().status == 200
    finally:
        conn.close()


def test_store_survives_across_requests():
    # the resident store makes the second request a store hit, not an eval
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(store_path=os.path.join(tmp, "s.sqlite")) as server:
            payload = {"scenario": "muddy_children", "params": {"n": 3, "k": 1}}
            post(server, "/run", payload)
            post(server, "/run", payload)
            _status, stats = get(server, "/stats")
            assert stats["eval_count"] == 1
            assert stats["store_hits"] == 1


# -- request schema (no server needed) -----------------------------------------

def test_parse_run_request_rejects_unknown_fields():
    with pytest.raises(ServeRequestError, match="unknown request field"):
        parse_run_request({"scenario": "muddy_children", "prams": {}})


def test_parse_run_request_rejects_non_object():
    with pytest.raises(ServeRequestError, match="JSON object"):
        parse_run_request([1, 2, 3])


def test_parse_sweep_request_counts_grid_points():
    request = parse_sweep_request(
        {
            "scenario": "muddy_children",
            "grid": {"n": [2, 3, 4]},
            "params": {"k": 1},
        }
    )
    assert request.point_count == 3
    assert request.grid["k"] == [1]


def test_parse_sweep_request_rejects_empty_axis():
    with pytest.raises(ServeRequestError, match="non-empty"):
        parse_sweep_request({"scenario": "muddy_children", "grid": {"n": []}})


def test_serve_cli_rejects_bad_workers(capsys):
    code, _out, err = run_cli(capsys, "serve", "--workers", "0")
    assert code == 2
    assert "--workers" in err


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_serve_process_shuts_down_on_signal_even_with_sigint_ignored(signum):
    """A backgrounded server still takes its stop signals and exits 130.

    Non-interactive shells launch ``cmd &`` jobs with SIGINT set to SIG_IGN
    and Python leaves an ignored SIGINT alone — without run_server restoring
    the handler, ``kill -INT`` (and CI's teardown) would hang forever.  The
    subprocess reproduces that launch environment via preexec_fn.
    """
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-store"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=repo_root,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        line = proc.stdout.readline().decode("utf-8", "replace")
        assert "listening on" in line, line
        proc.send_signal(signum)
        code = proc.wait(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert code == 130
