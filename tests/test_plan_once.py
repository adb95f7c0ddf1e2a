"""Every entry point plans a request once and executes that plan.

``repro run``/``repro sweep``, ``ExperimentRunner.run`` and the service's
``POST /run``/``POST /sweep`` all plan through the runner's planner
(validate, pre-flight, key) and hand the plan to
``ExperimentRunner.execute``.  These tests count the static pre-flights,
which run once per planned point, so a second planning pass anywhere on a
path shows up as a second count.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.cli import main
from repro.experiments.registry import params_to_key
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore
from repro.serve import ServerThread


@pytest.fixture
def preflights(monkeypatch):
    """The ``(scenario, params key)`` of every pre-flight, in call order."""
    calls = []
    original = ExperimentRunner.preflight_batch

    def counting(spec, validated, batch, minimize=False):
        calls.append((spec.name, params_to_key(validated)))
        return original(spec, validated, batch, minimize)

    monkeypatch.setattr(ExperimentRunner, "preflight_batch", staticmethod(counting))
    return calls


def post(server, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


RUN = {"scenario": "muddy_children", "params": {"n": 3}}


def test_runner_run_preflights_once(preflights, tmp_path):
    with ResultStore(str(tmp_path / "store.sqlite")) as store:
        runner = ExperimentRunner(store=store)
        runner.run("muddy_children", {"n": 3})  # miss: evaluated and recorded
        assert len(preflights) == 1
        assert runner.run("muddy_children", {"n": 3}).from_store
        assert len(preflights) == 2


def test_served_run_preflights_once_for_a_miss_and_a_hit(preflights, tmp_path):
    with ServerThread(store_path=str(tmp_path / "serve.sqlite")) as server:
        status, miss = post(server, "/run", RUN)
        assert status == 200 and not json.loads(miss)["from_store"]
        assert len(preflights) == 1
        status, hit = post(server, "/run", RUN)
        assert status == 200 and json.loads(hit)["from_store"]
        assert len(preflights) == 2


def test_served_run_without_a_store_preflights_once(preflights):
    with ServerThread() as server:
        status, _body = post(server, "/run", RUN)
        assert status == 200
        assert len(preflights) == 1


@pytest.mark.parametrize("with_store", [False, True])
def test_served_sweep_preflights_each_distinct_point_once(preflights, tmp_path, with_store):
    store_path = str(tmp_path / "serve.sqlite") if with_store else None
    payload = {"scenario": "muddy_children", "grid": {"n": [2, 3, 2]}, "params": {"k": 1}}
    with ServerThread(store_path=store_path) as server:
        status, body = post(server, "/sweep", payload)
        assert status == 200
        lines = [json.loads(line) for line in body.decode().splitlines()]
        assert lines[-1] == {"sweep_complete": True, "rows": 3}
        assert sorted(dict(key)["n"] for _, key in preflights) == [2, 3]


def test_cli_sweep_preflights_each_distinct_point_once(preflights, capsys):
    code = main(
        ["sweep", "muddy_children", "-g", "n=2,3,2", "-p", "k=1", "--no-store", "--json"]
    )
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)) == 3
    assert sorted(dict(key)["n"] for _, key in preflights) == [2, 3]
