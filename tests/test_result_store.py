"""The persistent result store: key stability, round-trips, and error paths.

Three families of guarantees live here:

* **Key stability** — :class:`~repro.experiments.store.StoreKey` is the
  store's entire correctness story: two requests share a row exactly when
  their keys agree.  Property tests over seeded random formula batches pin
  that the key round-trips every component (``params_from_key``,
  ``parse(pretty(f))``), ignores dict spelling order and the hash seed of the
  computing process, and changes whenever *any* of its six components does.
* **Store behaviour** — put/get round-trips, the runner's resume semantics
  (``eval_count``/``store_hits`` bookkeeping, ``resume=False`` write-only
  mode, the ``--no-store`` bypass), and the CLI ``store stats``/``gc``
  surface.
* **Error paths** — garbage files, truncated databases, semantics-version
  and schema-version mismatches must fail with a :class:`StoreError` that
  names the offending path and a remedy, never a bare sqlite traceback.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sqlite3
import subprocess
import sys

import pytest

from test_pretty_roundtrip import generate

from repro.cli import main as cli_main
from repro.errors import FormulaError, StoreError
from repro.experiments import (
    SCHEMA_VERSION,
    SEMANTICS_VERSION,
    ExperimentRunner,
    ResultStore,
    StoreKey,
    get_scenario,
    params_from_key,
    params_to_key,
)
from repro.logic.parser import parse
from repro.logic.pretty import pretty
from repro.logic.syntax import Knows, Prop


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def comparable(reports):
    """Everything a report promises deterministically (timings excluded)."""
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


def random_request(seed):
    """A seeded random evaluation request: validated params + formula batch."""
    rng = random.Random(seed)
    spec = get_scenario("muddy_children")
    validated = spec.validate_params({"n": rng.randint(2, 6)})
    batch = [
        (f"f{i}", generate(rng, rng.randint(1, 3)))
        for i in range(rng.randint(1, 4))
    ]
    backend = rng.choice(("frozenset", "bitset"))
    minimize = rng.choice((False, True))
    return spec, validated, batch, backend, minimize


# -- key stability -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_store_key_round_trips_every_component(seed):
    """Params and formulas are recoverable from the key — nothing is lossy."""
    spec, validated, batch, backend, minimize = random_request(seed)
    key = StoreKey.for_request(
        spec.name, params_to_key(validated), batch, backend, minimize
    )
    assert key.scenario == spec.name
    assert params_from_key(key.params) == validated
    assert key.backend == backend
    assert key.minimize == minimize
    assert key.semantics_version == SEMANTICS_VERSION
    assert len(key.formulas) == len(batch)
    for (label, formula), (key_label, text) in zip(batch, key.formulas):
        assert key_label == label
        assert parse(text) == formula


@pytest.mark.parametrize("seed", range(25))
def test_store_key_is_content_addressed(seed):
    """Structurally equal requests digest identically, however they were built.

    The params dict is re-spelled in reversed insertion order and every
    formula is rebuilt from its own pretty-printed text; neither may move the
    digest, because neither changes the request.
    """
    spec, validated, batch, backend, minimize = random_request(seed)
    key = StoreKey.for_request(
        spec.name, params_to_key(validated), batch, backend, minimize
    )
    reordered = dict(reversed(list(validated.items())))
    rebuilt_batch = [(label, parse(pretty(formula))) for label, formula in batch]
    rebuilt = StoreKey.for_request(
        spec.name, params_to_key(reordered), rebuilt_batch, backend, minimize
    )
    assert rebuilt == key
    assert rebuilt.digest == key.digest


def test_store_key_stable_across_processes(tmp_path):
    """The digest is a function of the request, not of the computing process.

    A worker process must derive the same content address the parent did, or
    resumed sweeps would silently re-evaluate everything.  Re-deriving the
    digest under two different fixed hash seeds also rules out any dependence
    on ``PYTHONHASHSEED`` (i.e. on set/dict iteration order).
    """
    spec = get_scenario("muddy_children")
    validated = spec.validate_params({"n": 3})
    batch = list(spec.default_formulas(validated).items())
    key = StoreKey.for_request(
        spec.name, params_to_key(validated), batch, "frozenset", False
    )
    script = tmp_path / "digest_of.py"
    script.write_text(
        "from repro.experiments import StoreKey, get_scenario, params_to_key\n"
        "spec = get_scenario('muddy_children')\n"
        "params = spec.validate_params({'n': 3})\n"
        "batch = list(spec.default_formulas(params).items())\n"
        "key = StoreKey.for_request(\n"
        "    spec.name, params_to_key(params), batch, 'frozenset', False)\n"
        "print(key.digest)\n"
    )
    for hash_seed in ("0", "42"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == key.digest


def test_store_key_changes_with_every_component():
    """Each of the six key components moves the digest on its own."""
    spec = get_scenario("muddy_children")
    validated = spec.validate_params({"n": 3})
    batch = [("goal", Knows("child_0", Prop("muddy_0")))]

    def key(scenario=spec.name, params=None, formulas=batch,
            backend="frozenset", minimize=False):
        return StoreKey.for_request(
            scenario,
            params_to_key(spec.validate_params(params) if params else validated),
            formulas,
            backend,
            minimize,
        )

    base = key()
    variants = [
        key(scenario="coordinated_attack"),
        key(params={"n": 4}),
        key(formulas=[("renamed", batch[0][1])]),
        key(formulas=[("goal", Knows("child_1", Prop("muddy_0")))]),
        key(backend="bitset"),
        key(minimize=True),
        dataclasses.replace(base, semantics_version=SEMANTICS_VERSION + 1),
    ]
    digests = {base.digest} | {variant.digest for variant in variants}
    assert len(digests) == len(variants) + 1


# -- store behaviour -----------------------------------------------------------


def test_put_get_round_trip_across_connections(tmp_path):
    """A report survives the sqlite round trip and a fresh connection."""
    path = str(tmp_path / "results.sqlite")
    runner = ExperimentRunner(store=ResultStore(path))
    report = runner.run("muddy_children", {"n": 3})
    assert not report.from_store
    runner.store.close()

    spec = get_scenario("muddy_children")
    validated = spec.validate_params({"n": 3})
    key = StoreKey.for_request(
        spec.name,
        params_to_key(validated),
        list(spec.default_formulas(validated).items()),
        report.backend,  # whatever the suite's --engine-backend resolved to
        False,
    )
    with ResultStore(path) as store:
        assert key in store
        served = store.get(key)
        assert served is not None
        assert served.from_store
        assert comparable([served]) == comparable([report])
        # Recorded timings are preserved verbatim, not re-measured.
        assert served.eval_seconds == report.eval_seconds
        missing = dataclasses.replace(key, minimize=True)
        assert missing not in store
        assert store.get(missing) is None


def test_runner_resume_bookkeeping(tmp_path):
    """Second identical run is served from the store: zero new evaluations."""
    store = ResultStore(str(tmp_path / "results.sqlite"))
    runner = ExperimentRunner(store=store)
    first = runner.run("muddy_children", {"n": 3})
    again = runner.run("muddy_children", {"n": 3})
    assert runner.eval_count == 1
    assert runner.store_hits == 1
    assert not first.from_store and again.from_store
    assert comparable([again]) == comparable([first])
    store.close()


def test_runner_resume_false_records_but_reevaluates(tmp_path):
    """``resume=False`` keeps the store write-only: record always, read never."""
    store = ResultStore(str(tmp_path / "results.sqlite"))
    runner = ExperimentRunner(store=store, resume=False)
    runner.run("muddy_children", {"n": 3})
    again = runner.run("muddy_children", {"n": 3})
    assert runner.eval_count == 2
    assert runner.store_hits == 0
    assert not again.from_store
    assert store.stats()["rows"] == 1
    store.close()


def test_non_canonical_formula_bypasses_store(tmp_path):
    """A formula the pretty-printer refuses cannot be keyed — run it fresh."""
    awkward = Prop("not a name")  # no concrete-syntax spelling
    with pytest.raises(FormulaError):
        pretty(awkward)
    store = ResultStore(str(tmp_path / "results.sqlite"))
    runner = ExperimentRunner(store=store)
    report = runner.run("muddy_children", {"n": 2}, formulas=[("odd", awkward)])
    again = runner.run("muddy_children", {"n": 2}, formulas=[("odd", awkward)])
    assert [row.label for row in report.rows] == ["odd"]
    assert runner.eval_count == 2  # never served from the store...
    assert store.stats()["rows"] == 0  # ...and never recorded in it
    assert not again.from_store
    store.close()


# -- the CLI surface -----------------------------------------------------------


def test_cli_resume_needs_a_store(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    code, _, err = run_cli(capsys, "sweep", "muddy_children", "-g", "n=2", "--resume")
    assert code == 2
    assert "--store" in err and "REPRO_STORE" in err


def test_cli_sweep_store_resume_round_trip(tmp_path, capsys):
    path = str(tmp_path / "results.sqlite")
    fresh_code, fresh_out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3",
        "--store", path, "--resume", "--json",
    )
    resumed_code, resumed_out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3",
        "--store", path, "--resume", "--json",
    )
    assert fresh_code == 0 and resumed_code == 0
    fresh = json.loads(fresh_out)
    resumed = json.loads(resumed_out)
    assert [r["from_store"] for r in fresh] == [False, False]
    assert [r["from_store"] for r in resumed] == [True, True]

    def strip(reports):
        return [
            {
                k: v
                for k, v in report.items()
                if not k.endswith("_seconds") and k != "from_store"
            }
            for report in reports
        ]

    assert strip(resumed) == strip(fresh)


def test_cli_no_store_bypasses_even_the_env_default(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "env.sqlite")
    monkeypatch.setenv("REPRO_STORE", path)
    code, _, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2", "--no-store", "--json"
    )
    assert code == 0
    assert not os.path.exists(path)  # bypass means no store is even created
    code, out, _ = run_cli(capsys, "sweep", "muddy_children", "-g", "n=2", "--json")
    assert code == 0
    assert os.path.exists(path)  # REPRO_STORE is the default sink
    assert json.loads(out)[0]["from_store"] is False  # recorded, not read


def test_cli_store_stats_and_gc(tmp_path, capsys, engine_backend):
    path = str(tmp_path / "results.sqlite")
    code, _, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2,3", "--store", path
    )
    assert code == 0

    code, out, _ = run_cli(capsys, "store", "stats", path, "--json")
    assert code == 0
    stats = json.loads(out)
    assert stats["rows"] == 2 and stats["stale_rows"] == 0
    assert stats["meta"]["schema_version"] == str(SCHEMA_VERSION)
    assert stats["meta"]["semantics_version"] == str(SEMANTICS_VERSION)
    assert stats["slices"] == [
        {
            "scenario": "muddy_children",
            "backend": engine_backend,  # the engine's default backend
            "minimized": False,
            "rows": 2,
        }
    ]

    code, _, err = run_cli(capsys, "store", "gc", path)
    assert code == 2 and "selector" in err

    code, out, _ = run_cli(capsys, "store", "gc", path, "--scenario", "gossip")
    assert code == 0 and "removed 0 row(s); 2 remaining" in out
    code, out, _ = run_cli(
        capsys, "store", "gc", path, "--scenario", "muddy_children", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"removed": 2, "remaining": 0}


def test_cli_store_stats_refuses_to_create(tmp_path, capsys):
    """Inspecting a path that holds no store must not conjure an empty one."""
    path = str(tmp_path / "nothing_here.sqlite")
    code, _, err = run_cli(capsys, "store", "stats", path)
    assert code == 2
    assert "no result store" in err and "nothing_here.sqlite" in err
    assert not os.path.exists(path)


# -- error paths ---------------------------------------------------------------


def test_garbage_file_raises_store_error(tmp_path):
    path = tmp_path / "garbage.sqlite"
    path.write_bytes(b"this is not a sqlite database at all\n")
    with pytest.raises(StoreError) as excinfo:
        ResultStore(str(path))
    message = str(excinfo.value)
    assert str(path) in message
    assert "delete the file" in message and "--no-store" in message


def test_foreign_sqlite_database_raises_store_error(tmp_path):
    """A valid sqlite file that is not a result store is refused by name."""
    path = tmp_path / "other.sqlite"
    conn = sqlite3.connect(str(path))
    conn.execute("CREATE TABLE unrelated (x)")
    conn.commit()
    conn.close()
    with pytest.raises(StoreError, match="meta/results tables"):
        ResultStore(str(path))


def test_truncated_store_raises_store_error(tmp_path):
    path = str(tmp_path / "results.sqlite")
    runner = ExperimentRunner(store=ResultStore(path))
    runner.run("muddy_children", {"n": 3})
    runner.store.close()
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
    with pytest.raises(StoreError) as excinfo:
        ResultStore(path)
    assert path in str(excinfo.value)


def _tamper(path, sql, *values):
    conn = sqlite3.connect(path)
    conn.execute(sql, values)
    conn.commit()
    conn.close()


def test_semantics_mismatch_refuses_with_remedy(tmp_path, capsys):
    """A store from other semantics refuses to serve; ``gc --stale`` heals it."""
    path = str(tmp_path / "results.sqlite")
    runner = ExperimentRunner(store=ResultStore(path))
    runner.run("muddy_children", {"n": 3})
    runner.store.close()
    _tamper(path, "UPDATE meta SET value = '999' WHERE key = 'semantics_version'")
    _tamper(path, "UPDATE results SET semantics_version = 999")

    with pytest.raises(StoreError) as excinfo:
        ResultStore(path)
    message = str(excinfo.value)
    assert path in message
    assert "semantics version 999" in message
    assert f"semantics version {SEMANTICS_VERSION}" in message
    assert "repro store gc --stale" in message

    # stats still works (inspection skips the semantics check) and counts them.
    code, out, _ = run_cli(capsys, "store", "stats", path, "--json")
    assert code == 0 and json.loads(out)["stale_rows"] == 1

    # The named remedy prunes the orphaned rows and re-stamps the meta table.
    code, out, _ = run_cli(capsys, "store", "gc", path, "--stale")
    assert code == 0 and "removed 1 row(s); 0 remaining" in out
    with ResultStore(path) as healed:  # opens normally again
        assert healed.stats()["rows"] == 0
        assert healed.meta["semantics_version"] == str(SEMANTICS_VERSION)


def test_schema_mismatch_refuses(tmp_path):
    path = str(tmp_path / "results.sqlite")
    ResultStore(path).close()
    _tamper(path, "UPDATE meta SET value = '0' WHERE key = 'schema_version'")
    with pytest.raises(StoreError) as excinfo:
        ResultStore(path)
    message = str(excinfo.value)
    assert "store schema version 0" in message
    assert f"expects {SCHEMA_VERSION}" in message


def test_closed_store_raises(tmp_path):
    store = ResultStore(str(tmp_path / "results.sqlite"))
    store.close()
    store.close()  # idempotent
    with pytest.raises(StoreError, match="closed"):
        store.stats()


def test_store_is_usable_from_many_threads(tmp_path):
    # The evaluation service runs model checks on a thread pool sharing one
    # store.  sqlite connections are not shareable across threads, so the
    # store hands each thread its own lazily-opened connection; before that
    # fix this hammer died with "SQLite objects created in a thread can
    # only be used in that same thread".
    import threading

    store = ResultStore(str(tmp_path / "threads.sqlite"))
    runner = ExperimentRunner(store=store, resume=True)
    errors = []
    barrier = threading.Barrier(8)

    def work(index):
        try:
            barrier.wait(timeout=30)
            for n in (2, 3, 4):
                report = runner.run("muddy_children", {"n": n, "k": 1})
                assert report.rows
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    # every thread saw all three rows; only three evaluations were persisted
    assert store.stats()["rows"] == 3
    assert runner.eval_count + runner.store_hits == 8 * 3
    store.close()


def test_close_invalidates_every_threads_connection(tmp_path):
    # close() must be global: a connection lazily opened by another thread
    # is closed too, and later use from any thread is a StoreError, not a
    # half-alive sqlite handle
    import threading

    store = ResultStore(str(tmp_path / "closed.sqlite"))
    opened = threading.Event()
    release = threading.Event()
    results = {}

    def other_thread():
        results["conn"] = store.connection  # lazily opens this thread's conn
        opened.set()
        release.wait(timeout=30)
        try:
            store.connection
        except StoreError as error:
            results["error"] = error

    thread = threading.Thread(target=other_thread)
    thread.start()
    assert opened.wait(timeout=30)
    store.close()
    release.set()
    thread.join(timeout=30)
    assert "error" in results
    with pytest.raises(sqlite3.ProgrammingError):
        results["conn"].execute("SELECT 1")  # the foreign conn is truly closed


def test_gc_requires_a_selector(tmp_path):
    with ResultStore(str(tmp_path / "results.sqlite")) as store:
        with pytest.raises(StoreError, match="selector"):
            store.gc()
