"""Persistent content-addressed storage for experiment results.

A sweep's rows die with the process unless something durable remembers them;
this module is that something.  :class:`ResultStore` is an on-disk sqlite
database mapping the *canonical identity of an evaluation request* to the
:class:`~repro.experiments.runner.ExperimentReport` it produced, so that

* ``repro sweep --store PATH --resume`` skips every grid point whose row is
  already recorded (including rows recorded by a sweep that crashed halfway),
* overlapping grids share work across processes and across days, and
* a future long-lived service can answer repeat queries from cache.

Key anatomy
-----------

A request is identified by :class:`StoreKey` — six components, every one of
which changes the answer and therefore the key:

* ``scenario`` — the registered scenario name;
* ``params`` — the *validated* parameter assignment, flattened through
  :func:`~repro.experiments.registry.params_to_key` (sorted tuple, so spelling
  order never matters);
* ``formulas`` — the evaluated batch as ``(label, pretty(formula))`` pairs.
  The PR 5 pretty-printer is a structural inverse of the parser
  (``parse(pretty(f)) == f``), which makes the text form a faithful canonical
  spelling of the formula; two structurally equal formulas always print
  identically, whatever code built them;
* ``backend`` — the resolved engine backend name.  The runner, the CLI and
  the service always evaluate on ``bitset``, the production backend; the
  ``frozenset`` oracle only appears here under a test that makes it the
  engine's process-wide default;
* ``minimize`` — whether evaluation ran on the bisimulation quotient
  (universe and counts differ there);
* ``semantics_version`` — :data:`SEMANTICS_VERSION`, bumped whenever the
  meaning of a stored row changes (an operator's semantics, a report field's
  interpretation).  Bumping it orphans every existing row.

The canonical JSON rendering of those components is hashed (sha256) into the
content address; the components are *also* stored as columns so ``repro store
stats``/``gc`` can slice the contents without re-deriving anything.

Concurrency
-----------

The database runs in WAL journal mode with a busy timeout: concurrent sweep
processes pointed at the same store read without blocking the single writer,
and writers queue instead of failing.  Within one sweep, only the parent
process touches the store — pool workers ship plain report rows back and the
parent persists each one as it streams in — so ``--jobs N`` adds no writer
concurrency at all.  Across sweeps, whole processes may race: store creation
keys off the database's actual table set (not file existence) and is
idempotent, so two processes opening the same fresh path converge on one
schema instead of misreading each other's half-created file, and racing
``put``\\s of the same key settle last-write-wins on identical content.

Within one process, a single :class:`ResultStore` may now also be shared by
*threads* — the ``repro serve`` evaluation service runs model checks in a
thread pool, with every worker reading and writing the same store.  sqlite
connections are not safely shareable across threads, so the store hands each
thread its own connection (created lazily, with the same WAL/busy-timeout
pragmas) through a :class:`threading.local`; transactions therefore never
interleave across threads, cross-thread write ordering is sqlite's (WAL,
last-write-wins on identical content), and :meth:`close` closes every
connection the store ever opened, whichever thread it is called from.

Quarantined reports (see :mod:`repro.experiments.supervise`) are refused by
:meth:`ResultStore.put`: a failure must never satisfy a future ``--resume``
lookup, so failed grid points are always re-attempted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine import resolve_backend_name
from repro.errors import FormulaError, StoreError
from repro.experiments.registry import ParamKey
from repro.experiments.runner import ExperimentReport
from repro.logic.pretty import pretty
from repro.logic.syntax import Formula

__all__ = [
    "SEMANTICS_VERSION",
    "SCHEMA_VERSION",
    "StoreKey",
    "ResultStore",
    "request_key",
]

SEMANTICS_VERSION = 1
"""Version of the *meaning* of stored rows.

Bump this whenever an evaluation-semantics change makes previously recorded
reports unreproducible — a fixed operator bug, a changed report field
interpretation, a new normalisation of formula batches.  Stores recorded under
another semantics version refuse to open (see :class:`ResultStore`) until
``repro store gc --stale`` prunes the orphaned rows.
"""

SCHEMA_VERSION = 1
"""Version of the sqlite layout itself (tables/columns/indexes)."""

_GIT_SHA_CACHE: Optional[str] = None


def current_git_sha() -> Optional[str]:
    """The repository HEAD commit, or ``None`` outside a git checkout.

    Recorded in new stores' meta table (and by ``tools/bench_report.py``) so
    stored results stay attributable to the code that produced them.  Cached:
    the answer cannot change within one process run.
    """
    global _GIT_SHA_CACHE
    if _GIT_SHA_CACHE is None:
        import subprocess

        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = completed.stdout.strip()
            _GIT_SHA_CACHE = sha if completed.returncode == 0 and sha else ""
        except (OSError, ValueError):
            _GIT_SHA_CACHE = ""
    return _GIT_SHA_CACHE or None


def _utc_now() -> str:
    """A timezone-stable UTC ISO-8601 timestamp (explicit ``Z`` designator)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True)
class StoreKey:
    """The canonical identity of one evaluation request (see module docs).

    Build keys with :meth:`for_request` — it canonicalises the formula batch
    through the pretty-printer and pins the current semantics version — rather
    than by calling the constructor with hand-rolled components.
    """

    scenario: str
    params: ParamKey
    formulas: Tuple[Tuple[str, str], ...]
    backend: str
    minimize: bool
    semantics_version: int = SEMANTICS_VERSION

    @classmethod
    def for_request(
        cls,
        scenario: str,
        params: ParamKey,
        batch: Iterable[Tuple[str, Formula]],
        backend: str,
        minimize: bool,
    ) -> "StoreKey":
        """The key for evaluating ``batch`` on ``scenario`` at ``params``.

        ``params`` must already be the validated
        :func:`~repro.experiments.registry.params_to_key` tuple and ``backend``
        the resolved backend name; ``batch`` is the normalised
        ``(label, Formula)`` sequence, canonicalised here via
        :func:`repro.logic.pretty.pretty`.
        """
        return cls(
            scenario=scenario,
            params=params,
            formulas=tuple((label, pretty(formula)) for label, formula in batch),
            backend=backend,
            minimize=bool(minimize),
        )

    def canonical(self) -> str:
        """The deterministic JSON rendering the content address is hashed from.

        Every component is already in canonical order (``params`` is sorted by
        :func:`params_to_key`; the formula batch keeps the caller's label
        order, which is part of the request), so a plain compact dump is
        stable across processes, platforms and dict-construction order.
        """
        return json.dumps(
            [
                self.scenario,
                [[name, value] for name, value in self.params],
                [[label, text] for label, text in self.formulas],
                self.backend,
                self.minimize,
                self.semantics_version,
            ],
            separators=(",", ":"),
            sort_keys=False,
        )

    @property
    def digest(self) -> str:
        """The sha256 content address of :meth:`canonical`."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


def request_key(
    scenario: str,
    params: ParamKey,
    batch: Iterable[Tuple[str, Formula]],
    backend: Optional[str],
    minimize: bool,
) -> Optional[StoreKey]:
    """The store key of one request, which is also its coalescing address.

    ``backend`` is resolved here (``None`` means the process-wide engine
    default).  Returns ``None`` when a formula in the batch has no canonical
    text form (the pretty-printer refuses names that would not round-trip):
    such a request simply bypasses persistence and coalescing instead of
    failing.
    """
    try:
        return StoreKey.for_request(
            scenario, params, batch, resolve_backend_name(backend), minimize
        )
    except FormulaError:
        return None


def _corrupt(path: str, detail: str) -> StoreError:
    return StoreError(
        f"result store {path!r} is not a readable store ({detail}); "
        "delete the file to rebuild it from scratch, or pass --no-store to "
        "run without persistence"
    )


class ResultStore:
    """An on-disk content-addressed map from :class:`StoreKey` to report.

    Parameters
    ----------
    path:
        The sqlite database file.  Created (with meta rows recording the
        schema/semantics versions, creation time and git SHA) when absent.
    check_semantics:
        When true (the default, used by the runner), a store recorded under a
        different :data:`SEMANTICS_VERSION` refuses to open with a
        :class:`~repro.errors.StoreError` naming the remedy.  ``repro store
        stats``/``gc`` open with ``check_semantics=False`` so a stale store
        can still be inspected and pruned.

    The store is a context manager; :meth:`close` is idempotent.  Instances
    are thread-safe: every thread transparently gets its own sqlite
    connection (see the module's Concurrency section), so a long-lived
    service can share one store across its whole worker pool.
    """

    def __init__(self, path: str, check_semantics: bool = True):
        self.path = str(path)
        self._closed = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        try:
            self._adopt(self._connect())
            conn = self.connection
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            # Decide fresh-vs-existing from the table set, never from file
            # existence: ``connect`` materialises the file before the first
            # schema transaction commits, so a concurrent opener racing the
            # creator would otherwise misread a store mid-creation as corrupt.
            # An entirely empty database is safe to (re-)initialise —
            # ``_create`` is idempotent, so racing creators converge.
            if not tables:
                self._create(conn)
            self._check_layout(conn, check_semantics)
        except sqlite3.DatabaseError as error:
            self.close()
            raise _corrupt(self.path, str(error)) from None
        except BaseException:
            self.close()
            raise

    # -- lifecycle -------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        """Open one pragma-configured connection to the store's database.

        ``check_same_thread=False`` does *not* mean the connection is shared
        across threads — each thread keeps its own via :attr:`_local` — it
        means :meth:`close` may close connections that other threads opened,
        which is exactly what a service shutdown needs.
        """
        conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
        except BaseException:
            conn.close()
            raise
        return conn

    def _adopt(self, conn: sqlite3.Connection) -> None:
        """Register ``conn`` as the calling thread's connection."""
        self._local.conn = conn
        with self._lock:
            self._connections.append(conn)

    def close(self) -> None:
        """Close every connection the store opened, in any thread (idempotent).

        After close, any use of the store — from any thread — raises
        :class:`~repro.errors.StoreError`.
        """
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The calling thread's live sqlite connection.

        Created on first use per thread (with the store's pragmas) so threads
        never share a connection object — sqlite transactions stay
        thread-local.  Raises :class:`StoreError` once the store is closed.
        """
        if self._closed:
            raise StoreError(f"result store {self.path!r} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            try:
                conn = self._connect()
            except sqlite3.DatabaseError as error:
                raise _corrupt(self.path, str(error)) from None
            self._adopt(conn)
            # A close() racing this thread's connect may have missed the new
            # connection; re-check so no connection outlives the store.
            if self._closed:
                conn.close()
                raise StoreError(f"result store {self.path!r} is closed")
        return conn

    # -- schema ----------------------------------------------------------------
    def _create(self, conn: sqlite3.Connection) -> None:
        # One explicit transaction around the whole schema.  sqlite3 runs DDL
        # in autocommit mode, so without this the tables would land before the
        # meta rows and a concurrent opener could observe the gap ("schema
        # version unknown").  BEGIN IMMEDIATE also serialises racing creators:
        # the loser waits on the busy timeout, then finds everything IF NOT
        # EXISTS / OR IGNORE already in place.
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " digest TEXT PRIMARY KEY,"
                " scenario TEXT NOT NULL,"
                " params TEXT NOT NULL,"
                " formulas TEXT NOT NULL,"
                " backend TEXT NOT NULL,"
                " minimize INTEGER NOT NULL,"
                " semantics_version INTEGER NOT NULL,"
                " payload TEXT NOT NULL,"
                " created_at TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_results_scenario"
                " ON results (scenario, backend)"
            )
            meta = {
                "schema_version": str(SCHEMA_VERSION),
                "semantics_version": str(SEMANTICS_VERSION),
                "created_at": _utc_now(),
                "git_sha": current_git_sha() or "",
            }
            # OR IGNORE: if a concurrent creator committed meta first, its
            # rows (notably created_at) win and this insert is a no-op.
            conn.executemany(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                sorted(meta.items()),
            )
        except BaseException:
            conn.rollback()
            raise
        else:
            conn.commit()

    def _check_layout(self, conn: sqlite3.Connection, check_semantics: bool) -> None:
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "meta" not in tables or "results" not in tables:
            raise _corrupt(
                self.path, "missing the meta/results tables of a result store"
            )
        meta = self._read_meta(conn)
        schema = meta.get("schema_version")
        if schema != str(SCHEMA_VERSION):
            raise StoreError(
                f"result store {self.path!r} uses store schema version "
                f"{schema or 'unknown'}, but this build expects "
                f"{SCHEMA_VERSION}; delete the file and re-run to rebuild it"
            )
        if check_semantics:
            semantics = meta.get("semantics_version")
            if semantics != str(SEMANTICS_VERSION):
                raise StoreError(
                    f"result store {self.path!r} holds rows recorded under "
                    f"semantics version {semantics or 'unknown'}, but this "
                    f"build evaluates semantics version {SEMANTICS_VERSION}; "
                    f"run 'repro store gc --stale {self.path}' to prune them "
                    "(or delete the file, or pass --no-store)"
                )

    @staticmethod
    def _read_meta(conn: sqlite3.Connection) -> Dict[str, str]:
        return {key: value for key, value in conn.execute("SELECT key, value FROM meta")}

    @property
    def meta(self) -> Dict[str, str]:
        """The store's meta table (versions, creation time, git SHA)."""
        try:
            return self._read_meta(self.connection)
        except sqlite3.DatabaseError as error:
            raise _corrupt(self.path, str(error)) from None

    # -- the content-addressed map ---------------------------------------------
    def get(self, key: StoreKey) -> Optional[ExperimentReport]:
        """The stored report for ``key``, or ``None`` on a miss.

        Served reports are marked ``from_store=True``; every other field —
        including the recorded timing fields — is exactly what the original
        evaluation produced.
        """
        try:
            row = self.connection.execute(
                "SELECT payload FROM results WHERE digest = ?", (key.digest,)
            ).fetchone()
        except sqlite3.DatabaseError as error:
            raise _corrupt(self.path, str(error)) from None
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError as error:
            raise _corrupt(self.path, f"undecodable payload: {error}") from None
        report = ExperimentReport.from_dict(payload)
        report.from_store = True
        return report

    def __contains__(self, key: StoreKey) -> bool:
        try:
            row = self.connection.execute(
                "SELECT 1 FROM results WHERE digest = ?", (key.digest,)
            ).fetchone()
        except sqlite3.DatabaseError as error:
            raise _corrupt(self.path, str(error)) from None
        return row is not None

    def put(self, key: StoreKey, report: ExperimentReport) -> None:
        """Record ``report`` under ``key`` (idempotent; last write wins).

        Each put is its own committed transaction, so a sweep that dies
        mid-grid leaves every already-reported row durably recorded — that is
        what ``--resume`` resumes from.

        Quarantined reports (``report.error`` set) are refused outright: a
        failure must never satisfy a future resume lookup, or the store would
        convert one transient fault into a permanently wrong answer.  The
        supervised sweep paths already skip the put for them, so tripping this
        guard indicates a caller bug.
        """
        if report.error is not None:
            raise StoreError(
                f"refusing to record a quarantined report for scenario "
                f"{report.scenario!r} params {report.params!r} in {self.path}: "
                "failed grid points are re-attempted on resume, never cached"
            )
        payload = dict(report.to_dict())
        payload["from_store"] = False
        try:
            with self.connection as conn:
                conn.execute(
                    "INSERT OR REPLACE INTO results"
                    " (digest, scenario, params, formulas, backend, minimize,"
                    "  semantics_version, payload, created_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        key.digest,
                        key.scenario,
                        json.dumps([[n, v] for n, v in key.params]),
                        json.dumps([[label, text] for label, text in key.formulas]),
                        key.backend,
                        int(key.minimize),
                        key.semantics_version,
                        json.dumps(payload),
                        _utc_now(),
                    ),
                )
        except sqlite3.DatabaseError as error:
            raise _corrupt(self.path, str(error)) from None

    # -- inspection and pruning ------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """A JSON-ready summary: row counts, per-(scenario, backend) slices, meta."""
        try:
            conn = self.connection
            total = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            by_slice = [
                {
                    "scenario": scenario,
                    "backend": backend,
                    "minimized": bool(minimize),
                    "rows": rows,
                }
                for scenario, backend, minimize, rows in conn.execute(
                    "SELECT scenario, backend, minimize, COUNT(*) FROM results"
                    " GROUP BY scenario, backend, minimize"
                    " ORDER BY scenario, backend, minimize"
                )
            ]
            stale = conn.execute(
                "SELECT COUNT(*) FROM results WHERE semantics_version != ?",
                (SEMANTICS_VERSION,),
            ).fetchone()[0]
        except sqlite3.DatabaseError as error:
            raise _corrupt(self.path, str(error)) from None
        return {
            "path": self.path,
            "file_bytes": os.path.getsize(self.path),
            "rows": total,
            "stale_rows": stale,
            "slices": by_slice,
            "meta": self.meta,
        }

    def gc(
        self,
        scenario: Optional[str] = None,
        backend: Optional[str] = None,
        stale: bool = False,
        all_rows: bool = False,
    ) -> int:
        """Delete rows and reclaim space; returns the number of rows removed.

        Filters compose: ``scenario``/``backend`` restrict to matching rows,
        ``stale`` selects rows recorded under a different semantics version
        (and afterwards stamps the meta table with the current one, so the
        store opens normally again), and ``all_rows=True`` empties the store.
        At least one selector is required — a bare ``gc`` deleting everything
        by accident would be a terrible default.
        """
        if not (stale or all_rows or scenario is not None or backend is not None):
            raise StoreError(
                "store gc needs a selector: --scenario, --backend, --stale or --all"
            )
        clauses: List[str] = []
        values: List[object] = []
        if not all_rows:
            if scenario is not None:
                clauses.append("scenario = ?")
                values.append(scenario)
            if backend is not None:
                clauses.append("backend = ?")
                values.append(backend)
            if stale:
                clauses.append("semantics_version != ?")
                values.append(SEMANTICS_VERSION)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        try:
            with self.connection as conn:
                removed = conn.execute(
                    f"DELETE FROM results{where}", tuple(values)
                ).rowcount
                if stale:
                    conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        ("semantics_version", str(SEMANTICS_VERSION)),
                    )
            self.connection.execute("VACUUM")
        except sqlite3.DatabaseError as error:
            raise _corrupt(self.path, str(error)) from None
        return removed
