"""Batch experiment execution over registered scenarios.

:class:`ExperimentRunner` is the bridge between the scenario registry and the
PR 1 evaluation engine: it instantiates a scenario for a parameter assignment
(caching the built model by parameter key, so sweeping formulas over the same
grid point never rebuilds the model), wraps it in the right evaluator
(:class:`~repro.kripke.checker.ModelChecker` for Kripke structures,
:class:`~repro.systems.interpretation.ViewBasedInterpretation` for systems), and
evaluates whole formula batches through the engine's shared-memo
``summaries()`` API, which reads each row's count and focus verdict off the
backend's own values.

Typical use::

    runner = ExperimentRunner()
    report = runner.run("muddy_children", {"n": 4, "k": 2})
    for row in report.rows:
        print(row.label, row.count, row.holds_at_focus)

    reports = runner.sweep("muddy_children", grid={"n": range(2, 8)})

Evaluators follow the engine's process-wide default backend, which is the
``bitset`` production backend; the runner offers no backend choice of its own.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.diagnostics import render_diagnostics, summarize
from repro.errors import CheckError, ReproError, ScenarioError
from repro.experiments.parallel import RunSpec, resolve_jobs
from repro.experiments.policy import (
    FaultPolicy,
    attempt_record,
    describe_failure,
    quarantine_report,
    settle_failure,
)
from repro.experiments.registry import (
    KIND_KRIPKE,
    BuiltScenario,
    ScenarioSpec,
    get_scenario,
    params_from_key,
    params_to_key,
)
from repro.logic.check import check_formulas
from repro.logic.parser import parse
from repro.logic.syntax import Formula

if TYPE_CHECKING:  # pragma: no cover - loaded by the paths that need them
    from repro.experiments.store import ResultStore, StoreKey
    from repro.kripke.checker import ModelChecker
    from repro.systems.interpretation import ViewBasedInterpretation

CHAOS_ENV_VAR = "REPRO_CHAOS"
"""The fault-injection switch (:data:`repro.experiments.chaos.ENV_VAR`).

The runner imports :mod:`repro.experiments.chaos` only while it is set, so
an evaluation outside chaos testing never loads the harness."""

__all__ = [
    "ScenarioInstance",
    "FormulaOutcome",
    "ExperimentReport",
    "ExperimentRunner",
    "PlannedPoint",
    "DEFAULT_MAX_CACHED_INSTANCES",
    "POOL_START_SECONDS",
    "pool_pays",
]

Evaluator = Union["ModelChecker", "ViewBasedInterpretation"]
FormulaLike = Union[str, Formula, Tuple[str, Union[str, Formula]]]

DEFAULT_MAX_CACHED_INSTANCES = 128
"""Default bound on the runner's built-instance cache.

Deliberately generous — every sweep the paper's scenarios motivate fits well
under it, so the common case keeps every grid point's model and evaluators
warm — while still guaranteeing that a huge cartesian grid (thousands of
points) cannot grow the process without bound: once the cache is full, the
least recently used instance (with its evaluators and their memos) is evicted.
"""

POOL_START_SECONDS = 0.025
"""What starting the sweep pool costs, in seconds: the break-even of :func:`pool_pays`.

Measured with Python 3.11 on Linux, for a two-worker
:class:`~repro.experiments.supervise.SweepSupervisor` pool: on one CPU,
forking the bare pool costs about 13 ms, the worker initializer and its
first round trips 11 ms, and the shutdown 3.6 ms; on two CPUs the whole
overhead over in-process evaluation is about 15 ms.  Starting a pool for
less work than this makes a ``jobs > 1`` sweep slower than a serial one.
"""


def pool_pays(remaining: int, mean_seconds: float, jobs: int) -> bool:
    """Whether handing ``remaining`` grid points to a pool of ``jobs`` pays.

    ``mean_seconds`` is the measured in-process time per point so far.  With
    ``w = min(jobs, remaining)`` workers the pool saves the share
    ``1 - 1/w`` of the remaining work, and it pays once that saving exceeds
    :data:`POOL_START_SECONDS` — the ski-rental break-even (Karlin et al.,
    "Competitive snoopy caching", 1988): a grid that turns out heavy loses at
    most one point's time before the pool starts.  One worker never pays,
    so neither ``jobs=1`` nor a lone remaining point starts a pool.
    """
    workers = min(jobs, remaining)
    return workers > 1 and remaining * mean_seconds * (1 - 1 / workers) > POOL_START_SECONDS


class ScenarioInstance:
    """A scenario built for one validated parameter assignment.

    Owns the built model and hands out its evaluators, one for the model and
    one for its bisimulation quotient.  Evaluators are cached: asking twice for
    the same one returns the same object, so its engine memo keeps accumulating
    across queries.
    """

    def __init__(self, spec: ScenarioSpec, params: Dict[str, object], built: BuiltScenario, build_seconds: float):
        self.spec = spec
        self.params = params
        self.built = built
        self.build_seconds = build_seconds
        self.kind = ScenarioSpec.kind_of(built.model)
        self._evaluators: Dict[bool, Evaluator] = {}
        self._minimized: Optional[Tuple[object, Dict[object, object]]] = None
        self._universe_size: Optional[int] = None
        # Guards the evaluator/quotient caches above; reentrant because
        # ``evaluator`` -> ``minimized`` nest.
        self._lock = threading.RLock()
        self.eval_lock = threading.Lock()
        """Serialises formula evaluation on this instance's model.

        Evaluators and the built model share mutable caches (engine memos,
        structure-level partition masks) that were written single-threaded;
        holding this lock around ``summaries()`` keeps concurrent
        :meth:`ExperimentRunner.run` calls on the *same* grid point safe while
        different grid points still evaluate in parallel.
        """

    @property
    def model(self):
        """The built model (Kripke structure or system of runs)."""
        return self.built.model

    @property
    def focus(self) -> Optional[object]:
        """The designated world/point, when the scenario singles one out."""
        return self.built.focus

    @property
    def universe_size(self) -> int:
        """How many worlds (Kripke) or points (system) the model has.

        Computed once and cached on the instance — ``run()`` reads it per row
        batch, and re-enumerating a large system's points on every access was
        pure waste.
        """
        if self._universe_size is None:
            if self.kind == KIND_KRIPKE:
                self._universe_size = len(self.model)
            else:
                self._universe_size = self.model.point_count()
        return self._universe_size

    def minimized(self) -> Tuple[object, Dict[object, object]]:
        """The bisimulation quotient of the built model plus the world -> class map.

        System scenarios are first exported to a Kripke structure over
        ``(run name, time)`` worlds (:meth:`ViewBasedInterpretation.to_kripke`),
        so the quotient supports the static fragment of the language only — the
        temporal operators need the run/time shape the quotient no longer
        carries, and the checker rejects them.  The quotient (and the mapping
        used to translate the focus world) is computed once per instance and
        cached, so sweeping formulas over a minimised grid point pays for
        partition refinement exactly once.
        """
        from repro.kripke.bisimulation import quotient

        with self._lock:
            if self._minimized is None:
                model = self.model
                if self.kind != KIND_KRIPKE:
                    from repro.systems.interpretation import ViewBasedInterpretation

                    model = ViewBasedInterpretation(model).to_kripke()
                self._minimized = quotient(model)
            return self._minimized

    def focus_class(self, focus: object) -> Optional[object]:
        """Translate a focus world/point into its bisimulation class.

        System focuses are :class:`~repro.systems.runs.Point` objects, while the
        exported structure's worlds are ``(run name, time)`` labels; this is the
        one place that mapping is applied.
        """
        if focus is None:
            return None
        _, class_of = self.minimized()
        if self.kind != KIND_KRIPKE:
            focus = (focus.run.name, focus.time)
        return class_of[focus]

    def evaluator(self, minimize: bool = False) -> Evaluator:
        """The cached evaluator of the model, or of its quotient with ``minimize``.

        With ``minimize=True`` the evaluator checks the bisimulation quotient of
        the model instead of the model itself (system scenarios quotient their
        Kripke export, see :meth:`minimized`).  Evaluators use the engine's
        process-wide default backend.
        """
        minimize = bool(minimize)
        with self._lock:
            evaluator = self._evaluators.get(minimize)
            if evaluator is None:
                if minimize or self.kind == KIND_KRIPKE:
                    from repro.kripke.checker import ModelChecker

                    evaluator = ModelChecker(
                        self.minimized()[0] if minimize else self.model
                    )
                else:
                    from repro.systems.interpretation import ViewBasedInterpretation

                    evaluator = ViewBasedInterpretation(self.model)
                self._evaluators[minimize] = evaluator
            return evaluator

    def default_formulas(self) -> Dict[str, Formula]:
        """The scenario's default formula set for this parameter assignment."""
        return self.spec.default_formulas(self.params)


@dataclass(frozen=True)
class FormulaOutcome:
    """The evaluation result of one formula on one built scenario."""

    label: str
    formula: str
    count: int
    """How many worlds/points satisfy the formula."""
    universe: int
    """The total number of worlds/points in the model."""
    satisfiable: bool
    valid: bool
    holds_at_focus: Optional[bool]
    """Truth at the designated world/point; ``None`` when the scenario has no focus."""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering of the outcome."""
        return {
            "label": self.label,
            "formula": self.formula,
            "count": self.count,
            "universe": self.universe,
            "satisfiable": self.satisfiable,
            "valid": self.valid,
            "holds_at_focus": self.holds_at_focus,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FormulaOutcome":
        """Rebuild an outcome from its :meth:`to_dict` rendering."""
        return cls(
            label=data["label"],
            formula=data["formula"],
            count=data["count"],
            universe=data["universe"],
            satisfiable=data["satisfiable"],
            valid=data["valid"],
            holds_at_focus=data["holds_at_focus"],
        )


@dataclass
class ExperimentReport:
    """Everything one ``run`` produced: scenario, parameters, backend, outcomes."""

    scenario: str
    params: Dict[str, object]
    backend: str
    kind: str
    universe: int
    focus: Optional[str]
    build_seconds: float
    eval_seconds: float
    rows: List[FormulaOutcome] = field(default_factory=list)
    minimized: bool = False
    """Whether evaluation ran on the bisimulation quotient of the built model
    (``universe`` and the per-row counts then refer to the quotient's classes)."""
    from_store: bool = False
    """Whether this report was served from a persistent
    :class:`~repro.experiments.store.ResultStore` instead of being evaluated;
    served reports keep the *original* evaluation's timing fields."""
    error: Optional[Dict[str, object]] = None
    """``None`` for a healthy report.  A *quarantined* grid point (a supervised
    sweep under ``on_error="skip"`` gave up on it) instead carries
    ``{"kind", "message", "attempts"}`` — the final failure kind (``error`` /
    ``timeout`` / ``crash``), its message, and the full per-attempt history.
    Reports with an error are never persisted to a result store, so a resumed
    sweep re-attempts exactly these points."""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering of the report.

        The ``error`` field appears only on quarantined reports, so healthy
        renderings — including everything the result store persists — are
        byte-identical to what unsupervised sweeps always produced.
        """
        data = {
            "scenario": self.scenario,
            "params": dict(self.params),
            "backend": self.backend,
            "kind": self.kind,
            "universe": self.universe,
            "focus": self.focus,
            "build_seconds": self.build_seconds,
            "eval_seconds": self.eval_seconds,
            "minimized": self.minimized,
            "from_store": self.from_store,
            "rows": [row.to_dict() for row in self.rows],
        }
        if self.error is not None:
            data["error"] = dict(self.error)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentReport":
        """Rebuild a report from its :meth:`to_dict` rendering.

        The exact inverse of :meth:`to_dict` — this is how the persistent
        result store rehydrates recorded rows.
        """
        return cls(
            scenario=data["scenario"],
            params=dict(data["params"]),
            backend=data["backend"],
            kind=data["kind"],
            universe=data["universe"],
            focus=data["focus"],
            build_seconds=data["build_seconds"],
            eval_seconds=data["eval_seconds"],
            rows=[FormulaOutcome.from_dict(row) for row in data["rows"]],
            minimized=data.get("minimized", False),
            from_store=data.get("from_store", False),
            error=data.get("error"),
        )


class PlannedPoint(NamedTuple):
    """One grid point after planning (see :meth:`ExperimentRunner.plan`).

    ``index`` is the point's position in grid order, ``key`` its store key
    (``None`` without a store, or when a formula has no canonical text form),
    ``run`` the picklable spec an executor evaluates, and ``batch`` the
    resolved ``(label, Formula)`` batch the point was pre-flighted with.
    """

    index: int
    key: Optional["StoreKey"]
    run: RunSpec
    batch: List[Tuple[str, Formula]]


class ExperimentRunner:
    """Run scenarios and formula batches by name, with model caching.

    Parameters
    ----------
    max_cached_instances:
        Upper bound on the built-instance cache (default
        :data:`DEFAULT_MAX_CACHED_INSTANCES`).  The cache is LRU: when a sweep
        visits more distinct grid points than the bound, the least recently
        used instances — models, evaluators and their formula memos — are
        dropped so arbitrarily large grids run in bounded memory.

    store:
        An optional persistent :class:`~repro.experiments.store.ResultStore`.
        When attached, every evaluated report is recorded under its canonical
        :class:`~repro.experiments.store.StoreKey`, and — with ``resume`` —
        requests whose key is already recorded are served from the store
        without building or evaluating anything.  Parallel sweeps stay
        single-writer: pool workers never touch the store; the parent records
        each worker row as it streams back.

    resume:
        Whether an attached store is also *read* (default ``True``).  With
        ``resume=False`` the store is write-only: everything evaluates fresh
        and overwrites the recorded rows, which is the CLI's plain ``--store``
        (no ``--resume``) behaviour.

    Built models are cached per ``(scenario, parameter-assignment)`` key: a sweep
    that revisits a grid point reuses the model (and, through
    :meth:`ScenarioInstance.evaluator`, the evaluator's accumulated formula
    memo) instead of rebuilding.

    The runner also counts its work: ``eval_count`` is the number of formula
    batches actually evaluated (in this process or a pool worker) and
    ``store_hits`` the number of reports served from the store instead — a
    fully resumed sweep is exactly ``eval_count == 0``.  Supervised sweeps add
    ``retries`` (re-attempts of failed grid points) and ``quarantined``
    (points given up on under ``on_error="skip"``); both stay 0 under the
    default fail-fast policy.  ``pool_starts`` counts the worker pools
    started for this runner's sweeps (restarts after a crash included), so a
    ``jobs > 1`` sweep that stayed in-process leaves it unchanged.
    """

    def __init__(
        self,
        max_cached_instances: int = DEFAULT_MAX_CACHED_INSTANCES,
        store: Optional["ResultStore"] = None,
        resume: bool = True,
    ):
        if max_cached_instances < 1:
            raise ScenarioError(
                f"max_cached_instances must be >= 1, got {max_cached_instances!r}"
            )
        self.max_cached_instances = max_cached_instances
        self.store = store
        self.resume = resume
        self.eval_count = 0
        self.store_hits = 0
        self.retries = 0
        self.quarantined = 0
        self.pool_starts = 0
        self._instances: "OrderedDict[Tuple[str, Tuple[Tuple[str, object], ...]], ScenarioInstance]" = (
            OrderedDict()
        )
        # Guards the instance LRU and the work counters.  The runner is
        # shared across threads by the ``repro serve`` evaluation service;
        # without the lock, concurrent ``run()`` calls corrupt the
        # OrderedDict (lost evictions, "mutated during iteration").
        self._lock = threading.RLock()

    # -- construction ----------------------------------------------------------
    def instance(
        self, scenario: str, params: Optional[Mapping[str, object]] = None
    ) -> ScenarioInstance:
        """The (cached) built instance of ``scenario`` for ``params``.

        Cache hits refresh the entry's recency; misses build the scenario and
        may evict the least recently used instance to stay under
        ``max_cached_instances``.  Thread-safe: cache bookkeeping happens
        under the runner's lock, while the (possibly slow) model build runs
        outside it so distinct grid points still build concurrently; two
        threads racing on the *same* key may both build, and the first insert
        wins so every caller shares one instance.
        """
        spec = get_scenario(scenario)
        return self._instance(spec, spec.validate_params(params))

    def _instance(
        self, spec: ScenarioSpec, validated: Dict[str, object]
    ) -> ScenarioInstance:
        """:meth:`instance` for an already validated assignment."""
        key = (spec.name, params_to_key(validated))
        with self._lock:
            cached = self._instances.get(key)
            if cached is not None:
                self._instances.move_to_end(key)
                return cached
        start = time.perf_counter()
        built = spec.build(validated)
        elapsed = time.perf_counter() - start
        instance = ScenarioInstance(spec, validated, built, elapsed)
        with self._lock:
            existing = self._instances.get(key)
            if existing is not None:
                # Lost the build race; adopt the winner (its evaluators may
                # already be warm) and drop our duplicate.
                self._instances.move_to_end(key)
                return existing
            self._instances[key] = instance
            while len(self._instances) > self.max_cached_instances:
                self._instances.popitem(last=False)
        return instance

    def clear_cache(self) -> None:
        """Drop every cached instance (and with them the cached evaluators)."""
        with self._lock:
            self._instances.clear()

    @property
    def cached_instances(self) -> int:
        """How many built scenario instances are currently cached."""
        with self._lock:
            return len(self._instances)

    # -- formula handling ------------------------------------------------------
    @staticmethod
    def _default_batch(
        spec: ScenarioSpec, params: Mapping[str, object]
    ) -> List[Tuple[str, Formula]]:
        """The scenario's default formula set for validated ``params``, as a batch.

        Only the spec and the parameters are needed — never the built model —
        which is what lets the planner key a point without building anything.
        """
        defaults = spec.default_formulas(params)
        if not defaults:
            raise ScenarioError(
                f"scenario {spec.name!r} has no default formulas; "
                "pass an explicit formula list"
            )
        return list(defaults.items())

    @staticmethod
    def normalise_formulas(
        formulas: Iterable[FormulaLike],
    ) -> List[Tuple[str, Formula]]:
        """Normalise an explicit formula list into ``(label, Formula)`` pairs.

        Accepts formula strings (parsed with :func:`repro.logic.parser.parse`),
        built :class:`~repro.logic.syntax.Formula` objects, or ``(label,
        either)`` pairs.  No scenario is involved, so a sweep normalises its
        batch once and ships the parsed formulas to every worker.
        """
        batch: List[Tuple[str, Formula]] = []
        for entry in formulas:
            if isinstance(entry, tuple):
                label, body = entry
            else:
                label, body = (str(entry), entry)
            formula = parse(body) if isinstance(body, str) else body
            if not isinstance(formula, Formula):
                raise ScenarioError(
                    f"expected a formula or formula text, got {type(body).__name__}"
                )
            batch.append((str(label), formula))
        return batch

    # -- pre-flight ------------------------------------------------------------
    @staticmethod
    def preflight_batch(
        spec: ScenarioSpec,
        validated: Mapping[str, object],
        batch: Sequence[Tuple[str, Formula]],
        minimize: bool = False,
    ) -> None:
        """Statically check a normalised batch before any model is built.

        Runs :func:`repro.logic.check.check_formulas` against the scenario's
        registered :class:`~repro.logic.check.ScenarioSignature` (when one
        exists — the structural checks run regardless) and raises
        :class:`~repro.errors.CheckError` listing every error-severity
        diagnostic.  ``minimize=True`` evaluates on the bisimulation quotient,
        which only supports the static fragment, so the signature's capability
        is narrowed to Kripke for the check.  Warnings never block a run; the
        CLI's ``repro check --strict`` is the surface that promotes them.
        """
        signature = spec.signature_for(validated)
        if signature is not None and minimize and signature.kind != KIND_KRIPKE:
            from dataclasses import replace

            signature = replace(signature, kind=KIND_KRIPKE)
        diagnostics = check_formulas(batch, signature)
        errors = [d for d in diagnostics if d.is_error]
        if errors:
            rendered = "\n  ".join(render_diagnostics(errors))
            raise CheckError(
                f"scenario {spec.name!r}: formula batch rejected by pre-flight "
                f"check ({summarize(diagnostics)}):\n  {rendered}",
                diagnostics=diagnostics,
            )

    # -- planning --------------------------------------------------------------
    @staticmethod
    def plan_point(
        spec: ScenarioSpec,
        validated: Mapping[str, object],
        formulas: Optional[Sequence[Tuple[str, Formula]]],
        minimize: bool = False,
        keyed: bool = False,
        index: int = 0,
        checked: Optional[Dict[object, List[Tuple[str, Formula]]]] = None,
    ) -> PlannedPoint:
        """Plan one validated parameter assignment into a :class:`PlannedPoint`.

        Resolves the formula batch (``formulas`` is an already normalised
        explicit batch, or ``None`` for the scenario's defaults), runs the
        static pre-flight (raising :class:`~repro.errors.CheckError`) and —
        with ``keyed`` — computes the store key.  Nothing is built.
        ``checked`` memoises batches by parameter key, so a grid pre-flights
        each distinct assignment once.
        """
        params_key = params_to_key(validated)
        batch = None if checked is None else checked.get(params_key)
        if batch is None:
            batch = (
                list(formulas)
                if formulas is not None
                else ExperimentRunner._default_batch(spec, validated)
            )
            ExperimentRunner.preflight_batch(spec, validated, batch, minimize)
            if checked is not None:
                checked[params_key] = batch
        key = None
        if keyed:
            from repro.experiments.store import request_key

            key = request_key(spec.name, params_key, batch, minimize)
        run = RunSpec(
            scenario=spec.name,
            params_key=params_key,
            formulas=None if formulas is None else tuple(formulas),
            minimize=bool(minimize),
        )
        return PlannedPoint(index, key, run, batch)

    @staticmethod
    def plan(
        scenario: str,
        grid: Mapping[str, Iterable[object]],
        formulas: Optional[Iterable[FormulaLike]] = None,
        minimize: bool = False,
        keyed: bool = False,
        policy: Optional["FaultPolicy"] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> Tuple[List[PlannedPoint], Dict[int, ExperimentReport]]:
        """Step 1 of every sweep: turn a grid into ordered, pre-flighted points.

        The grid is the cartesian product of ``grid``'s axes; each fixed
        parameter in ``params`` joins it as a single-value axis after the
        swept ones (a parameter both fixed and swept is an error).  Every
        point's parameters are validated and each distinct assignment's batch
        is pre-flighted once, before anything is built or any worker spawns.

        Returns ``(points, settled)``: the runnable points in grid order, and
        the grid indices whose parameters or batch were rejected.  A rejection
        is deterministic — retrying it could only fail the same way — so under
        a ``policy`` with ``on_error="skip"`` it settles at once as a
        one-attempt quarantine row; otherwise the first rejection is raised
        unchanged.  ``keyed`` also computes each point's store key.
        """
        spec = get_scenario(scenario)
        axes = {name: list(grid[name]) for name in grid}
        for name in axes:
            spec.parameter(name)  # fail fast on unknown grid axes
        for name, value in (params or {}).items():
            if name in axes:
                raise ScenarioError(f"parameter {name!r} is both fixed and swept")
            axes[name] = [spec.parameter(name).coerce(value)]
        for name, values in axes.items():
            if not values:
                raise ScenarioError(f"grid axis {name!r} has no values")
        explicit = (
            None
            if formulas is None
            else tuple(ExperimentRunner.normalise_formulas(formulas))
        )
        points: List[PlannedPoint] = []
        settled: Dict[int, ExperimentReport] = {}
        checked: Dict[object, List[Tuple[str, Formula]]] = {}
        for index, values in enumerate(itertools.product(*axes.values())):
            point = dict(zip(axes, values))
            try:
                point = spec.validate_params(point)
                points.append(
                    ExperimentRunner.plan_point(
                        spec,
                        point,
                        explicit,
                        minimize,
                        keyed,
                        index,
                        checked,
                    )
                )
            except ReproError as error:
                if policy is None or policy.on_error != "skip":
                    raise
                settled[index] = quarantine_report(
                    spec.name,
                    point,
                    minimize,
                    [attempt_record(1, "error", describe_failure(error))],
                )
        return points, settled

    # -- lookup, evaluation, persistence ---------------------------------------
    def _lookup(self, key: Optional["StoreKey"]) -> Optional[ExperimentReport]:
        """The recorded report for ``key``, when the store is read (``resume``)."""
        if key is None or self.store is None or not self.resume:
            return None
        report = self.store.get(key)
        if report is not None:
            with self._lock:
                self.store_hits += 1
        return report

    def _record(self, key: Optional["StoreKey"], report: ExperimentReport) -> None:
        """Count a fresh evaluation and persist it; quarantine rows are neither."""
        if report.error is not None:
            return
        with self._lock:
            self.eval_count += 1
        if key is not None and self.store is not None:
            self.store.put(key, report)

    def _evaluate(
        self,
        run: RunSpec,
        batch: Optional[Sequence[Tuple[str, Formula]]] = None,
    ) -> ExperimentReport:
        """Build (or reuse) and evaluate one planned point.

        No validation, pre-flight or store access: the planner did the first
        two, and the caller owns the store.  ``batch`` is the planner's
        resolved batch when it is at hand; otherwise the spec's explicit batch
        or the scenario defaults are used (pool workers take that path).
        """
        spec = get_scenario(run.scenario)
        values = params_from_key(run.params_key)
        validated = {parameter.name: values[parameter.name] for parameter in spec.parameters}
        if batch is None:
            batch = (
                run.formulas
                if run.formulas is not None
                else self._default_batch(spec, validated)
            )
        # The chaos hook sits between the store lookup and the model build:
        # store-served rows are never faulted (nothing is evaluated), every
        # actual evaluation attempt — parent or pool worker — is.
        if os.environ.get(CHAOS_ENV_VAR):
            from repro.experiments.chaos import maybe_inject

            maybe_inject(spec.name, validated)

        instance = self._instance(spec, validated)
        focus = instance.focus
        if run.minimize:
            reduced, _ = instance.minimized()
            universe = len(reduced)
            focus = instance.focus_class(focus)
        else:
            universe = instance.universe_size
        # Evaluation is serialised per instance: evaluators and the built
        # model carry mutable caches written single-threaded.
        with instance.eval_lock:
            evaluator = instance.evaluator(minimize=run.minimize)

            start = time.perf_counter()
            summaries = evaluator.engine.summaries([formula for _, formula in batch], focus)
            eval_seconds = time.perf_counter() - start

        rows = [
            FormulaOutcome(
                label=label,
                formula=str(formula),
                count=count,
                universe=universe,
                satisfiable=count > 0,
                valid=count == universe,
                holds_at_focus=holds_at_focus,
            )
            for (label, formula), (count, holds_at_focus) in zip(batch, summaries)
        ]
        return ExperimentReport(
            scenario=instance.spec.name,
            params=dict(instance.params),
            backend=evaluator.backend,
            kind=instance.kind,
            universe=universe,
            focus=None if focus is None else repr(focus),
            build_seconds=instance.build_seconds,
            eval_seconds=eval_seconds,
            rows=rows,
            minimized=bool(run.minimize),
        )

    # -- execution -------------------------------------------------------------
    def run(
        self,
        scenario: str,
        params: Optional[Mapping[str, object]] = None,
        formulas: Optional[Iterable[FormulaLike]] = None,
        minimize: bool = False,
    ) -> ExperimentReport:
        """Evaluate a formula batch on one scenario instance.

        ``formulas`` defaults to the scenario's registered formula set.  The
        whole batch goes through the engine's ``summaries()`` API, so formulas
        sharing subterms (e.g. a ``E^k`` hierarchy) share one memo.

        With ``minimize=True`` evaluation runs on the bisimulation quotient:
        truth at the focus world, satisfiability and validity are preserved by
        bisimulation invariance, while ``universe`` and the per-row counts refer
        to the quotient's classes.  System scenarios are exported to a Kripke
        structure over their points first (static-fragment formulas only — the
        temporal operators need run/time structure and are rejected by the
        checker on the quotient).

        With a :class:`~repro.experiments.store.ResultStore` attached (and
        ``resume`` on), a request whose canonical key is already recorded is
        served from the store without building or evaluating anything; fresh
        evaluations are recorded before the report is returned.  A run is a
        one-point sweep: :meth:`plan_point` validates, pre-flights and keys
        it, and :meth:`execute` looks it up, evaluates and records it.
        """
        spec = get_scenario(scenario)
        point = self.plan_point(
            spec,
            spec.validate_params(params),
            None if formulas is None else self.normalise_formulas(formulas),
            minimize,
            keyed=self.store is not None,
        )
        (report,) = self.execute([point])
        return report

    def iter_sweep(
        self,
        scenario: str,
        grid: Mapping[str, Iterable[object]],
        formulas: Optional[Iterable[FormulaLike]] = None,
        minimize: bool = False,
        jobs: Optional[int] = None,
        policy: Optional["FaultPolicy"] = None,
    ) -> Iterator[ExperimentReport]:
        """Stream a sweep's reports in deterministic grid order.

        Identical to :meth:`sweep` but yields each
        :class:`ExperimentReport` as soon as it (and every report before it in
        grid order) is finished, instead of accumulating the whole list — this
        is what lets ``repro sweep --json`` print rows while later grid points
        are still being evaluated.  The grid is planned (:meth:`plan`) before
        this returns, so a rejected grid raises from the call itself; the
        returned stream is :meth:`execute` over the plan.
        """
        points, settled = self.plan(
            scenario,
            grid,
            formulas,
            minimize,
            keyed=self.store is not None,
            policy=policy,
        )
        return self.execute(points, settled, jobs=jobs, policy=policy)

    def execute(
        self,
        points: Sequence[PlannedPoint],
        settled: Optional[Mapping[int, ExperimentReport]] = None,
        jobs: Optional[int] = None,
        policy: Optional["FaultPolicy"] = None,
    ) -> Iterator[ExperimentReport]:
        """The one executor: stream the reports of planned points in grid order.

        ``points`` come from :meth:`plan` or :meth:`plan_point`, ``settled``
        holds the grid indices the planner already settled as quarantine
        rows.  Every run, sweep and served request goes through these steps:

        1. **Partition**: look every key up in the store once (with
           ``resume``); recorded points are served without building anything.
        2. **Execute** the misses.  Under the default fail-fast policy without
           a watchdog they run in this process, in grid order, so this
           runner's instance cache stays warm; ``jobs`` is a ceiling, and the
           remaining misses go to the
           :class:`~repro.experiments.supervise.SweepSupervisor` process pool
           only once the time measured per point so far says the pool pays
           for its start-up (:func:`pool_pays`).  A watchdog, or a supervised
           policy with ``jobs > 1``, starts the pool at once for its crash
           isolation.  The yielded order and every report row are the same
           either way.
        3. **Merge** in grid order, persisting healthy rows only and updating
           ``eval_count``/``store_hits``/``retries``/``quarantined``/
           ``pool_starts``.

        ``policy`` (a :class:`~repro.experiments.policy.FaultPolicy`)
        governs failing points in both executors: retries with backoff, a
        watchdog, and — under ``on_error="skip"`` — quarantine rows instead of
        an aborted sweep.  Under the default policy the first failure in grid
        order is raised unchanged.
        """
        policy = policy if policy is not None else FaultPolicy()
        jobs = resolve_jobs(jobs)
        settled = dict(settled or {})
        with self._lock:
            self.quarantined += len(settled)
        total = len(points) + len(settled)

        misses = []
        for point in points:
            report = self._lookup(point.key)
            if report is None:
                misses.append(point)
            else:
                settled[point.index] = report

        if policy.timeout_per_point is not None or (policy.supervised and jobs > 1):
            stream = self._execute_pooled(misses, jobs, policy)
        else:
            stream = self._execute_here(misses, jobs, policy)

        keys = {point.index: point.key for point in misses}
        try:
            for index in range(total):
                report = settled.pop(index, None)
                if report is None:
                    report = next(stream)
                    self._record(keys[index], report)
                yield report
        finally:
            stream.close()

    def _execute_pooled(
        self, points: Sequence[PlannedPoint], jobs: int, policy: "FaultPolicy"
    ) -> Iterator[ExperimentReport]:
        """The pool executor: ``points`` on a :class:`SweepSupervisor` pool.

        The supervisor's counters are folded into this runner's when the
        stream ends, however it ends.
        """
        from repro.experiments.supervise import SweepSupervisor

        supervisor = SweepSupervisor(
            [point.run for point in points],
            jobs=jobs,
            policy=policy,
            max_cached_instances=self.max_cached_instances,
        )
        try:
            yield from supervisor.run()
        finally:
            with self._lock:
                self.retries += supervisor.retries
                self.quarantined += supervisor.quarantined
                self.pool_starts += supervisor.pool_starts

    def _execute_here(
        self, points: Sequence[PlannedPoint], jobs: int, policy: "FaultPolicy"
    ) -> Iterator[ExperimentReport]:
        """The in-process executor: evaluate ``points`` on this runner.

        Applies the same fault-policy rule as the supervisor
        (:func:`~repro.experiments.policy.settle_failure`), minus what needs
        a pool: no watchdog and no crash recovery.  Before each point it asks
        :func:`pool_pays` whether the rest should go to a pool of ``jobs``
        workers instead, judged by the evaluation time measured so far; with
        ``jobs=1`` it never does.
        """
        busy = 0.0
        for done, point in enumerate(points):
            if done and pool_pays(len(points) - done, busy / done, jobs):
                yield from self._execute_pooled(points[done:], jobs, policy)
                return
            start = time.perf_counter()
            attempts: List[Dict[str, object]] = []
            report = None
            while report is None:
                try:
                    report = self._evaluate(point.run, point.batch)
                except Exception as error:
                    if not policy.supervised:
                        raise
                    attempts.append(
                        attempt_record(len(attempts) + 1, "error", describe_failure(error))
                    )
                    report = settle_failure(policy, point.run, attempts)
                    if report is not None:
                        with self._lock:
                            self.quarantined += 1
                    else:
                        with self._lock:
                            self.retries += 1
                        time.sleep(policy.backoff_seconds(len(attempts)))
            busy += time.perf_counter() - start
            yield report

    def sweep(
        self,
        scenario: str,
        grid: Mapping[str, Iterable[object]],
        formulas: Optional[Iterable[FormulaLike]] = None,
        minimize: bool = False,
        jobs: Optional[int] = None,
        policy: Optional["FaultPolicy"] = None,
    ) -> List[ExperimentReport]:
        """Run every point of a parameter grid.

        ``grid`` maps parameter names to iterables of values; the sweep runs the
        cartesian product (parameters absent from the grid keep their defaults)
        in a stable order.  With ``minimize=True`` every grid point is evaluated
        on its bisimulation quotient (computed once per point and cached on the
        instance).

        ``jobs`` is a ceiling on parallel execution: ``None``/``1`` evaluates
        in this process, ``N > 1`` allows sharding the grid across up to ``N``
        worker processes, and ``0`` means one worker per CPU.  The pool starts
        only once the work measured so far pays for its start-up (see
        :meth:`execute`), so a light grid stays in this process.  The report
        list is in the same deterministic grid order either way, with
        identical rows — only the timing fields
        (``build_seconds``/``eval_seconds``) reflect where the work actually
        ran.  ``policy`` governs failing points exactly as in
        :meth:`execute`, which documents the pipeline.
        """
        return list(
            self.iter_sweep(
                scenario,
                grid,
                formulas=formulas,
                minimize=minimize,
                jobs=jobs,
                policy=policy,
            )
        )
