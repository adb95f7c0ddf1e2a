"""Span recorder and the traced replay of an operation through the layers.

The replay performs the steps ``ExperimentRunner.run`` performs, each through
the layer's public call and each inside a span: parameter validation
(registry), formula parsing, the static check, the store key (pretty
printing), the store lookup, the model build, evaluator construction (the
index), the bisimulation quotient, evaluation per operator class, the report
rendering and the store write.  Spans live in memory and are written out as
JSON when the benchmark ends; a layer's self time is its spans' duration
minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import resolve_backend_name
from repro.experiments.registry import KIND_KRIPKE, ScenarioSpec, get_scenario, params_to_key
from repro.experiments.runner import ExperimentReport, ExperimentRunner, FormulaOutcome
from repro.experiments.store import ResultStore, StoreKey
from repro.kripke.bisimulation import quotient
from repro.kripke.checker import ModelChecker
from repro.logic import syntax
from repro.logic.parser import parse
from repro.systems.interpretation import ViewBasedInterpretation

_TEMPORAL = (
    syntax.Eventually,
    syntax.Always,
    syntax.EveryoneEps,
    syntax.CommonEps,
    syntax.EveryoneDiamond,
    syntax.CommonDiamond,
    syntax.KnowsAt,
    syntax.EveryoneAt,
    syntax.CommonAt,
)
_COMMON = (syntax.Common, syntax.GreatestFixpoint, syntax.LeastFixpoint)


def operator_class(formula) -> str:
    """``temporal``, ``common`` or ``knowledge``: the costliest operator used."""
    nodes = list(formula.subformulas())
    if any(isinstance(node, _TEMPORAL) for node in nodes):
        return "temporal"
    if any(isinstance(node, _COMMON) for node in nodes):
        return "common"
    return "knowledge"


def outcome_row(outcome) -> list:
    """The fields of a ``FormulaOutcome`` that must match, as a list."""
    return [
        outcome.label,
        outcome.count,
        outcome.satisfiable,
        outcome.valid,
        outcome.holds_at_focus,
    ]


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent index, operation id]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.operation: Optional[str] = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.operation]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (summed self seconds, span count)``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += end - start - covered[index]
            totals[name][1] += 1
        return {name: (seconds, int(count)) for name, (seconds, count) in totals.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "operation"],
                    "spans": self.spans,
                },
                handle,
            )


class NullRecorder(SpanRecorder):
    """A recorder that records nothing: the untraced replay."""

    @contextmanager
    def span(self, name: str):
        yield [name]


class _Instance:
    """A built point with its evaluators, as the runner's instance cache keeps it."""

    def __init__(self, built, kind: str) -> None:
        self.built = built
        self.kind = kind
        self.evaluators: Dict[bool, object] = {}
        self.reduced = None


class TracedReplay:
    """Replays run requests through the layers, recording a span per call.

    ``store`` attaches a result store (the service's configuration); without
    one, as in a plain sweep, no key is computed and nothing is persisted.
    ``backend`` pins the engine backend (``None`` is the production
    default).  ``clear_instances`` empties the instance cache, which is how
    a cold runner starts each sweep.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        store: Optional[ResultStore] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.recorder = recorder
        self.store = store
        self.backend = backend
        self.instances: Dict[tuple, _Instance] = {}
        self.counts = defaultdict(int)
        self.quotient_ratios: List[float] = []

    def clear_instances(self) -> None:
        self.instances.clear()

    def run(
        self,
        scenario: str,
        params: dict,
        formulas: Optional[Sequence[Sequence[str]]],
        minimize: bool = False,
    ) -> List[list]:
        """Replay one run request; returns its rows (see ``outcome_row``).

        The whole request is an ``op`` span: its self time is the work
        between the layer calls (universe size, row assembly), which the
        runner does as well.
        """
        with self.recorder.span("op"):
            return self._run(scenario, params, formulas, minimize)

    def _run(self, scenario, params, formulas, minimize) -> List[list]:
        span = self.recorder.span
        with span("registry.validate"):
            spec = get_scenario(scenario)
            validated = spec.validate_params(params)
            if formulas is None:
                batch = list(spec.default_formulas(validated).items())
        if formulas is not None:
            with span("logic.parse"):
                batch = [(label, parse(text)) for label, text in formulas]
        with span("logic.check"):
            ExperimentRunner.preflight_batch(spec, validated, batch, minimize)
        key = None
        if self.store is not None:
            with span("logic.pretty"):
                key = StoreKey.for_request(
                    spec.name,
                    params_to_key(validated),
                    batch,
                    resolve_backend_name(self.backend),
                    minimize,
                )
            self.counts["store.lookups"] += 1
            with span("store.get"):
                cached = self.store.get(key)
            if cached is not None:
                self.counts["store.hits"] += 1
                with span("render.report"):
                    json.dumps(cached.to_dict())
                return [outcome_row(outcome) for outcome in cached.rows]

        instance = self._instance(spec, validated)
        evaluator = self._evaluator(instance, minimize)
        focus = instance.built.focus
        if minimize:
            reduced, class_of = instance.reduced
            universe = len(reduced.worlds)
            if focus is not None:
                focus = class_of[focus if instance.kind == KIND_KRIPKE else (focus.run.name, focus.time)]
        elif instance.kind == KIND_KRIPKE:
            universe = len(instance.built.model.worlds)
        else:
            universe = instance.built.model.point_count()

        outcomes = []
        for label, formula in batch:
            with span(f"eval.{operator_class(formula)}"):
                extension = evaluator.extensions([formula])[0]
            self.counts["eval.formulas"] += 1
            outcomes.append(
                FormulaOutcome(
                    label=label,
                    formula=str(formula),
                    count=len(extension),
                    universe=universe,
                    satisfiable=bool(extension),
                    valid=len(extension) == universe,
                    holds_at_focus=None if focus is None else focus in extension,
                )
            )
        with span("render.report"):
            report = ExperimentReport(
                scenario=spec.name,
                params=dict(validated),
                backend=evaluator.backend,
                kind=instance.kind,
                universe=universe,
                focus=None if focus is None else repr(focus),
                build_seconds=0.0,
                eval_seconds=0.0,
                rows=outcomes,
                minimized=bool(minimize),
            )
            json.dumps(report.to_dict())
        if key is not None:
            with span("store.put"):
                self.store.put(key, report)
        return [outcome_row(outcome) for outcome in outcomes]

    def _instance(self, spec: ScenarioSpec, validated: dict) -> _Instance:
        key = (spec.name, params_to_key(validated))
        self.counts["instance.lookups"] += 1
        instance = self.instances.get(key)
        if instance is not None:
            self.counts["instance.hits"] += 1
            return instance
        with self.recorder.span("build") as record:
            built = spec.build(validated)
        kind = ScenarioSpec.kind_of(built.model)
        record[0] = f"build.{kind}"
        if kind == KIND_KRIPKE:
            self.counts["build.worlds"] += len(built.model.worlds)
        else:
            self.counts["build.worlds"] += built.model.point_count()
        instance = _Instance(built, kind)
        self.instances[key] = instance
        return instance

    def _evaluator(self, instance: _Instance, minimize: bool):
        evaluator = instance.evaluators.get(minimize)
        if evaluator is not None:
            return evaluator
        model = instance.built.model
        if minimize:
            if instance.reduced is None:
                with self.recorder.span("minimize.quotient"):
                    source = model
                    if instance.kind != KIND_KRIPKE:
                        source = ViewBasedInterpretation(model).to_kripke()
                    instance.reduced = quotient(source)
                self.quotient_ratios.append(
                    len(instance.reduced[0].worlds) / len(source.worlds)
                )
            with self.recorder.span("index.kripke"):
                evaluator = ModelChecker(instance.reduced[0], backend=self.backend)
        elif instance.kind == KIND_KRIPKE:
            with self.recorder.span("index.kripke"):
                evaluator = ModelChecker(model, backend=self.backend)
        else:
            with self.recorder.span("index.system"):
                evaluator = ViewBasedInterpretation(model, backend=self.backend)
        instance.evaluators[minimize] = evaluator
        return evaluator
