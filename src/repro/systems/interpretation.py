"""View-based knowledge interpretations over runs-and-systems models (Section 6).

A :class:`ViewBasedInterpretation` is the triple ``I = (R, pi, v)`` of the paper: a
system of runs, a valuation of ground facts at points, and a view function.  It
evaluates the full language of :mod:`repro.logic` at points ``(r, t)``:

* the static epistemic operators ``K_i``, ``S_G``, ``E_G``, ``D_G``, ``C_G`` exactly
  as clauses (a)–(g) of Section 6 prescribe;
* the fixpoint operators of Appendix A;
* the temporal operators ``<>``/``[]`` over the future of the current run; and
* the temporal-epistemic operators of Sections 11 and 12 — ``E^eps``/``C^eps``,
  ``E^<>``/``C^<>`` and ``K^T``/``E^T``/``C^T`` — all of which are evaluated as
  greatest fixed points, following the paper's definitions.

The indistinguishability relation induced by the view function is computed once per
processor: the view function numbers the points by view (equal ids exactly where the
views are equal; the complete-history view interns histories without building them),
and the ids are grouped into partition masks over the points' bit numbering
(:func:`~repro.engine.universe.partition_from_class_ids`).  Classes, joint classes
and G-reachability (the graph construction of Section 6) are read off those masks.

Backend architecture
--------------------
The static fragment of the language (Boolean connectives, ``K``/``S``/``E``/``D``/
``C`` and the plain fixpoint binders) is evaluated by the shared
:class:`repro.engine.EvaluationEngine`, built from the same per-processor masks on
either backend.  The ``backend`` constructor argument selects the set
representation: ``"bitset"`` (the production default: integer bitmasks) or
``"frozenset"`` (the reference semantics, kept as the test oracle, which derives
its classes from the masks).  The temporal and temporal-epistemic operators are
host-specific — they need the run/time shape of points — so this class feeds them
to the engine through its ``special`` hooks; their extensions are still memoised in
the engine's cache, and both backends remain observably identical
(``tests/test_engine_equivalence.py`` and ``tests/test_temporal_masks.py``);
``tests/test_view_partitions.py`` pins the grouping itself against the definition.

The temporal fragment has *two* implementations:

* the frozenset transcription of the paper's clauses (``_evaluate_temporal``, the
  reference semantics — per-run Python loops with ``O(T^2)`` suffix scans, whose
  ``K_i`` is the frozenset backend's; it runs only on that backend); and
* a mask-space fast path (``_evaluate_temporal_masks``, used automatically on the
  bitset backend).  Points are laid out run-major, so each run occupies one
  contiguous bit range of the engine's universe (a
  :class:`~repro.engine.universe.Segmentation`): ``<>``/``[]`` become one backward
  sweep per universe, the run-level operators (``E^<>``, ``K^T``, ``E^T``) become
  broadcast-to-run-mask operations, ``E^eps`` windows become guarded shift
  compositions over precomputed per-agent known-time masks, and the ``C^eps`` /
  ``C^<>`` / ``C^T`` greatest fixpoints iterate entirely over masks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.engine import EvaluationEngine, IndexedUniverse, Segmentation
from repro.engine.backends import BitsetBackend
from repro.engine.universe import class_ids_from_blocks, partition_from_class_ids
from repro.errors import EvaluationError, ModelError, UnknownAgentError
from repro.logic.agents import Agent, GroupLike, as_group
from repro.logic.fixpoint import greatest_fixpoint
from repro.logic.syntax import (
    Always,
    CommonAt,
    CommonDiamond,
    CommonEps,
    Eventually,
    EveryoneAt,
    EveryoneDiamond,
    EveryoneEps,
    Formula,
    KnowsAt,
)
from repro.systems.runs import Point, Run
from repro.systems.system import RunFactsValuation, System, Valuation
from repro.systems.views import CompleteHistoryView, ViewFunction

__all__ = ["ViewBasedInterpretation"]

PointSet = FrozenSet[Point]

_CLOCK_TOLERANCE = 1e-9


def _clock_matches(reading: Optional[float], timestamp: float) -> bool:
    """Whether a clock reading equals a formula timestamp, up to float tolerance.

    Drifting-rate clocks produce readings like ``0.1 * 3 == 0.30000000000000004``;
    an exact ``==`` against the timestamp ``0.3`` silently misses them, so the
    comparison tolerates relative/absolute error of ``1e-9`` (far below any clock
    granularity the library produces, far above accumulated float error).
    """
    if reading is None:
        return False
    return math.isclose(reading, timestamp, rel_tol=_CLOCK_TOLERANCE, abs_tol=_CLOCK_TOLERANCE)


def _eps_steps(eps: float) -> int:
    """Validate an ``E^eps``/``C^eps`` epsilon as a whole number of time steps.

    The interval semantics of Appendix A clause (h) is evaluated on the discrete
    time grid, so a fractional eps cannot be honoured; truncating it (the old
    behaviour) silently turned ``E^0.5`` into ``E^0``, which is a strictly
    stronger formula.  Rejecting loudly keeps the semantics honest.
    """
    steps = int(eps)
    if steps != eps:
        raise EvaluationError(
            f"E^eps/C^eps windows advance in whole time steps of the run; "
            f"got eps={eps!r} — use an integer number of steps"
        )
    return steps


class ViewBasedInterpretation:
    """The knowledge interpretation ``I = (R, pi, v)`` of Section 6.

    Parameters
    ----------
    system:
        The system of runs ``R``.
    valuation:
        The ground-fact assignment ``pi`` (defaults to reading each run's recorded
        facts).
    view:
        The view function ``v`` (defaults to the complete-history interpretation).
    backend:
        Which engine backend represents extensions.  ``None`` picks the
        process-wide default (:func:`repro.engine.get_default_backend`), which is
        ``"bitset"``, the production backend; ``"frozenset"`` pins the test
        oracle, as the differential tests do.
    """

    def __init__(
        self,
        system: System,
        valuation: Optional[Valuation] = None,
        view: Optional[ViewFunction] = None,
        backend: Optional[str] = None,
    ):
        self._system = system
        self._valuation = valuation if valuation is not None else RunFactsValuation()
        self._view = view if view is not None else CompleteHistoryView()
        self._points: Tuple[Point, ...] = tuple(system.points())
        self._universe = IndexedUniverse(self._points)
        self._blocks: Dict[Agent, Tuple[int, ...]] = {}
        self._class_at: Dict[Agent, Tuple[int, ...]] = {}
        self._build_indistinguishability()
        # Every fact's extension as a mask, built in one pass over the points
        # on the first atom query (see _prop_extension).
        self._prop_masks: Optional[Dict[str, int]] = None
        # Mask-path state (bitset backend only), built lazily on the first
        # temporal query: the run-major segment layout, the per-(agent, body)
        # knowledge masks reused across fixpoint iterations, and the
        # per-(agent, timestamp) clock-reading masks (pure model data).
        self._segments: Optional[Segmentation] = None
        self._mask_knowledge_cache: Dict[Tuple[Agent, int], int] = {}
        self._reading_masks: Dict[Tuple[Agent, float], int] = {}
        self._engine = EvaluationEngine(
            self._universe,
            self._blocks,
            self._class_at,
            self._prop_extension,
            require_agent=self._require_processor,
            require_group=self._group_members,
            special=self._evaluate_temporal,
            special_native=self._evaluate_temporal_masks,
            backend=backend,
        )

    def _build_indistinguishability(self) -> None:
        """Group the points into each processor's classes of equal views.

        The view function numbers each processor's views in point order
        (:meth:`~repro.systems.views.ViewFunction.class_ids`), and
        :func:`~repro.engine.universe.partition_from_class_ids` groups the ids
        into masks.
        """
        for processor in sorted(self._system.processors, key=repr):
            self._blocks[processor], self._class_at[processor] = (
                partition_from_class_ids(self._view.class_ids(self._system, processor))
            )

    # -- basic accessors --------------------------------------------------------
    @property
    def system(self) -> System:
        """The underlying system of runs."""
        return self._system

    @property
    def valuation(self) -> Valuation:
        """The ground-fact valuation ``pi``."""
        return self._valuation

    @property
    def view(self) -> ViewFunction:
        """The view function ``v``."""
        return self._view

    @property
    def points(self) -> Tuple[Point, ...]:
        """Every point of the system, in a deterministic order."""
        return self._points

    @property
    def engine(self) -> EvaluationEngine:
        """The shared evaluation engine this interpretation delegates to."""
        return self._engine

    @property
    def backend(self) -> str:
        """The name of the active set-representation backend."""
        return self._engine.backend_name

    def equivalence_class(self, processor: Agent, point: Point) -> PointSet:
        """The points ``processor`` cannot distinguish from ``point``."""
        class_at = self._class_at.get(processor)
        if class_at is None:
            raise UnknownAgentError(f"unknown processor {processor!r}")
        self._system.require_point(point)
        return self._universe.to_frozenset(class_at[self._universe.index_of(point)])

    def indistinguishable(self, processor: Agent, point_a: Point, point_b: Point) -> bool:
        """Whether ``processor`` has the same view at both points."""
        return point_b in self.equivalence_class(processor, point_a)

    def joint_class(self, group: GroupLike, point: Point) -> PointSet:
        """The intersection of the members' classes (the group's joint view)."""
        members = self._group_members(group)
        self._system.require_point(point)
        position = self._universe.index_of(point)
        result = self._universe.full_mask
        for processor in members:
            result &= self._class_at[processor][position]
        return self._universe.to_frozenset(result)

    def reachable(self, group: GroupLike, point: Point, max_steps: Optional[int] = None) -> PointSet:
        """Points G-reachable from ``point`` (in at most ``max_steps`` steps if given).

        Common knowledge of ``phi`` holds at ``point`` exactly when ``phi`` holds at
        every G-reachable point (Section 6).
        """
        if max_steps is not None and max_steps < 0:
            raise ModelError("steps must be non-negative")
        class_ats = [self._class_at[processor] for processor in self._group_members(group)]
        self._system.require_point(point)
        reached = frontier = self._universe.bit(point)
        steps = 0
        while frontier and (max_steps is None or steps < max_steps):
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                position = low.bit_length() - 1
                for class_at in class_ats:
                    grown |= class_at[position]
            frontier = grown & ~reached
            reached |= frontier
            steps += 1
        return self._universe.to_frozenset(reached)

    # -- formula evaluation --------------------------------------------------------
    def extension(
        self,
        formula: Formula,
        environment: Optional[Mapping[str, PointSet]] = None,
    ) -> PointSet:
        """The set of points at which ``formula`` holds."""
        return self._engine.extension(formula, environment)

    def extensions(
        self,
        formulas: Iterable[Formula],
        environment: Optional[Mapping[str, PointSet]] = None,
    ) -> List[PointSet]:
        """Batch evaluation: the extensions of ``formulas`` in order, sharing the
        engine's subformula memo across the whole batch."""
        return self._engine.extensions(formulas, environment)

    def holds(self, formula: Formula, run: Run, time: int) -> bool:
        """Whether ``formula`` holds at the point ``(run, time)``."""
        point = Point(run, time)
        self._system.require_point(point)
        return point in self.extension(formula)

    def holds_at(self, formula: Formula, point: Point) -> bool:
        """Whether ``formula`` holds at ``point``."""
        self._system.require_point(point)
        return point in self.extension(formula)

    def is_valid(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at every point of the system (validity)."""
        # Extensions are subsets of the points, so equal size means equal sets.
        return len(self.extension(formula)) == len(self._points)

    def is_satisfiable(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at some point of the system."""
        return bool(self.extension(formula))

    def clear_cache(self) -> None:
        """Drop memoised extensions.

        Delegates to the engine, and additionally drops the mask path's
        body-dependent knowledge masks.  Structural model data (the segment
        layout, clock-reading and atom masks) survives — it depends only on the immutable
        system, never on formulas.
        """
        self._engine.clear_cache()
        self._mask_knowledge_cache.clear()

    # -- conversion ---------------------------------------------------------------
    def to_kripke(self):
        """Export the interpretation as a finite Kripke structure over the points.

        Worlds are ``(run name, time)`` pairs; each processor's partition is its
        indistinguishability relation; the valuation lists the ground facts true at
        each point.  The static fragment of the language (everything except the
        temporal-epistemic operators) evaluates identically on the exported structure,
        which the integration tests verify.
        """
        from repro.kripke.structure import KripkeStructure

        labels = [(point.run.name, point.time) for point in self._points]
        valuation = {
            label: self._valuation.facts_at(point)
            for label, point in zip(labels, self._points)
        }
        # The labels are listed in the points' bit order, so each processor's
        # class ids are its block indices, read off the block masks.
        size = len(labels)
        class_ids = {
            processor: class_ids_from_blocks(self._blocks[processor], size)
            for processor in self._system.processors
        }
        return KripkeStructure._from_class_ids(
            labels, self._system.processors, valuation, class_ids
        )

    # -- engine adapters -----------------------------------------------------------
    def _prop_extension(self, name: str) -> int:
        """The engine's atom hook: ``pi``'s extension of ``name`` as a mask.

        The first query builds every fact's mask in one pass over the points;
        a name the valuation never mentions has the empty extension.
        """
        masks = self._prop_masks
        if masks is None:
            masks = {}
            facts_at = self._valuation.facts_at
            bit = 1
            for point in self._points:
                for fact in facts_at(point):
                    masks[fact] = masks.get(fact, 0) | bit
                bit <<= 1
            self._prop_masks = masks
        return masks.get(name, 0)

    def _require_processor(self, processor: Agent) -> None:
        raise UnknownAgentError(f"unknown processor {processor!r}")

    def _evaluate_temporal(
        self, formula: Formula, evaluate: Callable[[Formula], PointSet]
    ) -> Optional[PointSet]:
        """The engine's ``special`` hook: the run/time-dependent operators.

        This is the *reference semantics* — a literal transcription of the paper's
        clauses over frozensets.  On the bitset backend the engine consults
        :meth:`_evaluate_temporal_masks` first; this path then only runs for the
        frozenset backend (and is what the differential tests pin the mask path
        against).  ``evaluate`` resolves subformulas under the current variable
        environment and always hands back frozensets, whatever backend the engine
        runs on.
        """
        if isinstance(formula, Eventually):
            body = evaluate(formula.operand)
            return frozenset(
                Point(run, time)
                for run in self._system.runs
                for time in run.times()
                if any(Point(run, later) in body for later in range(time, run.duration + 1))
            )
        if isinstance(formula, Always):
            body = evaluate(formula.operand)
            return frozenset(
                Point(run, time)
                for run in self._system.runs
                for time in run.times()
                if all(Point(run, later) in body for later in range(time, run.duration + 1))
            )

        if isinstance(formula, EveryoneEps):
            body = evaluate(formula.operand)
            return self._everyone_eps(formula.group, body, formula.eps)
        if isinstance(formula, EveryoneDiamond):
            body = evaluate(formula.operand)
            return self._everyone_diamond(formula.group, body)
        if isinstance(formula, EveryoneAt):
            body = evaluate(formula.operand)
            return self._everyone_at(formula.group, body, formula.timestamp)
        if isinstance(formula, KnowsAt):
            body = evaluate(formula.operand)
            return self._knows_at(formula.agent, body, formula.timestamp)

        if isinstance(formula, CommonEps):
            return self._variant_fixpoint(
                evaluate(formula.operand),
                lambda body: self._everyone_eps(formula.group, body, formula.eps),
            )
        if isinstance(formula, CommonDiamond):
            return self._variant_fixpoint(
                evaluate(formula.operand),
                lambda body: self._everyone_diamond(formula.group, body),
            )
        if isinstance(formula, CommonAt):
            return self._variant_fixpoint(
                evaluate(formula.operand),
                lambda body: self._everyone_at(formula.group, body, formula.timestamp),
            )
        return None

    # -- mask-space temporal fast path (bitset backend) ------------------------------
    def _mask_segments(self, backend) -> Optional[Segmentation]:
        """The run-segment layout of the engine's bit numbering, or ``None``.

        ``None`` means the mask path does not apply (the frozenset backend) and
        the engine must fall back to the frozenset reference.
        """
        if not isinstance(backend, BitsetBackend):
            return None
        if self._segments is None:
            # System.points() yields runs sorted by name, each contributing
            # its contiguous 0..duration block, so segment i is run i.
            self._segments = Segmentation(run.duration + 1 for run in self._system.runs)
        return self._segments

    def _evaluate_temporal_masks(
        self, formula: Formula, evaluate: Callable[[Formula], int], backend
    ) -> Optional[int]:
        """The engine's ``special_native`` hook: temporal operators in mask space.

        ``evaluate`` resolves subformulas to backend values — bitmasks here.  The
        operators are the same clauses as :meth:`_evaluate_temporal`, restated as
        whole-universe bit sweeps over the run-major segment layout; the
        differential tests (``tests/test_temporal_masks.py``) pin the two paths
        observably identical on every operator.
        """
        segments = self._mask_segments(backend)
        if segments is None:
            return None

        if isinstance(formula, Eventually):
            return segments.suffix_or(evaluate(formula.operand))
        if isinstance(formula, Always):
            return segments.suffix_and(evaluate(formula.operand))

        if isinstance(formula, EveryoneEps):
            members = self._group_members(formula.group)
            steps = _eps_steps(formula.eps)
            return self._mask_everyone_eps(
                members, evaluate(formula.operand), steps, backend, segments
            )
        if isinstance(formula, EveryoneDiamond):
            members = self._group_members(formula.group)
            return self._mask_everyone_diamond(
                members, evaluate(formula.operand), backend, segments
            )
        if isinstance(formula, EveryoneAt):
            members = self._group_members(formula.group)
            return self._mask_everyone_at(
                members, evaluate(formula.operand), formula.timestamp, backend, segments
            )
        if isinstance(formula, KnowsAt):
            return self._mask_knows_at(
                formula.agent, evaluate(formula.operand), formula.timestamp, backend, segments
            )

        if isinstance(formula, CommonEps):
            members = self._group_members(formula.group)
            steps = _eps_steps(formula.eps)
            body = evaluate(formula.operand)
            return EvaluationEngine._iterate_until_stable(
                lambda current: self._mask_everyone_eps(
                    members, body & current, steps, backend, segments
                ),
                segments.full_mask,
            )
        if isinstance(formula, CommonDiamond):
            members = self._group_members(formula.group)
            body = evaluate(formula.operand)
            return EvaluationEngine._iterate_until_stable(
                lambda current: self._mask_everyone_diamond(
                    members, body & current, backend, segments
                ),
                segments.full_mask,
            )
        if isinstance(formula, CommonAt):
            members = self._group_members(formula.group)
            body = evaluate(formula.operand)
            return EvaluationEngine._iterate_until_stable(
                lambda current: self._mask_everyone_at(
                    members, body & current, formula.timestamp, backend, segments
                ),
                segments.full_mask,
            )
        return None

    def _mask_knowledge(self, backend, agent: Agent, body: int) -> int:
        """``K_i`` of a body mask, memoised per ``(agent, body)``.

        Fixpoint iterations re-request the same knowledge masks (the converged
        iterate repeats, and different C-variants share bodies), so a small
        per-interpretation cache removes the repeated partition scans.
        """
        key = (agent, body)
        cached = self._mask_knowledge_cache.get(key)
        if cached is None:
            cached = backend.knowledge(agent, body)
            self._mask_knowledge_cache[key] = cached
        return cached

    def _mask_everyone_eps(
        self, members, body: int, steps: int, backend, segments: Segmentation
    ) -> int:
        """Clause (h) in mask space: a window start works for every member.

        ``window_or_ahead`` marks the starts whose ``[start, start+eps]`` window
        (clipped to the run) contains a known time; intersecting over the members
        and sweeping back over the admissible starts ``[t-eps, t]`` yields the
        satisfied points — a handful of guarded shifts instead of the reference's
        per-point window search.
        """
        width = steps + 1
        window_ok = segments.full_mask
        for agent in members:
            known = self._mask_knowledge(backend, agent, body)
            window_ok &= segments.window_or_ahead(known, width)
            if not window_ok:
                return 0
        return segments.window_or_behind(window_ok, width)

    def _mask_everyone_diamond(
        self, members, body: int, backend, segments: Segmentation
    ) -> int:
        """Clause (i) in mask space: broadcast each member's known-times to runs."""
        result = segments.full_mask
        for agent in members:
            result &= segments.spread(self._mask_knowledge(backend, agent, body))
            if not result:
                return 0
        return result

    def _reading_mask(self, agent: Agent, timestamp: float) -> int:
        """The points at which ``agent``'s clock reads ``timestamp`` (cached).

        Pure model data — computed once per ``(agent, timestamp)`` and kept for
        the life of the interpretation, across fixpoint iterations and queries.
        """
        key = (agent, timestamp)
        cached = self._reading_masks.get(key)
        if cached is None:
            universe = self._universe
            cached = 0
            for run in self._system.runs:
                for time in run.times():
                    if _clock_matches(run.clock_reading(agent, time), timestamp):
                        cached |= universe.bit(Point(run, time))
            self._reading_masks[key] = cached
        return cached

    def _mask_knows_at(
        self, agent: Agent, body: int, timestamp: float, backend, segments: Segmentation
    ) -> int:
        """``K^T_i`` in mask space: a run-level property as segment broadcasts.

        A run qualifies iff it has a reading of ``timestamp`` and no reading
        point escapes the knowledge mask; qualifying segments are broadcast
        whole, matching the reference's run-level semantics.
        """
        if agent not in self._system.processors:
            raise UnknownAgentError(f"unknown processor {agent!r}")
        reading = self._reading_mask(agent, timestamp)
        if not reading:
            return 0
        knowledge = self._mask_knowledge(backend, agent, body)
        missed = reading & ~knowledge
        return segments.spread(reading) & ~segments.spread(missed)

    def _mask_everyone_at(
        self, members, body: int, timestamp: float, backend, segments: Segmentation
    ) -> int:
        result = segments.full_mask
        for agent in members:
            result &= self._mask_knows_at(agent, body, timestamp, backend, segments)
            if not result:
                return 0
        return result

    # -- knowledge-of-a-group helpers ----------------------------------------------
    def _group_members(self, group) -> Tuple[Agent, ...]:
        members = as_group(group).sorted_members()
        unknown = set(members) - self._system.processors
        if unknown:
            raise UnknownAgentError(
                f"group mentions unknown processors {sorted(map(repr, unknown))}"
            )
        return members

    def _everyone_eps(self, group, body: PointSet, eps: float) -> PointSet:
        """Appendix A clause (h): there is an interval ``[t0, t0+eps]`` containing the
        current time in which every member of the group knows the body at some time."""
        members = self._group_members(group)
        knowledge = {agent: self._engine.backend.knowledge(agent, body) for agent in members}
        eps_steps = _eps_steps(eps)
        satisfied: Set[Point] = set()
        for run in self._system.runs:
            # For each agent, the times in this run at which it knows the body.
            known_times = {
                agent: sorted(
                    time
                    for time in run.times()
                    if Point(run, time) in knowledge[agent]
                )
                for agent in members
            }
            for time in run.times():
                for start in range(max(0, time - eps_steps), time + 1):
                    end = start + eps_steps
                    if all(
                        any(start <= t <= end for t in known_times[agent])
                        for agent in members
                    ):
                        satisfied.add(Point(run, time))
                        break
        return frozenset(satisfied)

    def _everyone_diamond(self, group, body: PointSet) -> PointSet:
        """Appendix A clause (i): every member of the group knows the body at some
        time (any time) of the run."""
        members = self._group_members(group)
        knowledge = {agent: self._engine.backend.knowledge(agent, body) for agent in members}
        satisfied: Set[Point] = set()
        for run in self._system.runs:
            if all(
                any(Point(run, time) in knowledge[agent] for time in run.times())
                for agent in members
            ):
                satisfied.update(Point(run, time) for time in run.times())
        return frozenset(satisfied)

    def _knows_at(self, agent: Agent, body: PointSet, timestamp: float) -> PointSet:
        """``K^T_i phi``: at the times ``i``'s clock reads ``T`` in this run, it knows
        the body.  The clock must actually read ``T`` at some time of the run.

        The formula is a property of the run, so it holds at every point of a run
        that satisfies it and at no point of a run that does not.
        """
        if agent not in self._system.processors:
            raise UnknownAgentError(f"unknown processor {agent!r}")
        knowledge = self._engine.backend.knowledge(agent, body)
        satisfied: Set[Point] = set()
        for run in self._system.runs:
            reading_times = [
                time
                for time in run.times()
                if _clock_matches(run.clock_reading(agent, time), timestamp)
            ]
            if reading_times and all(
                Point(run, time) in knowledge for time in reading_times
            ):
                satisfied.update(Point(run, time) for time in run.times())
        return frozenset(satisfied)

    def _everyone_at(self, group, body: PointSet, timestamp: float) -> PointSet:
        members = self._group_members(group)
        result: Optional[PointSet] = None
        for agent in members:
            extension = self._knows_at(agent, body, timestamp)
            result = extension if result is None else result & extension
        assert result is not None
        return result

    def _variant_fixpoint(
        self, body: PointSet, everyone_operator: Callable[[PointSet], PointSet]
    ) -> PointSet:
        """Greatest fixed point of ``X == E*(phi & X)`` for the chosen E* operator."""

        def transformer(current: PointSet) -> PointSet:
            return everyone_operator(body & current)

        return greatest_fixpoint(transformer, self._engine.backend.full).result
