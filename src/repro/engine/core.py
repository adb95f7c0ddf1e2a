"""The shared formula-evaluation engine.

:class:`EvaluationEngine` implements the structural recursion of Section 6 once, for
both evaluators of the library:

* :class:`repro.kripke.checker.ModelChecker` instantiates it over the worlds of a
  Kripke structure (temporal operators rejected via the ``special`` hook);
* :class:`repro.systems.interpretation.ViewBasedInterpretation` instantiates it over
  the points of a system (temporal and temporal-epistemic operators supplied via the
  ``special`` hook).

The engine is generic over a set-representation *backend*
(:mod:`repro.engine.backends`): the reference ``frozenset`` backend, or the ``bitset``
backend that evaluates over integer bitmasks.  Results are memoised under structural
keys — structurally equal formulas share one interned key, so repeated queries (and
repeated fixpoint iterations, whose iterates re-evaluate the same body under
the same variable environment) hit the cache regardless of which formula object the
caller built.

Hosts hand over the model in mask form: partitions as block and per-element
class masks (plus, for hypercube-shaped models, the hidden index bits of each
agent), the mask of the elements that make up the model, and atoms through
``prop_extension``, which returns a proposition's extension (the valuation's
``pi``) as a bitmask over the universe.  They keep
their own error vocabulary by injecting callbacks: ``require_agent`` /
``require_group`` raise the host's unknown-agent errors, and ``special`` either
evaluates host-specific operators or returns ``None`` to make the engine raise
its generic unsupported-node error.  ``special`` works in the active backend's
own values (bitmasks on bitset, frozensets on the oracle), so no extension is
converted on its way through the hook.

There is one evaluation configuration: ``C_G`` is always Section 6's
G-reachability (``backend.common_reachability``).  Appendix A's greatest
fixed point ``nu X. E_G(phi & X)`` is a formula of the language, so tests
that compare the two characterisations evaluate it as one.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import EvaluationError
from repro.engine.backends import (
    BACKENDS,
    ComponentSource,
    EngineBackend,
    resolve_backend_name,
)
from repro.engine.universe import Hypercube, IndexedUniverse
from repro.logic.syntax import (
    And,
    Common,
    Distributed,
    Everyone,
    FalseFormula,
    Formula,
    GreatestFixpoint,
    Iff,
    Implies,
    Knows,
    LeastFixpoint,
    Not,
    Or,
    Prop,
    Someone,
    TrueFormula,
    Var,
    _occurrences_positive,
)

__all__ = ["EvaluationEngine"]

Element = Hashable
Agent = Hashable

_MAX_FIXPOINT_ITERATIONS = 1_000_000

SpecialHandler = Callable[
    [Formula, Callable[[Formula], object], EngineBackend], Optional[object]
]


class EvaluationEngine:
    """Backend-pluggable evaluator for the static epistemic language.

    Parameters
    ----------
    universe:
        The worlds or points, numbered by bit position.
    blocks:
        Each agent's partition as block masks over ``universe``.
    class_at:
        Each agent's per-element class masks, in bit-position order.
    prop_extension:
        Returns the extension of a primitive proposition name as a bitmask over
        ``universe`` (``0`` for a name the valuation never mentions).  The
        bitset backend uses it as is; the frozenset oracle converts it.
    require_agent:
        Called (and expected to raise the host's error) when a ``K_i`` names an
        agent with no class map.
    require_group:
        Normalises/validates a group and returns its members as a sorted tuple,
        raising the host's error for unknown members.
    special:
        Optional hook for operators the engine does not implement (the temporal and
        temporal-epistemic fragment).  It receives the formula, an evaluator for
        subformulas (closing over the current variable environment) and the
        active backend.  Subformulas come back as backend values (bitmasks on
        bitset, frozensets on the oracle), and the hook returns the extension
        in the same form, or ``None`` if the node is unsupported.
    backend:
        ``"frozenset"``, ``"bitset"`` or ``None`` for the process-wide default
        (:func:`repro.engine.backends.get_default_backend`).  Both are built
        from the same masks.
    component_source:
        Optional members-tuple -> G-reachability component masks, for hosts
        that cache their closures; the bitset backend reuses them.
    full:
        The mask of the elements that make up the model (default: the whole
        universe).  A Kripke structure passes its survivor mask here: every
        structure derived from one build (announcements, refinements, new
        valuations) keeps that build's numbering and only shrinks ``full``.
        Every extension, ``full`` included, stays inside this mask.
    cube:
        Optional :class:`~repro.engine.universe.Hypercube` describing the same
        partitions as ``blocks`` by hidden index bits; the bitset backend
        then evaluates ``K``, ``D`` and ``C`` without scanning blocks.
    """

    def __init__(
        self,
        universe: IndexedUniverse,
        blocks: Mapping[Agent, Sequence[int]],
        class_at: Mapping[Agent, Sequence[int]],
        prop_extension: Callable[[str], int],
        *,
        require_agent: Callable[[Agent], None],
        require_group: Callable[[object], Tuple[Agent, ...]],
        special: Optional[SpecialHandler] = None,
        backend: Optional[str] = None,
        component_source: Optional[ComponentSource] = None,
        full: Optional[int] = None,
        cube: Optional[Hypercube] = None,
    ):
        self._backend: EngineBackend = BACKENDS[resolve_backend_name(backend)](
            universe, blocks, class_at, component_source, full=full, cube=cube
        )
        self._prop_extension = prop_extension
        self._require_agent = require_agent
        self._require_group = require_group
        self._special = special
        # Structural interning: structurally equal formulas map to one small int, so
        # memo keys hash the (deep) formula once per distinct structure.
        self._interned: Dict[Formula, int] = {}
        self._memo: Dict[Tuple[int, Tuple[Tuple[str, object], ...]], object] = {}

    # -- configuration ----------------------------------------------------------
    @property
    def backend_name(self) -> str:
        """The name of the active set-representation backend."""
        return self._backend.name

    @property
    def backend(self) -> EngineBackend:
        """The active backend instance (exposed for tests and benchmarks)."""
        return self._backend

    @property
    def cache_size(self) -> int:
        """How many (formula, environment) extensions are currently memoised."""
        return len(self._memo)

    def clear_cache(self) -> None:
        """Drop every memoised extension (structural per-group caches survive —
        they depend only on the immutable model, never on formulas)."""
        self._memo.clear()
        # The interner only exists to serve memo keys; dropping it with the memo
        # keeps long-lived engines from retaining every formula ever evaluated.
        self._interned.clear()

    # -- public evaluation API ----------------------------------------------------
    def extension(
        self,
        formula: Formula,
        environment: Optional[Mapping[str, FrozenSet[Element]]] = None,
    ) -> FrozenSet[Element]:
        """The set of elements at which ``formula`` holds, as a frozenset.

        Environment values are restricted to the model: elements that are not
        worlds/points of it are ignored, identically on every backend.
        """
        return self._backend.to_frozenset(
            self._evaluate(formula, self._convert_environment(environment))
        )

    def extension_mask(self, formula: Formula) -> int:
        """The extension of ``formula`` as a bitmask over the universe.

        The mask-level counterpart of :meth:`extension`, for hosts that feed
        the answer straight back into mask space (a public announcement).
        """
        return self._backend.to_mask(self._evaluate(formula, {}))

    def extensions(
        self,
        formulas: Iterable[Formula],
        environment: Optional[Mapping[str, FrozenSet[Element]]] = None,
    ) -> List[FrozenSet[Element]]:
        """Batch evaluation: the extensions of ``formulas`` in order.

        All queries share the engine's subformula memo, so a batch of formulas with
        common subterms (e.g. the ``E^k`` hierarchy) costs little more than the
        largest single query.
        """
        backend = self._backend
        env = self._convert_environment(environment)
        return [backend.to_frozenset(self._evaluate(f, env)) for f in formulas]

    def summaries(
        self, formulas: Iterable[Formula], focus: Optional[Element] = None
    ) -> List[Tuple[int, Optional[bool]]]:
        """Batch evaluation without set conversion: per formula, the size of
        its extension and whether ``focus`` is in it (``None`` without a focus).

        Shares the memo with :meth:`extensions`; each answer is read off the
        backend's own value (a popcount and one bit test on bitset).
        """
        summary = self._backend.summary
        return [summary(self._evaluate(f, {}), focus) for f in formulas]

    def _convert_environment(
        self, environment: Optional[Mapping[str, FrozenSet[Element]]]
    ) -> Dict[str, object]:
        # Values are clipped to the model's elements, so both backends see
        # identical inputs (the bitset backend cannot even represent foreign
        # elements).
        backend = self._backend
        universe = backend.universe
        return {
            name: backend.intersect(
                backend.from_frozenset(e for e in value if e in universe), backend.full
            )
            for name, value in (environment or {}).items()
        }

    # -- recursion ---------------------------------------------------------------
    def _intern(self, formula: Formula) -> int:
        key = self._interned.get(formula)
        if key is None:
            key = len(self._interned)
            self._interned[formula] = key
        return key

    def _evaluate(self, formula: Formula, env: Dict[str, object]):
        key = (self._intern(formula), tuple(sorted(env.items())))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._evaluate_uncached(formula, env)
        self._memo[key] = result
        return result

    def _evaluate_uncached(self, formula: Formula, env: Dict[str, object]):
        backend = self._backend

        if isinstance(formula, TrueFormula):
            return backend.full
        if isinstance(formula, FalseFormula):
            return backend.empty
        if isinstance(formula, Prop):
            return backend.from_mask(self._prop_extension(formula.name))
        if isinstance(formula, Var):
            if formula.name not in env:
                raise EvaluationError(
                    f"fixpoint variable {formula.name!r} is free and unbound"
                )
            return env[formula.name]
        if isinstance(formula, Not):
            return backend.complement(self._evaluate(formula.operand, env))
        if isinstance(formula, And):
            result = backend.full
            for operand in formula.operands:
                result = backend.intersect(result, self._evaluate(operand, env))
                if backend.is_empty(result):
                    break
            return result
        if isinstance(formula, Or):
            result = backend.empty
            for operand in formula.operands:
                result = backend.union(result, self._evaluate(operand, env))
            return result
        if isinstance(formula, Implies):
            antecedent = self._evaluate(formula.antecedent, env)
            consequent = self._evaluate(formula.consequent, env)
            return backend.union(backend.complement(antecedent), consequent)
        if isinstance(formula, Iff):
            left = self._evaluate(formula.left, env)
            right = self._evaluate(formula.right, env)
            return backend.equiv(left, right)

        if isinstance(formula, Knows):
            if not backend.has_agent(formula.agent):
                self._require_agent(formula.agent)
            body = self._evaluate(formula.operand, env)
            return backend.knowledge(formula.agent, body)
        if isinstance(formula, Someone):
            members = self._require_group(formula.group)
            body = self._evaluate(formula.operand, env)
            return backend.someone(members, body)
        if isinstance(formula, Everyone):
            members = self._require_group(formula.group)
            body = self._evaluate(formula.operand, env)
            return backend.everyone(members, body)
        if isinstance(formula, Distributed):
            members = self._require_group(formula.group)
            body = self._evaluate(formula.operand, env)
            return backend.distributed(members, body)
        if isinstance(formula, Common):
            members = self._require_group(formula.group)
            body = self._evaluate(formula.operand, env)
            return backend.common_reachability(members, body)

        if isinstance(formula, GreatestFixpoint):
            return self._bound_fixpoint(formula, env, greatest=True)
        if isinstance(formula, LeastFixpoint):
            return self._bound_fixpoint(formula, env, greatest=False)

        return self._evaluate_special(formula, env)

    def _evaluate_special(self, formula: Formula, env: Dict[str, object]):
        if self._special is not None:

            def evaluate(subformula: Formula):
                return self._evaluate(subformula, env)

            result = self._special(formula, evaluate, self._backend)
            if result is not None:
                return result
        raise EvaluationError(f"unsupported formula node {type(formula).__name__}")

    # -- fixpoints ---------------------------------------------------------------
    # One iterate-until-stable loop serves both fixpoint forms.  It mirrors
    # repro.logic.fixpoint.iterate_to_fixpoint, which cannot be reused directly
    # because it coerces every iterate through frozenset() and the transformer
    # here works on opaque backend values (ints for the bitset backend).

    @staticmethod
    def _iterate_until_stable(step, start):
        current = start
        for _ in range(_MAX_FIXPOINT_ITERATIONS):
            nxt = step(current)
            if nxt == current:
                return current
            current = nxt
        raise EvaluationError(
            f"fixpoint iteration did not converge within {_MAX_FIXPOINT_ITERATIONS} steps"
        )

    def _bound_fixpoint(self, formula, env: Dict[str, object], greatest: bool):
        # The constructor enforces the positivity restriction, but formulas can
        # reach evaluation without passing through it (unpickling restores
        # slots directly), so re-check here: iterating a non-monotone body
        # converges to a meaningless answer or not at all.
        if not _occurrences_positive(formula.body, formula.variable, positive=True):
            binder = "nu" if greatest else "mu"
            raise EvaluationError(
                f"cannot iterate {binder} {formula.variable}: a free occurrence "
                f"of {formula.variable!r} in the body sits under an odd number "
                "of negations, so the induced set transformer is not monotone "
                "and the fixed point may not exist"
            )
        backend = self._backend

        def step(current):
            inner_env = dict(env)
            inner_env[formula.variable] = current
            return self._evaluate(formula.body, inner_env)

        return self._iterate_until_stable(
            step, backend.full if greatest else backend.empty
        )
