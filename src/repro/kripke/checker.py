"""Model checking the epistemic language over finite Kripke structures.

The checker computes, for each formula, the *extension* — the set of worlds at which
the formula holds — by structural recursion, following the clauses (a)–(g) of
Section 6 of the paper:

* ``K_i phi`` holds at ``w`` iff ``phi`` holds at every world in ``i``'s
  equivalence class of ``w``.
* ``D_G phi`` holds at ``w`` iff ``phi`` holds at every world in the *intersection*
  of the members' classes (the group's joint view).
* ``E_G phi`` is the conjunction of ``K_i phi`` over the group.
* ``C_G phi`` holds at ``w`` iff ``phi`` holds at every world G-reachable from ``w``,
  which is how it is evaluated.  Appendix A's equivalent greatest fixed point of
  ``X == E_G(phi & X)`` is a formula of the language (``nu X. E_G(phi & X)``); the
  tests check that both agree and ``benchmarks/bench_model_checking.py`` compares
  their cost.

Backend architecture
--------------------
:class:`ModelChecker` does not evaluate formulas itself: it instantiates a shared
:class:`repro.engine.EvaluationEngine` and delegates every query to it.  It hands
the engine the structure's own masks, as
:meth:`KripkeStructure.evaluation_masks` lays them out: a world numbering, the
mask of the structure's worlds in it, the per-agent partition masks and
per-world class masks (computed on first lookup), the cube of hidden bits when
the structure is hypercube-shaped, the cached reachability closures and the
proposition masks — the one input format both backends are built from.
The ``backend`` constructor argument picks the set representation:

* ``"bitset"`` (default) — the production backend: extensions as integer bitmasks
  that share the structure's masks and closures, so a second checker over the
  same structure costs ``O(agents)`` to build;
* ``"frozenset"`` — the test oracle, a literal transcription of the paper's clauses
  over ``frozenset`` extensions, which derives its classes from the block masks.

The two backends are kept observably identical by the differential harness in
``tests/test_engine_equivalence.py``.  Results are memoised per formula structure
(the cache key includes the fixpoint-variable environment), so repeatedly querying
the same structure is cheap; :meth:`ModelChecker.extensions` evaluates a batch of
formulas against one shared memo.

Temporal-epistemic operators (``C^eps``, ``C^<>``, ``C^T``, ``<>``) have no meaning on
a bare Kripke structure — they need runs and time — so the checker's ``special``
hook raises :class:`~repro.errors.EvaluationError` for them.  Use
:class:`repro.systems.interpretation.ViewBasedInterpretation` for those.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Mapping, Optional

from repro.engine import EvaluationEngine
from repro.errors import EvaluationError
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
from repro.kripke.structure import KripkeStructure, World

__all__ = ["ModelChecker"]

_TEMPORAL_NODES = (
    EveryoneEps,
    CommonEps,
    EveryoneDiamond,
    CommonDiamond,
    KnowsAt,
    EveryoneAt,
    CommonAt,
    Eventually,
    Always,
)


class ModelChecker:
    """Evaluate formulas over a :class:`~repro.kripke.structure.KripkeStructure`.

    Results are memoised per formula (the cache key includes the fixpoint-variable
    environment), so repeatedly querying the same structure is cheap.

    Parameters
    ----------
    structure:
        The Kripke structure to check.
    backend:
        Keyword-only.  Which engine backend represents extensions.  ``None``
        picks the process-wide default (:func:`repro.engine.get_default_backend`),
        which is ``"bitset"``, the production backend; ``"frozenset"`` pins the
        test oracle, as the differential tests and perfbench's oracle replay do.

    Examples
    --------
    Agent ``a`` sees the variable ``p``, agent ``b`` sees nothing:

    >>> from repro.kripke.builders import observed_variable_model
    >>> from repro.logic import K, C, prop
    >>> model = observed_variable_model(["a", "b"], {"p": [0, 1]}, {"a": {"p"}})
    >>> checker = ModelChecker(model)
    >>> world = (("p", 1),)
    >>> checker.holds(K("a", prop("p=1")), world), checker.holds(K("b", prop("p=1")), world)
    (True, False)
    >>> checker.holds(C(["a", "b"], prop("p=1")), world)
    False
    """

    def __init__(
        self,
        structure: KripkeStructure,
        *,
        backend: Optional[str] = None,
    ):
        self._structure = structure
        # The structure caches its world numbering, partition masks,
        # reachability closures and proposition masks, so every checker over
        # it shares them.  Derived structures (announcement restrictions /
        # refinements) inherit proposition masks from their parent by
        # remapping, so a checker over an update chain starts with its atomic
        # extensions warm instead of rescanning the valuation.
        masks = structure.evaluation_masks()
        self._engine = EvaluationEngine(
            masks.universe,
            masks.blocks,
            masks.class_at,
            masks.prop_mask,
            require_agent=self._require_agent,
            require_group=structure.group_members,
            special=self._reject_temporal,
            backend=backend,
            component_source=masks.component_masks,
            full=masks.full,
            cube=masks.cube,
        )

    @property
    def structure(self) -> KripkeStructure:
        """The structure being checked."""
        return self._structure

    @property
    def engine(self) -> EvaluationEngine:
        """The shared evaluation engine this checker delegates to."""
        return self._engine

    @property
    def backend(self) -> str:
        """The name of the active set-representation backend."""
        return self._engine.backend_name

    # -- public API ------------------------------------------------------------
    def extension(
        self,
        formula: Formula,
        environment: Optional[Mapping[str, FrozenSet[World]]] = None,
    ) -> FrozenSet[World]:
        """The set of worlds at which ``formula`` holds.

        ``environment`` assigns extensions to free fixpoint variables; formulas
        without free variables never need it.
        """
        return self._engine.extension(formula, environment)

    def extensions(
        self,
        formulas: Iterable[Formula],
        environment: Optional[Mapping[str, FrozenSet[World]]] = None,
    ) -> List[FrozenSet[World]]:
        """Batch evaluation: the extensions of ``formulas`` in order.

        The queries share one subformula memo, so checking a family of related
        formulas (e.g. every level of the knowledge hierarchy) costs little more
        than the deepest one.
        """
        return self._engine.extensions(formulas, environment)

    def extension_mask(self, formula: Formula) -> int:
        """The extension of ``formula`` as a bitmask, in the numbering of the
        structure's :meth:`~repro.kripke.structure.KripkeStructure.evaluation_masks`
        (what :meth:`~repro.kripke.structure.KripkeStructure.restrict_mask` takes)."""
        return self._engine.extension_mask(formula)

    def holds(
        self,
        formula: Formula,
        world: World,
        environment: Optional[Mapping[str, FrozenSet[World]]] = None,
    ) -> bool:
        """Whether ``formula`` holds at ``world``."""
        return world in self.extension(formula, environment)

    def is_valid(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at every world of the structure.

        This is the notion "valid in the system" used for the necessitation rule R1
        and the induction rule C2.
        """
        return self.extension(formula) == self._structure.worlds

    def is_satisfiable(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at some world of the structure."""
        return bool(self.extension(formula))

    def clear_cache(self) -> None:
        """Drop all memoised extensions (useful in benchmarks).

        This clears the engine's memo as well — the checker keeps no cache of its
        own, so there is no second cache that could fall out of step with it.
        """
        self._engine.clear_cache()

    # -- engine adapters ---------------------------------------------------------
    def _require_agent(self, agent) -> None:
        # Re-raise through the structure so the error message matches direct
        # structure queries ("unknown agent ...").
        self._structure.partition(agent)

    def _reject_temporal(
        self, formula: Formula, evaluate: Callable[[Formula], object], backend
    ) -> None:
        if isinstance(formula, _TEMPORAL_NODES):
            raise EvaluationError(
                f"{type(formula).__name__} requires a runs-and-systems model; "
                "use repro.systems.ViewBasedInterpretation instead of a bare Kripke "
                "structure"
            )
        return None
