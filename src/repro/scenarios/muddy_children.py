"""The muddy children puzzle (Section 2).

``n`` children play together; ``k`` of them get mud on their foreheads.  Each sees
every forehead but its own.  The father announces "at least one of you has mud on your
forehead" and then repeatedly asks "can any of you prove you have mud on your head?",
with the children answering simultaneously and truthfully.

The paper's claims, all reproduced here and exercised by experiment E1:

* With the announcement, the muddy children answer "no" to the first ``k - 1``
  questions and "yes" to the ``k``-th.
* Without the announcement, nobody ever answers "yes" (the children never learn).
* Before the father speaks, ``E^{k-1} m`` holds but ``E^k m`` does not; after a public
  announcement of ``m``, ``m`` is common knowledge.
* A *private* announcement to each child separately does not help.

The implementation builds the standard Kripke model (worlds = muddiness vectors, each
child observes all foreheads but its own), uses public announcements to model the
father and the rounds of simultaneous answers, and reports what happens round by
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.kripke.announcement import UpdateChain, public_announce
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.structure import KripkeStructure
from repro.logic.agents import Agent
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import C, E, Formula, Prop

__all__ = [
    "MuddyChildren",
    "RoundOutcome",
    "MuddyChildrenResult",
    "announcement_formula_set",
    "run_muddy_children",
]


@dataclass
class RoundOutcome:
    """What happened in one round of the father's question."""

    round_number: int
    answers: Dict[Agent, bool]
    """For each child, whether it answered "yes, I know I am muddy"."""

    @property
    def anyone_knows(self) -> bool:
        """Whether at least one child answered yes in this round."""
        return any(self.answers.values())


@dataclass
class MuddyChildrenResult:
    """The full transcript of a muddy-children experiment."""

    children: Tuple[Agent, ...]
    muddy: Tuple[Agent, ...]
    father_announced: bool
    rounds: List[RoundOutcome]

    @property
    def first_yes_round(self) -> int:
        """The first round in which some child answered yes (0 when none ever did)."""
        for outcome in self.rounds:
            if outcome.anyone_knows:
                return outcome.round_number
        return 0

    @property
    def muddy_children_answered_yes(self) -> bool:
        """Whether exactly the muddy children answered yes in the first yes-round."""
        round_number = self.first_yes_round
        if round_number == 0:
            return False
        outcome = self.rounds[round_number - 1]
        yes_children = {child for child, answer in outcome.answers.items() if answer}
        return yes_children == set(self.muddy)


class MuddyChildren:
    """A configured instance of the puzzle.

    Parameters
    ----------
    n:
        The number of children (named ``"child_0" .. "child_{n-1}"`` unless explicit
        names are given).
    muddy:
        Which children actually have muddy foreheads (the "actual world").
    names:
        Optional explicit child names.
    """

    def __init__(self, n: int, muddy: Sequence[int], names: Sequence[Agent] = ()):
        if n < 1:
            raise ScenarioError("the puzzle needs at least one child")
        if names and len(names) != n:
            raise ScenarioError("names must have length n")
        self.children: Tuple[Agent, ...] = tuple(names) if names else tuple(
            f"child_{i}" for i in range(n)
        )
        muddy_set = set(muddy)
        if not muddy_set <= set(range(n)):
            raise ScenarioError("muddy indices must be within 0..n-1")
        self.muddy_indices: Tuple[int, ...] = tuple(sorted(muddy_set))
        self.actual_world: Tuple[bool, ...] = tuple(
            i in muddy_set for i in range(n)
        )
        self.model: KripkeStructure = others_attribute_model(self.children)

    # -- formulas ---------------------------------------------------------------
    @property
    def at_least_one_muddy(self) -> Formula:
        """The father's fact ``m``: at least one forehead is muddy."""
        return Prop("at_least_one")

    def muddy_prop(self, child: Agent) -> Formula:
        """The proposition "``child`` has a muddy forehead"."""
        return Prop(f"muddy_{child}")

    # -- knowledge-state queries --------------------------------------------------
    def holds_initially(self, formula: Formula) -> bool:
        """Whether ``formula`` holds at the actual world before the father speaks."""
        return ModelChecker(self.model).holds(formula, self.actual_world)

    def e_level_of_m(self, max_level: int = None) -> int:
        """The largest ``j`` such that ``E^j m`` holds initially at the actual world.

        The paper shows this is exactly ``k - 1`` when ``k`` children are muddy
        (and the father has not yet spoken).
        """
        checker = ModelChecker(self.model)
        limit = max_level if max_level is not None else len(self.children) + 1
        level = 0
        for j in range(1, limit + 1):
            if checker.holds(E(self.children, self.at_least_one_muddy, j), self.actual_world):
                level = j
            else:
                break
        return level

    def common_knowledge_of_m_after_announcement(self) -> bool:
        """Whether ``C m`` holds at the actual world after the father's announcement."""
        if not any(self.actual_world):
            raise ScenarioError("the father cannot truthfully announce m when k = 0")
        announced = public_announce(self.model, self.at_least_one_muddy)
        return ModelChecker(announced).holds(
            C(self.children, self.at_least_one_muddy), self.actual_world
        )

    # -- the rounds of questioning ----------------------------------------------------
    def play(
        self,
        rounds: int = None,
        father_announces: bool = True,
        backend: str = None,
    ) -> MuddyChildrenResult:
        """Simulate the father's repeated question.

        Each round, every child simultaneously and publicly answers whether it knows
        its own forehead is muddy; the public answers update the model.  The whole
        chain — the father's announcement and every answer round — runs through one
        :class:`~repro.kripke.announcement.UpdateChain`, so each intermediate model
        is derived from its parent in bitmask space and each round's ``Knows``
        extensions are evaluated exactly once (they both answer the father's
        question *and* drive the update).

        Returns the per-round answers.  With ``father_announces=False`` the initial
        announcement of ``m`` is skipped, reproducing the paper's claim that the
        children then never learn anything.  ``backend`` selects the engine's set
        representation for the chain's evaluators (``None`` follows the
        process-wide default).
        """
        total_rounds = rounds if rounds is not None else len(self.children) + 1
        chain = UpdateChain(self.model, backend=backend)
        if father_announces:
            if not any(self.actual_world):
                raise ScenarioError("the father cannot truthfully announce m when k = 0")
            chain.announce(self.at_least_one_muddy)

        claims = [(child, self.muddy_prop(child)) for child in self.children]
        outcomes: List[RoundOutcome] = []
        for round_number in range(1, total_rounds + 1):
            extensions = chain.answer_round(claims)
            answers = {
                child: self.actual_world in extension
                for (child, _), extension in zip(claims, extensions)
            }
            outcomes.append(RoundOutcome(round_number, answers))
        return MuddyChildrenResult(
            children=self.children,
            muddy=tuple(self.children[i] for i in self.muddy_indices),
            father_announced=father_announces,
            rounds=outcomes,
        )


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

def announcement_formula_set(agents: Tuple[Agent, ...], k: int) -> Dict[str, Formula]:
    """The Section 2 E-hierarchy boundary for ``k`` muddy agents.

    Shared by every muddy-children-shaped scenario (the cheating-husbands
    variant reuses it with the queens' names): ``m``, the last level that holds
    (``E^{k-1} m``), the first that fails (``E^k m``), and ``C m``.
    """
    m = Prop("at_least_one")
    formulas: Dict[str, Formula] = {"m": m}
    if k > 1:
        formulas[f"E^{k - 1} m"] = E(agents, m, k - 1)
    if k >= 1:
        formulas[f"E^{k} m"] = E(agents, m, k)
    formulas["C m"] = C(agents, m)
    return formulas


def _registry_formulas(params):
    """Default formula set: the E-hierarchy claims of Section 2."""
    n, k = params["n"], params["k"]
    return announcement_formula_set(tuple(f"child_{i}" for i in range(n)), k)


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: 2^n muddiness vectors, no clocks, bare Kripke model."""
    n = params["n"]
    return ScenarioSignature(
        agents=tuple(f"child_{i}" for i in range(n)),
        kind="kripke",
        universe_size=2 ** n,
    )


def build_muddy_children_scenario(n: int, k: int, announced: bool) -> BuiltScenario:
    """Registry builder: the n-children Kripke model, focused on the actual world."""
    if k > n:
        raise ScenarioError("k must be between 0 and n")
    puzzle = MuddyChildren(n, muddy=list(range(k)))
    model = puzzle.model
    if announced:
        if k == 0:
            raise ScenarioError("the father cannot truthfully announce m when k = 0")
        model = public_announce(model, puzzle.at_least_one_muddy)
    return BuiltScenario(
        model=model,
        focus=puzzle.actual_world,
        note=f"focus = the actual world (the first {k} of {n} children muddy)",
    )


def run_muddy_children(
    n: int,
    k: int,
    father_announces: bool = True,
    rounds: int = None,
    backend: str = None,
) -> MuddyChildrenResult:
    """Convenience wrapper: ``n`` children, the first ``k`` of them muddy.

    >>> result = run_muddy_children(3, 2)
    >>> result.first_yes_round
    2
    >>> result.muddy_children_answered_yes
    True
    """
    if not 0 <= k <= n:
        raise ScenarioError("k must be between 0 and n")
    puzzle = MuddyChildren(n, muddy=list(range(k)))
    return puzzle.play(rounds=rounds, father_announces=father_announces, backend=backend)
