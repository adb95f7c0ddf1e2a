"""The "cheating husbands" variant of the muddy children puzzle.

Section 2 notes that the muddy children puzzle is "a variant of the well known 'wise
men' or 'cheating wives' puzzles" (the paper's companion study is Moses, Dolev &
Halpern's *Cheating husbands and other stories*).  The epistemic structure is
identical: each queen knows the fidelity of every husband except her own, the Queen
Mother publicly announces that at least one husband is unfaithful, and every night the
queens simultaneously act (shooting their husband at midnight of day ``k`` when they
can prove his infidelity).

The module is a thin specialisation of the muddy-children machinery with the story's
vocabulary; it exists both as a usability affordance and as a check that the scenario
layer generalises beyond a single puzzle.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.scenarios.muddy_children import (
    MuddyChildren,
    MuddyChildrenResult,
    announcement_formula_set,
)

__all__ = ["CheatingHusbands", "run_cheating_husbands"]


class CheatingHusbands(MuddyChildren):
    """The puzzle with ``n`` queens, ``k`` of whom have unfaithful husbands."""

    def __init__(self, n: int, unfaithful: Sequence[int], names: Sequence[str] = ()):
        queen_names = tuple(names) if names else tuple(f"queen_{i}" for i in range(n))
        super().__init__(n, muddy=unfaithful, names=queen_names)


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

def _registry_formulas(params):
    """Default formula set: the announcement claims in the story's vocabulary."""
    n, k = params["n"], params["k"]
    return announcement_formula_set(tuple(f"queen_{i}" for i in range(n)), k)


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: 2^n marriage vectors, no clocks, bare Kripke model."""
    n = params["n"]
    return ScenarioSignature(
        agents=tuple(f"queen_{i}" for i in range(n)),
        kind="kripke",
        universe_size=2 ** n,
    )


def build_cheating_husbands_scenario(n: int, k: int) -> BuiltScenario:
    """Registry builder: the n-queens model, focused on the actual world."""
    if k > n:
        raise ScenarioError("k must be between 0 and n")
    puzzle = CheatingHusbands(n, unfaithful=list(range(k)))
    return BuiltScenario(
        model=puzzle.model,
        focus=puzzle.actual_world,
        note=f"focus = the actual world (the first {k} of {n} husbands unfaithful)",
    )


def run_cheating_husbands(
    n: int, k: int, rounds: int = None, backend: str = None
) -> MuddyChildrenResult:
    """``n`` queens, the first ``k`` have unfaithful husbands; the Queen Mother speaks.

    The shootings happen on night ``k``: the result's ``first_yes_round`` equals ``k``
    and exactly the wronged queens act.  The nightly rounds run through the chained
    update API (one :class:`~repro.kripke.announcement.UpdateChain` drives the Queen
    Mother's announcement and every simultaneous midnight decision); ``backend``
    selects the engine's set representation for the chain.
    """
    if not 0 <= k <= n:
        raise ScenarioError("k must be between 0 and n")
    puzzle = CheatingHusbands(n, unfaithful=list(range(k)))
    return puzzle.play(rounds=rounds, father_announces=True, backend=backend)
