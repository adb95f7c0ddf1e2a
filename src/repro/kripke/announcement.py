"""Public and private announcements (fact publication).

Section 2 of the paper explains the role of the father's statement in the muddy
children puzzle: publicly announcing a fact that everyone already knows can still
change the group's state of knowledge, because it makes the fact *common knowledge*.
Section 3 calls this "fact publication".  Clark & Marshall's "copresence" is modelled
semantically by restricting the structure to the worlds where the announced fact
holds — after a truthful public announcement the announcement itself (and the fact)
is common knowledge among all agents.

The paper also notes the contrast: "if, instead, the father had taken each child aside
(without the other children noticing) and told her or him about it privately, this
information would have been of no help at all."  :func:`private_announce` models that:
only the addressee's partition is refined by the truth value of the announced fact, so
no new common knowledge arises.

Chained updates
---------------
The reproductions are driven by *chains* of updates — the father's announcement
followed by ``k`` rounds of simultaneous public answers.  :class:`UpdateChain`
drives such a chain through the derived-structure fast path of
:class:`~repro.kripke.structure.KripkeStructure`, reusing one evaluator per
intermediate model and handing each round's ``Knows`` extensions back to the
caller so answers never have to be recomputed.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.logic.agents import Agent
from repro.logic.syntax import Formula, Knows
from repro.kripke.checker import ModelChecker
from repro.kripke.structure import KripkeStructure, World

__all__ = [
    "public_announce",
    "announce_sequence",
    "private_announce",
    "simultaneous_answers",
    "UpdateChain",
]


def _checker_for(
    structure: KripkeStructure, checker: Optional[ModelChecker]
) -> ModelChecker:
    """Validate a caller-supplied evaluator (or build a fresh one).

    A checker caches extensions of the structure it was built over; silently
    accepting one bound to a *different* structure would compute the update
    from stale truths, so that is a loud error instead.
    """
    if checker is None:
        return ModelChecker(structure)
    if checker.structure is not structure:
        raise ModelError(
            "the supplied checker evaluates a different structure; announcements "
            "must be computed by an evaluator over the structure being updated"
        )
    return checker


def public_announce(
    structure: KripkeStructure,
    fact: Formula,
    checker: Optional[ModelChecker] = None,
) -> KripkeStructure:
    """The structure after a truthful public announcement of ``fact``.

    Worlds where ``fact`` fails are removed; the agents' indistinguishability
    relations are restricted to the surviving worlds.  If ``fact`` holds nowhere the
    announcement could not have been truthful and a
    :class:`~repro.errors.ModelError` is raised.

    ``checker`` optionally reuses an existing evaluator *over the same structure*
    (and with it, its accumulated formula memo) instead of constructing a fresh
    one; a checker bound to any other structure is rejected.  The survivors
    stay a bitmask from the evaluator to the restriction, which keeps the
    structure's numbering and partitions (a cube stays a cube) and only
    shrinks its survivor mask.
    """
    checker = _checker_for(structure, checker)
    surviving = checker.extension_mask(fact)
    if not surviving:
        raise ModelError("cannot announce a fact that holds at no world")
    return structure.restrict_mask(surviving)


def announce_sequence(
    structure: KripkeStructure, facts: Iterable[Formula]
) -> List[KripkeStructure]:
    """Apply a sequence of public announcements, returning every intermediate model.

    The returned list starts with the structure after the first announcement; element
    ``i`` is the model after announcements ``0..i``.  This is how the muddy-children
    rounds are driven: the father's announcement of ``m``, then the children's
    simultaneous "no" answers round after round.  The whole sequence runs through
    one :class:`UpdateChain`, so every step takes the derived-structure fast path.
    """
    chain = UpdateChain(structure)
    return [chain.announce(fact) for fact in facts]


def private_announce(
    structure: KripkeStructure, agent: Agent, fact: Formula
) -> KripkeStructure:
    """Privately tell ``agent`` whether ``fact`` holds — without the others noticing.

    The update is the product construction for a truly private announcement: every
    world is duplicated into a "told" copy and an "untold" copy.  The addressee knows
    the announcement happened and learns the truth value of ``fact`` (its partition on
    the told copies is refined by the fact, and it distinguishes told from untold);
    every other agent cannot tell the copies apart, so it learns nothing — not even
    that the announcement took place.  Consequently no new *common* knowledge arises,
    which is exactly the paper's point about the father taking each child aside.

    The returned structure's worlds are pairs ``(world, tag)`` with tag ``"told"`` or
    ``"untold"``; the actual world after the announcement is ``(w, "told")``.
    """
    checker = ModelChecker(structure)
    extension = checker.extension(fact)

    told = [(world, "told") for world in structure.worlds]
    untold = [(world, "untold") for world in structure.worlds]
    worlds = told + untold
    valuation = {(world, tag): structure.facts_at(world) for world, tag in worlds}

    partitions = {}
    for other in structure.agents:
        blocks = []
        for block in structure.partition(other):
            if other == agent:
                # The addressee knows whether it was told, and if told, learns the
                # truth value of the fact.
                true_part = {(w, "told") for w in block if w in extension}
                false_part = {(w, "told") for w in block if w not in extension}
                blocks.extend(part for part in (true_part, false_part) if part)
                blocks.append({(w, "untold") for w in block})
            else:
                # Everyone else cannot distinguish the told copy from the untold one.
                blocks.append({(w, tag) for w in block for tag in ("told", "untold")})
        partitions[other] = blocks
    return KripkeStructure(worlds, structure.agents, valuation, partitions)


def simultaneous_answers(
    structure: KripkeStructure,
    answers: Sequence[Tuple[Agent, Formula]],
    checker: Optional[ModelChecker] = None,
) -> KripkeStructure:
    """The effect of several agents *simultaneously and publicly* answering questions.

    Each element of ``answers`` is ``(agent, claim)``: the agent publicly reveals
    whether it knows ``claim`` (a "yes"/"no" answer to the father's question "can you
    prove ``claim``?").  The answer vector realised at a world is publicly observable,
    so after the round every agent can distinguish worlds with different answer
    vectors.  The update therefore refines *every* agent's partition by the vector of
    answers; no worlds are removed, because which vector is "the true one" depends on
    the actual world.  This is exactly the update the muddy children perform each
    round: restricting any single block of the refined model to one answer vector
    recovers the familiar world-elimination picture.

    The per-agent ``Knows`` extensions are evaluated as one batch of masks on
    the engine's shared memo (optionally on a caller-supplied ``checker`` over
    the same structure), and all agents are refined in a single pass that
    splits each block by every answer mask.
    """
    if not answers:
        return structure
    return _answer_round(_checker_for(structure, checker), answers)[0]


def _answer_round(
    checker: ModelChecker, answers: Sequence[Tuple[Agent, Formula]]
) -> Tuple[KripkeStructure, List[Formula]]:
    """One round of simultaneous public answers over ``checker``'s structure.

    Evaluates every ``Knows(agent, claim)`` in one batch and refines every
    agent's partition by the answer masks, in mask space
    (:meth:`~repro.kripke.structure.KripkeStructure._refine_by_masks`).
    Returns the refined structure and the ``Knows`` formulas, whose
    extensions the checker has memoised.
    """
    questions = [Knows(agent, claim) for agent, claim in answers]
    masks = [checker.extension_mask(question) for question in questions]
    structure = checker.structure
    return structure._refine_by_masks(structure.agents, masks), questions


class UpdateChain:
    """Drive a chain of public model updates, reusing one evaluator per model.

    The muddy-children and cheating-husbands reproductions apply the father's
    announcement followed by ``k`` rounds of simultaneous public answers.  Built
    naively, every round constructs a fresh structure *and* a fresh evaluator
    and recomputes every mask cold.  An ``UpdateChain`` instead:

    * keeps exactly one :class:`~repro.kripke.checker.ModelChecker` per
      intermediate model (queries between updates share its formula memo);
    * applies updates through the structure's derived fast path (a
      restriction to the announcement's extension mask, a split of every block
      by the answer masks), which keeps the world numbering of the first
      structure: a restriction only shrinks the survivor mask, a refinement
      splits blocks in place, and proposition extensions are shared rather
      than recomputed;
    * returns each round's ``Knows`` extensions from :meth:`answer_round`, so
      callers read the answers off the very extensions that drove the update.

    ``benchmarks/bench_announcement_chain.py`` measures this path against the
    rebuild-everything loop it replaced.
    """

    def __init__(self, structure: KripkeStructure, *, backend: Optional[str] = None):
        self._model = structure
        self._backend = backend
        self._checker: Optional[ModelChecker] = None

    @property
    def model(self) -> KripkeStructure:
        """The current (most recently updated) structure."""
        return self._model

    @property
    def checker(self) -> ModelChecker:
        """The cached evaluator over the current structure."""
        if self._checker is None:
            self._checker = ModelChecker(self._model, backend=self._backend)
        return self._checker

    def holds(self, formula: Formula, world: World) -> bool:
        """Whether ``formula`` holds at ``world`` in the current structure."""
        return self.checker.holds(formula, world)

    def extension(self, formula: Formula) -> FrozenSet[World]:
        """The extension of ``formula`` in the current structure."""
        return self.checker.extension(formula)

    def extensions(self, formulas: Iterable[Formula]) -> List[FrozenSet[World]]:
        """Batch evaluation over the current structure (one shared memo)."""
        return self.checker.extensions(formulas)

    def announce(self, fact: Formula) -> KripkeStructure:
        """Publicly announce ``fact``; returns (and switches to) the updated model."""
        self._advance(public_announce(self._model, fact, checker=self.checker))
        return self._model

    def answer_round(
        self, answers: Sequence[Tuple[Agent, Formula]]
    ) -> List[FrozenSet[World]]:
        """One round of simultaneous public answers.

        Evaluates every ``Knows(agent, claim)`` in one batch on the *current*
        model, splits every agent's blocks by the answer masks, and returns the
        extensions — ``world in extensions[i]`` is exactly "agent ``i`` answered
        yes at ``world``", so callers can read the round's answers without
        re-evaluating anything.
        """
        answers = list(answers)
        if not answers:
            return []
        checker = self.checker
        refined, questions = _answer_round(checker, answers)
        extensions = checker.extensions(questions)
        self._advance(refined)
        return extensions

    def _advance(self, updated: KripkeStructure) -> None:
        if updated is not self._model:
            self._model = updated
            self._checker = None
