"""Bisimulation for S5 Kripke structures.

Two worlds are bisimilar when they satisfy the same primitive propositions and, for
every agent, each world in the equivalence class of one can be matched by a bisimilar
world in the equivalence class of the other.  Bisimilar worlds satisfy exactly the
same formulas of the epistemic language (including common knowledge and the fixpoint
operators), so quotienting a structure by bisimilarity is a sound state-space
reduction for model checking.

The coarsest bisimulation is computed by *signature refinement* over class ids.
Every world carries a block id, starting from its valuation.  Because each agent
relation is an equivalence relation given by partition classes, a world's view of
the current partition through agent ``a`` is the set of blocks its ``a``-class
meets, and that set is the same for every member of the class.  So one round
computes, per agent class, one int mask of the block ids the class meets, gives
every world the signature (its block id, its classes' masks) and renumbers the
blocks by signature.  A round can only split blocks, and the rounds stop when the
block count stops growing.  Each round costs O(worlds x agents) mask operations.
When the valuation already tells every world apart no round runs, and the
partition into singletons costs one pass over the valuation.
The frozenset transcription of the same refinement,
:func:`repro.kripke.reference.bisimulation_classes_fixpoint`, is the test oracle.

A structure whose classes are all singletons (the muddy children and the
cheating husbands) is its own quotient up to renaming each world ``w`` to
``{w}``, so :func:`quotient` relabels it rather than rebuilding it, and the
quotient keeps the structure's numbering, survivor mask and partition source,
the cube included.  The effect of minimisation on muddy-children-style model
checking is measured by the on/off ablation and the ratio gate in
``benchmarks/bench_bisimulation.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.engine.universe import class_ids_from_blocks, select_bits
from repro.errors import UnknownWorldError
from repro.kripke.structure import KripkeStructure, World
from repro.logic.agents import Agent

__all__ = [
    "bisimulation_classes",
    "are_bisimilar",
    "quotient",
    "minimize",
]


class _Refinement:
    """The coarsest bisimulation of one structure, as one block id per world.

    ``worlds`` are the structure's worlds in the order of its numbering (the
    survivors of :meth:`KripkeStructure.evaluation_masks`, or the root's own
    sequence when the structure is the whole root), and ``facts`` their
    valuation, read straight from the root's table (``None`` for no fact).

    Signature refinement in class-id space: start from the valuation
    partition; in each round, OR one bit per world into its ``a``-class's
    mask of block ids (for every agent ``a``), then renumber the worlds by
    (block id, per-agent class mask).  A round that leaves the block count
    unchanged leaves the partition unchanged, so it is stable.  Blocks are
    numbered in the order of their first world (``block_of``).  When the
    valuation already tells every world apart (``discrete``) no round runs,
    and the per-agent class ids (:meth:`class_ids`) are never computed.
    """

    def __init__(self, structure: KripkeStructure):
        self.structure = structure
        self.masks = masks = structure.evaluation_masks()
        universe, full = masks.universe, masks.full
        if full == universe.full_mask:
            self.worlds: Sequence[World] = universe.elements
        else:
            self.worlds = list(universe.elements_of(full))
        # Absent worlds and worlds with no fact alike satisfy nothing.
        get = structure._root.table().get
        self.facts = [get(world) or None for world in self.worlds]
        by_valuation: Dict[Optional[FrozenSet[str]], int] = {}
        self.block_of = [by_valuation.setdefault(facts, len(by_valuation)) for facts in self.facts]
        self.discrete = len(by_valuation) == len(self.worlds)
        self._class_ids: Optional[Dict[Agent, Sequence[int]]] = None
        if not self.discrete:  # a partition into singletons is stable
            self.block_of = self._rounds(len(by_valuation))

    def class_ids(self) -> Dict[Agent, Sequence[int]]:
        """Each agent's class id at each of ``worlds``, an index into its block masks."""
        if self._class_ids is None:
            masks, full = self.masks, self.masks.full
            whole = full == masks.universe.full_mask
            class_ids: Dict[Agent, Sequence[int]] = {}
            for agent in sorted(self.structure.agents, key=repr):
                ids = class_ids_from_blocks(masks.blocks[agent], len(masks.universe))
                class_ids[agent] = ids if whole else list(select_bits(ids, full))
            self._class_ids = class_ids
        return self._class_ids

    def classes(self) -> Tuple[FrozenSet[World], ...]:
        """The bisimulation classes, in the order of their first world."""
        members: List[List[World]] = [[] for _ in range(max(self.block_of) + 1)]
        for world, block in zip(self.worlds, self.block_of):
            members[block].append(world)
        return tuple(map(frozenset, members))

    def _rounds(self, count: int) -> List[int]:
        size = len(self.worlds)
        block_of = self.block_of
        blocks = self.masks.blocks
        agent_ids = [(ids, len(blocks[agent])) for agent, ids in self.class_ids().items()]
        while True:
            bits = [1 << block for block in block_of]
            columns: List[List[int]] = [block_of]
            for ids, classes in agent_ids:
                met = [0] * classes
                for class_id, bit in zip(ids, bits):
                    met[class_id] |= bit
                columns.append(list(map(met.__getitem__, ids)))
            signatures: Dict[Tuple[int, ...], int] = {}
            block_of = [
                signatures.setdefault(signature, len(signatures))
                for signature in zip(*columns)
            ]
            if len(signatures) in (count, size):
                return block_of
            count = len(signatures)


def bisimulation_classes(structure: KripkeStructure) -> Tuple[FrozenSet[World], ...]:
    """The coarsest partition of the worlds into bisimilarity classes.

    Computed by signature refinement over class ids (see
    :class:`_Refinement`); the classes come in the order of their first
    world.
    """
    return _Refinement(structure).classes()


def are_bisimilar(structure: KripkeStructure, world_a: World, world_b: World) -> bool:
    """Whether ``world_a`` and ``world_b`` are bisimilar in ``structure``.

    Unknown worlds raise :class:`~repro.errors.UnknownWorldError`, matching
    every other world-taking accessor of the structure.
    """
    for world in (world_a, world_b):
        if world not in structure:
            raise UnknownWorldError(f"unknown world {world!r}")
    refinement = _Refinement(structure)
    block = dict(zip(refinement.worlds, refinement.block_of))
    return block[world_a] == block[world_b]


def quotient(structure: KripkeStructure) -> Tuple[KripkeStructure, Dict[World, FrozenSet[World]]]:
    """The bisimulation quotient of ``structure``.

    Returns the quotient structure (whose worlds are frozensets of original worlds)
    together with the mapping from original worlds to their class, so callers can
    translate query results back.

    When every class is a singleton (the valuation tells every world apart,
    as in the muddy children and cheating husbands models), the quotient is
    ``structure`` with each world ``w`` renamed ``{w}``
    (:meth:`KripkeStructure._relabelled`): the same survivor mask over the
    same positions, the same partition source (a cube stays a cube) and
    the parent's proposition masks.  That holds as long as the renamed
    root is still in ``repr`` order, the numbering every build gives;
    otherwise the quotient is rebuilt as below.

    Two quotient worlds are indistinguishable to an agent iff some pair of
    their members is.  Per agent, one pass over the members of every class
    maps each agent block to the classes it meets; by stability every class
    meets the same group of classes through each of its members, and these
    groups partition the classes.  Each group becomes one quotient class id,
    and the structure is built from the ids by
    :meth:`KripkeStructure._from_class_ids`.
    """
    refinement = _Refinement(structure)
    if refinement.discrete:
        relabelled = _relabelled_quotient(refinement)
        if relabelled is not None:
            return relabelled
    classes, block_of = refinement.classes(), refinement.block_of
    class_of = {world: classes[block] for world, block in zip(refinement.worlds, block_of)}
    valuation: Dict[FrozenSet[World], FrozenSet[str]] = {}
    for facts, block in zip(refinement.facts, block_of):
        if facts:
            valuation.setdefault(classes[block], facts)

    class_ids: Dict[Hashable, List[int]] = {}
    for agent, agent_of in refinement.class_ids().items():
        # One pass over the worlds builds the agent class -> intersecting
        # classes map (each (agent class, class) pair once).
        intersecting: Dict[int, List[int]] = {}
        for agent_class, index in dict.fromkeys(zip(agent_of, block_of)):
            intersecting.setdefault(agent_class, []).append(index)
        ids = [-1] * len(classes)
        group_id = 0
        for group in intersecting.values():
            if ids[group[0]] < 0:
                for index in group:
                    ids[index] = group_id
                group_id += 1
        class_ids[agent] = ids

    quotient_structure = KripkeStructure._from_class_ids(
        classes, structure.agents, valuation, class_ids
    )
    return quotient_structure, class_of


def _relabelled_quotient(
    refinement: _Refinement,
) -> Optional[Tuple[KripkeStructure, Dict[World, FrozenSet[World]]]]:
    """The discrete quotient as its structure relabelled, or ``None`` when the
    singleton labels of the root would leave ``repr`` order."""
    universe, full = refinement.masks.universe, refinement.masks.full
    labels = list(map(frozenset, zip(universe.elements)))  # root world w -> {w}
    keys = list(map(repr, labels))
    if keys != sorted(keys):
        return None
    reduced = refinement.structure._relabelled(labels)
    return reduced, dict(zip(refinement.worlds, select_bits(labels, full)))


def minimize(structure: KripkeStructure) -> KripkeStructure:
    """The bisimulation-minimal structure equivalent to ``structure``."""
    reduced, _ = quotient(structure)
    return reduced
