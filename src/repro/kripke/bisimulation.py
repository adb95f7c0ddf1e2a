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
The frozenset transcription of the same refinement,
:func:`repro.kripke.reference.bisimulation_classes_fixpoint`, is the test oracle.
The effect of minimisation on muddy-children-style model checking is measured by
the on/off ablation in ``benchmarks/bench_bisimulation.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Tuple

from repro.engine.universe import class_ids_from_blocks, partition_from_class_ids
from repro.kripke.structure import KripkeStructure, World

__all__ = [
    "bisimulation_classes",
    "are_bisimilar",
    "quotient",
    "minimize",
]


def _bisimulation_block_masks(structure: KripkeStructure) -> Tuple[int, ...]:
    """The coarsest bisimulation-stable partition, as bitmasks.

    Signature refinement in class-id space: start from the valuation
    partition; in each round, OR one bit per world into its ``a``-class's
    mask of block ids (for every agent ``a``), then renumber the worlds by
    (block id, per-agent class mask).  A round that leaves the block count
    unchanged leaves the partition unchanged, so it is stable.  Blocks are
    returned in the order of their first world.
    """
    universe = structure.indexed_universe()
    size = len(universe)

    # Initial partition: group worlds by their valuation.
    by_valuation: Dict[FrozenSet[str], int] = {}
    block_of = [
        by_valuation.setdefault(structure.facts_at(world), len(by_valuation))
        for world in universe.elements
    ]
    count = len(by_valuation)
    if count == size:  # a partition into singletons is stable
        return partition_from_class_ids(block_of)[0]

    partitions = [
        structure.partition_masks(agent)
        for agent in sorted(structure.agents, key=repr)
    ]
    class_ids = [class_ids_from_blocks(blocks, size) for blocks in partitions]
    while True:
        bits = [1 << block for block in block_of]
        columns: List[List[int]] = [block_of]
        for ids, blocks in zip(class_ids, partitions):
            met = [0] * len(blocks)
            for class_id, bit in zip(ids, bits):
                met[class_id] |= bit
            columns.append(list(map(met.__getitem__, ids)))
        signatures: Dict[Tuple[int, ...], int] = {}
        block_of = [
            signatures.setdefault(signature, len(signatures))
            for signature in zip(*columns)
        ]
        if len(signatures) in (count, size):
            return partition_from_class_ids(block_of)[0]
        count = len(signatures)


def bisimulation_classes(structure: KripkeStructure) -> Tuple[FrozenSet[World], ...]:
    """The coarsest partition of the worlds into bisimilarity classes.

    Computed by signature refinement over class ids and bitmasks (see
    :func:`_bisimulation_block_masks`); the result is converted to frozensets
    at the boundary.
    """
    universe = structure.indexed_universe()
    return tuple(
        universe.to_frozenset(mask) for mask in _bisimulation_block_masks(structure)
    )


def are_bisimilar(structure: KripkeStructure, world_a: World, world_b: World) -> bool:
    """Whether ``world_a`` and ``world_b`` are bisimilar in ``structure``.

    Unknown worlds raise :class:`~repro.errors.UnknownWorldError`, matching
    every other world-taking accessor of the structure.
    """
    bit_a = 1 << structure.world_index(world_a)
    bit_b = 1 << structure.world_index(world_b)
    for mask in _bisimulation_block_masks(structure):
        if mask & bit_a:
            return bool(mask & bit_b)
    raise AssertionError("every world lies in some block")  # pragma: no cover


def quotient(structure: KripkeStructure) -> Tuple[KripkeStructure, Dict[World, FrozenSet[World]]]:
    """The bisimulation quotient of ``structure``.

    Returns the quotient structure (whose worlds are frozensets of original worlds)
    together with the mapping from original worlds to their class, so callers can
    translate query results back.

    Two quotient worlds are indistinguishable to an agent iff some pair of
    their members is.  Per agent, one pass over the members of every class
    maps each agent block to the classes it meets; by stability every class
    meets the same group of classes through each of its members, and these
    groups partition the classes.  Each group becomes one quotient class id,
    and the structure is built from the ids by
    :meth:`KripkeStructure._from_class_ids`.
    """
    universe = structure.indexed_universe()
    size = len(universe)
    class_masks = _bisimulation_block_masks(structure)
    block_of = class_ids_from_blocks(class_masks, size)
    classes = tuple(universe.to_frozenset(mask) for mask in class_masks)
    class_of: Dict[World, FrozenSet[World]] = {}
    for block in classes:
        class_of.update(dict.fromkeys(block, block))

    valuation = {
        block: structure.facts_at(universe.elements[(mask & -mask).bit_length() - 1])
        for block, mask in zip(classes, class_masks)
    }

    class_ids: Dict[Hashable, List[int]] = {}
    for agent in structure.agents:
        agent_of = class_ids_from_blocks(structure.partition_masks(agent), size)
        # One pass over the worlds builds the agent class -> intersecting
        # classes map (each (agent class, class) pair once).
        intersecting: Dict[int, List[int]] = {}
        for agent_class, index in dict.fromkeys(zip(agent_of, block_of)):
            intersecting.setdefault(agent_class, []).append(index)
        ids = [-1] * len(class_masks)
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


def minimize(structure: KripkeStructure) -> KripkeStructure:
    """The bisimulation-minimal structure equivalent to ``structure``."""
    reduced, _ = quotient(structure)
    return reduced
