"""Naive reference implementations of the model-update operations.

These are transcriptions of the pre-fast-path ("seed") code: from-scratch
``KripkeStructure`` rebuilds through the validating public constructor, the
frozenset fixed-point bisimulation refinement (whose signatures
:mod:`repro.kripke.bisimulation` now computes over class ids and masks), the
frozenset-block construction that preceded class ids
(:func:`from_worlds_rebuild`), and the block-mask muddy-children model that
preceded the hypercube one (:func:`others_attribute_class_ids`).  They are
deliberately slow and obviously correct, and exist for exactly two consumers —
the differential tests (``tests/test_derived_structures.py``,
``tests/test_class_id_construction.py``, ``tests/test_hypercube.py``), which
pin the fast paths to be observably identical to these rebuilds, and the
benchmarks (``benchmarks/bench_announcement_chain.py``,
``benchmarks/bench_scenario_sweep.py``, ``benchmarks/bench_bisimulation.py``,
``benchmarks/bench_muddy_children.py``), which use them as the measured
baseline.  Keeping the single copy here keeps the test oracle and the
benchmark baseline the same code.

Do not "optimise" these: their value is that they do not share machinery with
the fast path they check.
"""

from __future__ import annotations

import itertools
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Set,
)

from repro.engine.universe import IndexedUniverse
from repro.errors import ModelError, UnknownAgentError, UnknownWorldError
from repro.kripke.structure import KripkeStructure, World, _Root
from repro.logic.agents import Agent

__all__ = [
    "constructor_rebuild",
    "from_worlds_rebuild",
    "others_attribute_rebuild",
    "others_attribute_class_ids",
    "restrict_rebuild",
    "refine_agent_rebuild",
    "bisimulation_classes_fixpoint",
]


def from_worlds_rebuild(
    worlds: Iterable[World],
    agents: Iterable[Agent],
    valuation: Callable[[World], AbstractSet[str]],
    observation: Callable[[Agent, World], Hashable],
) -> KripkeStructure:
    """``builders.from_worlds`` as the seed built it, frozenset blocks throughout.

    The observations group the worlds into blocks, which then go through
    :func:`constructor_rebuild`.
    """
    world_list = list(worlds)
    agent_list = list(agents)
    if not world_list:
        raise ModelError("from_worlds requires at least one world")
    partitions: Dict[Agent, List[AbstractSet[World]]] = {}
    for agent in agent_list:
        blocks: Dict[Hashable, set] = {}
        for world in world_list:
            blocks.setdefault(observation(agent, world), set()).add(world)
        partitions[agent] = list(blocks.values())
    valuation_map = {world: frozenset(valuation(world)) for world in world_list}
    return constructor_rebuild(world_list, agent_list, valuation_map, partitions)


def others_attribute_rebuild(agents: Iterable[Agent]) -> KripkeStructure:
    """``builders.others_attribute_model`` as the seed built it: a per-world
    observation tuple of everyone else's attribute."""
    agent_list = list(agents)
    n = len(agent_list)
    worlds = [tuple(bits) for bits in itertools.product([False, True], repeat=n)]

    def valuation(world):
        facts = {f"muddy_{agent_list[i]}" for i in range(n) if world[i]}
        if any(world):
            facts.add("at_least_one")
        return facts

    def observation(agent, world):
        index = agent_list.index(agent)
        return tuple(world[i] for i in range(n) if i != index)

    return from_worlds_rebuild(worlds, agent_list, valuation, observation)


def others_attribute_class_ids(agents: Iterable[Agent]) -> KripkeStructure:
    """``builders.others_attribute_model`` as the class-id builder made it,
    before the cube: a generic structure with every agent's block masks.

    Agent ``i``'s class id of world ``w`` is ``w`` with bit ``n - 1 - i``
    cleared, grouped by :meth:`KripkeStructure._from_class_ids`, so its
    evaluation scans blocks and reachability components.
    """
    agent_list = list(agents)
    n = len(agent_list)
    worlds = [tuple(bits) for bits in itertools.product([False, True], repeat=n)]
    names = [f"muddy_{agent}" for agent in agent_list]
    valuation = {}
    for world in worlds:
        facts = set(itertools.compress(names, world))
        if facts:
            facts.add("at_least_one")
        valuation[world] = facts
    class_ids = {
        agent: [w & ~(1 << (n - 1 - i)) for w in range(len(worlds))]
        for i, agent in enumerate(agent_list)
    }
    return KripkeStructure._from_class_ids(worlds, agent_list, valuation, class_ids)


def constructor_rebuild(
    worlds: Iterable[World],
    agents: Iterable[Agent],
    valuation: Mapping[World, AbstractSet[str]],
    partitions: Mapping[Agent, Iterable[AbstractSet[World]]],
) -> KripkeStructure:
    """The seed's validating ``KripkeStructure`` constructor.

    It builds every agent's ``class_of`` map eagerly and hashes every block into
    a partition mask; the per-world class masks are left to
    :meth:`KripkeStructure.class_masks_in_order`, which derives them from those
    partition masks.
    """
    world_set = frozenset(worlds)
    if not world_set:
        raise ModelError("a Kripke structure needs at least one world")
    agent_set = frozenset(agents)
    if not agent_set:
        raise ModelError("a Kripke structure needs at least one agent")
    valuation_map: Dict[World, FrozenSet[str]] = {}
    for world, facts in valuation.items():
        if world not in world_set:
            raise UnknownWorldError(f"valuation mentions unknown world {world!r}")
        valuation_map[world] = frozenset(facts)
    classes = {}
    class_of = {}
    for agent in agent_set:
        seen: Set[World] = set()
        class_map: Dict[World, FrozenSet[World]] = {}
        all_classes: List[FrozenSet[World]] = []
        for block in (frozenset(block) for block in partitions.get(agent, [])):
            if not block:
                continue
            stray = block - world_set
            if stray:
                raise UnknownWorldError(
                    f"partition for agent {agent!r} mentions unknown worlds {sorted(map(repr, stray))}"
                )
            overlap = block & seen
            if overlap:
                raise ModelError(
                    f"partition for agent {agent!r} is not disjoint: "
                    f"worlds {sorted(map(repr, overlap))} appear twice"
                )
            seen.update(block)
            all_classes.append(block)
            for world in block:
                class_map[world] = block
        for world in world_set - seen:
            singleton = frozenset({world})
            all_classes.append(singleton)
            class_map[world] = singleton
        class_of[agent] = class_map
        classes[agent] = tuple(all_classes)
    unknown_agents = set(partitions) - set(agent_set)
    if unknown_agents:
        raise UnknownAgentError(
            f"partitions mention unknown agents: {sorted(map(repr, unknown_agents))}"
        )
    universe = IndexedUniverse(sorted(world_set, key=repr))
    partition_masks = {
        agent: (tuple(universe.mask_of(block) for block in blocks), None)
        for agent, blocks in classes.items()
    }
    structure = KripkeStructure.__new__(KripkeStructure)
    structure._setup(
        agent_set,
        _Root(lambda: universe, valuation_map),
        universe.full_mask,
        partition_masks,
        world_set,
    )
    structure._classes = classes
    structure._class_of = class_of
    return structure


def restrict_rebuild(
    structure: KripkeStructure, worlds: AbstractSet[World]
) -> KripkeStructure:
    """``KripkeStructure.restrict`` as a from-scratch rebuild (the seed code)."""
    kept = frozenset(worlds) & structure.worlds
    valuation = {w: structure.facts_at(w) for w in kept}
    partitions = {
        agent: [block & kept for block in structure.partition(agent) if block & kept]
        for agent in structure.agents
    }
    return KripkeStructure(kept, structure.agents, valuation, partitions)


def refine_agent_rebuild(
    structure: KripkeStructure,
    agent: Hashable,
    discriminator: Callable[[World], Hashable],
) -> KripkeStructure:
    """``KripkeStructure.refine_agent`` as a from-scratch rebuild (the seed code)."""
    new_classes = []
    for block in structure.partition(agent):
        by_value: Dict[Hashable, Set[World]] = {}
        for world in block:
            by_value.setdefault(discriminator(world), set()).add(world)
        new_classes.extend(frozenset(part) for part in by_value.values())
    partitions = {
        other: list(structure.partition(other))
        for other in structure.agents
        if other != agent
    }
    partitions[agent] = new_classes
    return KripkeStructure(
        structure.worlds,
        structure.agents,
        {w: structure.facts_at(w) for w in structure.worlds},
        partitions,
    )


def bisimulation_classes_fixpoint(
    structure: KripkeStructure,
) -> Set[FrozenSet[World]]:
    """The seed's fixed-point bisimulation refinement (global re-signature passes).

    The oracle for :func:`repro.kripke.bisimulation.bisimulation_classes`: each
    pass recomputes every world's signature — its current block plus, per
    agent, the set of blocks its equivalence class meets — until the block
    count stops growing.
    """
    block_of: Dict[World, int] = {}
    signature_to_block: Dict[Hashable, int] = {}
    for world in structure.worlds:
        signature = structure.facts_at(world)
        block_of[world] = signature_to_block.setdefault(
            signature, len(signature_to_block)
        )
    agents = sorted(structure.agents, key=repr)
    changed = True
    while changed:
        signature_to_block = {}
        new_block_of: Dict[World, int] = {}
        for world in structure.worlds:
            neighbour_blocks = tuple(
                frozenset(
                    block_of[neighbour]
                    for neighbour in structure.equivalence_class(agent, world)
                )
                for agent in agents
            )
            signature = (block_of[world], neighbour_blocks)
            new_block_of[world] = signature_to_block.setdefault(
                signature, len(signature_to_block)
            )
        changed = len(set(new_block_of.values())) != len(set(block_of.values()))
        block_of = new_block_of
    blocks: Dict[int, Set[World]] = {}
    for world, block in block_of.items():
        blocks.setdefault(block, set()).add(world)
    return {frozenset(members) for members in blocks.values()}
