"""Finite S5 Kripke structures.

Section 6 of the paper observes that the graph whose nodes are the points of a system,
with an edge labelled ``p_i`` between two points whenever processor ``p_i`` has the
same view at both, is "very closely related to Kripke structures".  This module
provides that abstraction directly: a finite set of worlds, a valuation of primitive
propositions at each world, and one *equivalence relation* per agent (S5 semantics —
the relations arise from "has the same view", which is reflexive, symmetric and
transitive).

Relations are stored as partitions (lists of equivalence classes), which keeps the
S5 property true by construction and makes the common-knowledge reachability
computation a cheap union-find style pass.

Construction
------------
Every structure is built from *class ids*: per agent, one small integer per world,
equal exactly for the worlds the agent cannot tell apart.
:mod:`repro.kripke.builders` compute them arithmetically and hand them to
:meth:`KripkeStructure._from_class_ids`, as do the bisimulation quotient and the
Kripke export of a system; the public constructor validates its
partition blocks and interns them into ids.  Either way one pass per
agent groups the ids into the partition masks and the per-world class masks the
bitset engine backend consumes, under the ``repr``-sorted world numbering.  The
frozenset view of the partitions is materialised only when a frozenset-level
accessor asks for it.

Derived structures
------------------
Model *updates* — a public announcement restricting the worlds, an agent privately
learning an observable — produce structures that differ from their parent in a
controlled way.  :meth:`KripkeStructure.restrict` and
:meth:`KripkeStructure.refine_agents` therefore construct *derived* structures in
bitmask space: a restriction is an AND of every parent partition block against the
survivor mask (remapped through a :class:`~repro.engine.universe.MaskCompressor`),
a refinement splits blocks in place under the unchanged world numbering, and
proposition extensions are remapped rather than rescanned.  Derived structures skip
the constructor's validation (their invariants hold by construction), so a chain of
updates evaluated on the bitset engine backend never leaves bitmask space.  The
differential tests in ``tests/test_derived_structures.py`` and
``tests/test_class_id_construction.py`` pin derived and class-id-built structures
to be observably identical to the seed's from-scratch rebuilds
(:mod:`repro.kripke.reference`).
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.universe import (
    IndexedUniverse,
    partition_from_class_ids,
    reachability_components,
)
from repro.errors import ModelError, UnknownAgentError, UnknownWorldError
from repro.logic.agents import Agent, Group, GroupLike, as_group

__all__ = ["World", "KripkeStructure"]

World = Hashable
"""Worlds may be any hashable value (strings, tuples, frozensets...)."""


class KripkeStructure:
    """A finite Kripke structure with an equivalence relation per agent.

    Parameters
    ----------
    worlds:
        The (non-empty) set of possible worlds.
    agents:
        The agents of the structure.
    valuation:
        Maps each world to the set of primitive-proposition *names* true at it.
        Worlds missing from the mapping are treated as satisfying no propositions.
    partitions:
        For each agent, a partition of the worlds into indistinguishability classes.
        Worlds not mentioned in an agent's partition are treated as singleton classes
        (the agent can distinguish them from everything else).

    Two worlds are indistinguishable to an agent exactly when they lie in the same
    class of that agent's partition.

    Examples
    --------
    A two-world structure where agent ``a`` cannot tell whether ``p`` holds::

        >>> m = KripkeStructure(
        ...     worlds={"w0", "w1"},
        ...     agents={"a"},
        ...     valuation={"w1": {"p"}},
        ...     partitions={"a": [{"w0", "w1"}]},
        ... )
        >>> m.indistinguishable("a", "w0", "w1")
        True
    """

    def __init__(
        self,
        worlds: Iterable[World],
        agents: Iterable[Agent],
        valuation: Mapping[World, AbstractSet[str]],
        partitions: Mapping[Agent, Iterable[AbstractSet[World]]],
    ):
        self._set_worlds_agents_valuation(worlds, agents, valuation)
        world_list = list(self._worlds)
        class_ids = {
            agent: self._intern_blocks(agent, partitions.get(agent, []), world_list)
            for agent in self._agents
        }
        unknown_agents = set(partitions) - set(self._agents)
        if unknown_agents:
            raise UnknownAgentError(
                f"partitions mention unknown agents: {sorted(map(repr, unknown_agents))}"
            )
        self._install_class_ids(world_list, class_ids)

    @classmethod
    def _from_class_ids(
        cls,
        worlds: Sequence[World],
        agents: Iterable[Agent],
        valuation: Mapping[World, AbstractSet[str]],
        class_ids: Mapping[Agent, Sequence[int]],
    ) -> "KripkeStructure":
        """Trusted constructor from per-agent class ids.

        Used by the builders of :mod:`repro.kripke.builders`, by
        :func:`repro.kripke.bisimulation.quotient` and by
        :meth:`repro.systems.interpretation.ViewBasedInterpretation.to_kripke`.

        ``class_ids[agent][k]`` is a small integer naming ``agent``'s view at
        ``worlds[k]``: two worlds are indistinguishable to the agent exactly when
        their ids are equal.  The builders compute the ids by arithmetic on the
        world's index (child ``i`` of the muddy children cannot tell ``w`` from
        ``w ^ e_i``, so its id is the index with the child's bit cleared).  The
        caller guarantees distinct ``worlds`` and one id per world for every
        agent; the worlds may come in any order, and the bit numbering is still
        the ``repr``-sorted :meth:`indexed_universe`.
        """
        self = cls.__new__(cls)
        self._set_worlds_agents_valuation(worlds, agents, valuation)
        self._install_class_ids(worlds, class_ids)
        return self

    @classmethod
    def _derived(
        cls,
        worlds: FrozenSet[World],
        agents: FrozenSet[Agent],
        valuation: Dict[World, FrozenSet[str]],
        indexed: IndexedUniverse,
        partition_masks: Mapping[Agent, Tuple[int, ...]],
        *,
        classes: Optional[Dict[Agent, Tuple[FrozenSet[World], ...]]] = None,
        class_of: Optional[Dict[Agent, Dict[World, FrozenSet[World]]]] = None,
        class_mask_orders: Optional[Dict[Agent, Tuple[int, ...]]] = None,
        component_masks: Optional[Dict[Tuple[Agent, ...], Tuple[int, ...]]] = None,
        prop_masks: Optional[Dict[str, int]] = None,
    ) -> "KripkeStructure":
        """Trusted constructor for structures derived from an existing one.

        Skips the public constructor's validation — the caller guarantees the
        invariants (disjoint covering partitions, valuation over the worlds) hold
        by construction.  The frozenset view of the partitions is *not* built
        here; it materialises lazily from the masks on first use
        (:meth:`_ensure_partitions`).

        ``prop_masks`` is stored *by reference*: same-universe derivations (e.g.
        refinements) deliberately share one proposition-mask cache with their
        parent, because proposition extensions depend only on the universe and
        the valuation, both unchanged.  No reference to the parent structure
        itself is kept, so an update chain does not pin its intermediate models
        in memory.
        """
        self = cls.__new__(cls)
        self._worlds = worlds
        self._agents = agents
        self._valuation = valuation
        self._class_of = class_of
        self._classes = classes
        self._indexed = indexed
        self._partition_mask_cache = dict(partition_masks)
        self._class_mask_order_cache = dict(class_mask_orders) if class_mask_orders else {}
        self._component_mask_cache = dict(component_masks) if component_masks else {}
        self._prop_mask_cache = prop_masks if prop_masks is not None else {}
        return self

    def _set_worlds_agents_valuation(
        self,
        worlds: Iterable[World],
        agents: Iterable[Agent],
        valuation: Mapping[World, AbstractSet[str]],
    ) -> None:
        self._worlds: FrozenSet[World] = frozenset(worlds)
        if not self._worlds:
            raise ModelError("a Kripke structure needs at least one world")
        self._agents: FrozenSet[Agent] = frozenset(agents)
        if not self._agents:
            raise ModelError("a Kripke structure needs at least one agent")
        self._valuation: Dict[World, FrozenSet[str]] = {}
        for world, facts in valuation.items():
            if world not in self._worlds:
                raise UnknownWorldError(f"valuation mentions unknown world {world!r}")
            self._valuation[world] = frozenset(facts)

    def _intern_blocks(
        self,
        agent: Agent,
        blocks: Iterable[AbstractSet[World]],
        world_list: Sequence[World],
    ) -> List[int]:
        """Validate ``agent``'s blocks and number them, aligned with ``world_list``.

        Block ``j`` (empty blocks skipped) gets id ``j``; worlds no block mentions
        get fresh ids of their own, so the agent distinguishes them.
        """
        class_id: Dict[World, int] = {}
        next_id = 0
        for block in blocks:
            block = frozenset(block)
            if not block:
                continue
            stray = block - self._worlds
            if stray:
                raise UnknownWorldError(
                    f"partition for agent {agent!r} mentions unknown worlds {sorted(map(repr, stray))}"
                )
            overlap = [world for world in block if world in class_id]
            if overlap:
                raise ModelError(
                    f"partition for agent {agent!r} is not disjoint: "
                    f"worlds {sorted(map(repr, overlap))} appear twice"
                )
            class_id.update(dict.fromkeys(block, next_id))
            next_id += 1
        ids: List[int] = []
        for world in world_list:
            found = class_id.get(world)
            if found is None:
                found = next_id
                next_id += 1
            ids.append(found)
        return ids

    def _install_class_ids(
        self, world_list: Sequence[World], class_ids: Mapping[Agent, Sequence[int]]
    ) -> None:
        """Number the worlds and group every agent's class ids into masks.

        The ids are permuted into bit-position order and grouped by
        :func:`~repro.engine.universe.partition_from_class_ids`, which yields
        the partition masks (ordered by class id) and the per-world class
        masks :meth:`class_masks_in_order` serves.  The frozenset view of the
        partitions is left to :meth:`_ensure_partitions`.
        """
        keys = [repr(world) for world in world_list]
        order = sorted(range(len(world_list)), key=keys.__getitem__)
        self._indexed = IndexedUniverse([world_list[k] for k in order])
        self._classes = None
        self._class_of = None
        self._partition_mask_cache = {}
        self._class_mask_order_cache = {}
        self._component_mask_cache = {}
        self._prop_mask_cache = {}
        for agent in self._agents:
            blocks, class_at = partition_from_class_ids(
                list(map(class_ids[agent].__getitem__, order))
            )
            self._partition_mask_cache[agent] = blocks
            self._class_mask_order_cache[agent] = class_at

    def _ensure_partitions(self) -> None:
        """Materialise the frozenset view of the partitions from the masks.

        Structures carry only bitmasks until a frozenset-level accessor
        (``partition``, ``equivalence_class``, ``__eq__``...)
        is used; evaluation that stays on the bitset backend never pays for
        this conversion.
        """
        if self._classes is not None:
            return
        universe = self.indexed_universe()
        classes: Dict[Agent, Tuple[FrozenSet[World], ...]] = {}
        class_of: Dict[Agent, Dict[World, FrozenSet[World]]] = {}
        for agent in self._agents:
            blocks = tuple(
                universe.to_frozenset(mask)
                for mask in self._partition_mask_cache[agent]
            )
            classes[agent] = blocks
            class_map: Dict[World, FrozenSet[World]] = {}
            for block in blocks:
                for world in block:
                    class_map[world] = block
            class_of[agent] = class_map
        self._classes = classes
        self._class_of = class_of

    # -- basic accessors -------------------------------------------------------
    @property
    def worlds(self) -> FrozenSet[World]:
        """The worlds of the structure."""
        return self._worlds

    @property
    def agents(self) -> FrozenSet[Agent]:
        """The agents of the structure."""
        return self._agents

    def facts_at(self, world: World) -> FrozenSet[str]:
        """The primitive propositions true at ``world``."""
        self._require_world(world)
        return self._valuation.get(world, frozenset())

    def holds_at(self, proposition: str, world: World) -> bool:
        """Whether the primitive proposition named ``proposition`` is true at ``world``."""
        return proposition in self.facts_at(world)

    def propositions(self) -> FrozenSet[str]:
        """Every proposition name appearing in the valuation."""
        names: Set[str] = set()
        for facts in self._valuation.values():
            names.update(facts)
        return frozenset(names)

    def partition(self, agent: Agent) -> Tuple[FrozenSet[World], ...]:
        """The indistinguishability classes of ``agent``."""
        self._require_agent(agent)
        self._ensure_partitions()
        return self._classes[agent]

    def equivalence_class(self, agent: Agent, world: World) -> FrozenSet[World]:
        """The worlds ``agent`` cannot distinguish from ``world`` (including it)."""
        self._require_agent(agent)
        self._require_world(world)
        self._ensure_partitions()
        return self._class_of[agent][world]

    def indistinguishable(self, agent: Agent, world_a: World, world_b: World) -> bool:
        """Whether ``agent`` has the same view at ``world_a`` and ``world_b``."""
        return world_b in self.equivalence_class(agent, world_a)

    # -- group relations -------------------------------------------------------
    def joint_class(self, group: GroupLike, world: World) -> FrozenSet[World]:
        """Worlds indistinguishable from ``world`` by *every* member of ``group``.

        This is the intersection used to define distributed knowledge ``D_G``
        (Section 6, clause (g)).
        """
        members = self._require_group(group)
        self._require_world(world)
        position = self.indexed_universe().index_of(world)
        result: Optional[int] = None
        for agent in members:
            mask = self.class_masks_in_order(agent)[position]
            result = mask if result is None else result & mask
        assert result is not None  # groups are non-empty
        return self.indexed_universe().to_frozenset(result)

    def reachable(self, group: GroupLike, world: World) -> FrozenSet[World]:
        """Worlds G-reachable from ``world`` in any finite number of steps.

        A world is G-reachable when it can be reached by a path each of whose edges is
        an indistinguishability link of *some* member of ``group`` (Section 6).  Common
        knowledge of ``phi`` holds at ``world`` exactly if ``phi`` holds at every
        G-reachable world.
        """
        members = self._require_group(group)
        self._require_world(world)
        bit = self.indexed_universe().bit(world)
        for component in self.component_masks(Group(members)):
            if component & bit:
                return self.indexed_universe().to_frozenset(component)
        raise AssertionError("every world lies in some component")  # pragma: no cover

    def reachable_within(
        self, group: GroupLike, world: World, steps: int
    ) -> FrozenSet[World]:
        """Worlds G-reachable from ``world`` in at most ``steps`` steps.

        ``E^k_G phi`` holds at ``world`` iff ``phi`` holds at every world G-reachable
        in at most ``k`` steps (Section 6).
        """
        if steps < 0:
            raise ModelError("steps must be non-negative")
        members = self._require_group(group)
        self._require_world(world)
        universe = self.indexed_universe()
        class_orders = [self.class_masks_in_order(agent) for agent in members]
        current = universe.bit(world)
        for _ in range(steps):
            nxt = current
            remaining = current
            while remaining:
                low = remaining & -remaining
                position = low.bit_length() - 1
                remaining ^= low
                for order in class_orders:
                    nxt |= order[position]
            if nxt == current:
                break
            current = nxt
        return universe.to_frozenset(current)

    def connected_components(self, group: GroupLike) -> Tuple[FrozenSet[World], ...]:
        """The partition of the worlds into G-reachability components."""
        universe = self.indexed_universe()
        return tuple(
            universe.to_frozenset(mask) for mask in self.component_masks(group)
        )

    # -- indexing and bitmask views ----------------------------------------------
    # These accessors expose the structure to the bitset evaluation backend of
    # :mod:`repro.engine`: worlds get stable bit positions, and partitions / group
    # reachability closures become integer masks.  The numbering and the
    # partition masks exist from construction; the rest is computed lazily and
    # cached, which is sound because structures are immutable.  Derived
    # structures (restrictions / refinements) arrive with these caches already
    # populated by remapping from their parent.

    def indexed_universe(self) -> IndexedUniverse:
        """The world <-> bit-position numbering (worlds ordered by ``repr``)."""
        return self._indexed

    def world_order(self) -> Tuple[World, ...]:
        """The worlds in their deterministic bit-position order."""
        return self.indexed_universe().elements

    def world_index(self, world: World) -> int:
        """The bit position assigned to ``world``."""
        self._require_world(world)
        return self.indexed_universe().index_of(world)

    def world_mask(self, worlds: Iterable[World]) -> int:
        """The bitmask whose set bits are exactly ``worlds``."""
        universe = self.indexed_universe()
        mask = 0
        for world in worlds:
            self._require_world(world)
            mask |= universe.bit(world)
        return mask

    def worlds_from_mask(self, mask: int) -> FrozenSet[World]:
        """The set of worlds encoded by ``mask``."""
        return self.indexed_universe().to_frozenset(mask)

    def partition_masks(self, agent: Agent) -> Tuple[int, ...]:
        """``agent``'s indistinguishability classes as bitmasks (a disjoint cover)."""
        self._require_agent(agent)
        return self._partition_mask_cache[agent]

    def class_mask(self, agent: Agent, world: World) -> int:
        """The bitmask of ``agent``'s equivalence class of ``world``."""
        self._require_agent(agent)
        self._require_world(world)
        position = self.indexed_universe().index_of(world)
        return self.class_masks_in_order(agent)[position]

    def class_masks_in_order(self, agent: Agent) -> Tuple[int, ...]:
        """``agent``'s class masks, one per world, in bit-position order.

        ``class_masks_in_order(a)[i]`` is the mask of ``a``'s equivalence class of
        ``world_order()[i]`` — the layout the bitset evaluation backend consumes.
        """
        self._require_agent(agent)
        cached = self._class_mask_order_cache.get(agent)
        if cached is None:
            order = [0] * len(self.indexed_universe())
            for block in self.partition_masks(agent):
                remaining = block
                while remaining:
                    low = remaining & -remaining
                    order[low.bit_length() - 1] = block
                    remaining ^= low
            cached = tuple(order)
            self._class_mask_order_cache[agent] = cached
        return cached

    def component_masks(self, group: GroupLike) -> Tuple[int, ...]:
        """The G-reachability components of ``group`` as bitmasks.

        ``C_G phi`` holds on exactly the union of the components contained in the
        extension of ``phi`` (Section 6).  Components are the connected components
        of the union of the members' partitions
        (:func:`~repro.engine.universe.reachability_components`).
        """
        members = self._require_group(group)
        cached = self._component_mask_cache.get(members)
        if cached is None:
            cached = reachability_components(
                [self.class_masks_in_order(agent) for agent in members]
            )
            self._component_mask_cache[members] = cached
        return cached

    def prop_mask(self, name: str) -> int:
        """The extension of the primitive proposition ``name`` as a bitmask.

        Masks are cached.  Derived structures arrive with their parent's
        already-computed masks remapped into the cache (an AND against the
        survivor mask plus compression — see :meth:`restrict`) or share the
        parent's cache outright (refinements), so evaluators over an update
        chain get their atomic extensions for the price of a few bitwise
        operations; only propositions never touched before the update are
        scanned from the valuation.
        """
        cached = self._prop_mask_cache.get(name)
        if cached is None:
            valuation = self._valuation
            cached = 0
            bit = 1
            for world in self.indexed_universe().elements:
                facts = valuation.get(world)
                if facts and name in facts:
                    cached |= bit
                bit <<= 1
            self._prop_mask_cache[name] = cached
        return cached

    def prop_worlds(self, name: str) -> FrozenSet[World]:
        """The set of worlds at which the primitive proposition ``name`` holds."""
        return self.indexed_universe().to_frozenset(self.prop_mask(name))

    def group_members(self, group: GroupLike) -> Tuple[Agent, ...]:
        """Validate ``group`` against this structure and return its sorted members."""
        return self._require_group(group)

    # -- derived structures ------------------------------------------------------
    def restrict(self, worlds: AbstractSet[World]) -> "KripkeStructure":
        """The substructure induced by ``worlds``.

        This is the semantic effect of a truthful public announcement: all worlds
        where the announced fact fails are discarded, and the agents' relations are
        restricted accordingly (Section 2 / Section 10; see
        :mod:`repro.kripke.announcement`).

        The result is a *derived* structure built in bitmask space: every parent
        partition block is ANDed against the survivor mask and remapped onto the
        restricted world numbering, and proposition extensions are inherited from
        the parent via the same remapping.  Restricting to the full world set
        returns the structure itself (structures are immutable).
        """
        kept = frozenset(worlds) & self._worlds
        if not kept:
            raise ModelError("cannot restrict a structure to an empty set of worlds")
        if kept == self._worlds:
            return self
        parent_universe = self.indexed_universe()
        survivor = parent_universe.mask_of(kept)
        child_universe, compressor = parent_universe.subuniverse(survivor)
        partition_masks: Dict[Agent, Tuple[int, ...]] = {}
        for agent in self._agents:
            blocks: List[int] = []
            for block in self.partition_masks(agent):
                alive = block & survivor
                if alive:
                    blocks.append(compressor.compress(alive))
            partition_masks[agent] = tuple(blocks)
        valuation = {
            world: facts for world, facts in self._valuation.items() if world in kept
        }
        # Inherit the parent's already-computed proposition masks by remapping;
        # props first queried after the restriction fall back to a valuation
        # scan, so no reference to the parent needs to be retained.
        prop_masks = {
            name: compressor.compress(mask)
            for name, mask in self._prop_mask_cache.items()
        }
        return KripkeStructure._derived(
            kept,
            self._agents,
            valuation,
            child_universe,
            partition_masks,
            prop_masks=prop_masks,
        )

    def refine_agent(
        self, agent: Agent, discriminator: Callable[[World], Hashable]
    ) -> "KripkeStructure":
        """Refine ``agent``'s partition so worlds with different ``discriminator``
        values become distinguishable.

        This models an agent privately learning the value of an observable (for
        example, a child being told privately whether its own forehead is muddy).
        Other agents' relations are unchanged.
        """
        self._require_agent(agent)
        return self.refine_agents((agent,), discriminator)

    def refine_agents(
        self,
        agents: Iterable[Agent],
        discriminator: Callable[[World], Hashable],
    ) -> "KripkeStructure":
        """Refine several agents' partitions by ``discriminator`` in one pass.

        This is the update of a *public* observable (e.g. the muddy children's
        simultaneous answer vector): every listed agent becomes able to
        distinguish worlds with different discriminator values.  The refinement
        happens in bitmask space under the unchanged world numbering — each
        target block is split by the discriminator's value masks — and the
        untargeted agents' masks (plus the proposition-mask cache, which depends
        only on the unchanged universe and valuation) are shared with the parent.

        Refining every agent at once is equivalent to, and much cheaper than,
        chaining :meth:`refine_agent` per agent.
        """
        targets: Set[Agent] = set()
        for agent in agents:
            self._require_agent(agent)
            targets.add(agent)
        universe = self.indexed_universe()
        # Group worlds by discriminator value once; blocks split along these ids.
        value_ids: List[int] = []
        ids: Dict[Hashable, int] = {}
        for world in universe.elements:
            value_ids.append(ids.setdefault(discriminator(world), len(ids)))
        partition_masks: Dict[Agent, Tuple[int, ...]] = {}
        changed = False
        for agent in self._agents:
            blocks = self.partition_masks(agent)
            if agent not in targets or len(ids) == 1:
                partition_masks[agent] = blocks
                continue
            new_blocks: List[int] = []
            for block in blocks:
                if block & (block - 1) == 0:  # singletons cannot split
                    new_blocks.append(block)
                    continue
                parts: Dict[int, int] = {}
                remaining = block
                while remaining:
                    low = remaining & -remaining
                    value = value_ids[low.bit_length() - 1]
                    parts[value] = parts.get(value, 0) | low
                    remaining ^= low
                if len(parts) == 1:
                    new_blocks.append(block)
                else:
                    new_blocks.extend(parts.values())
                    changed = True
            partition_masks[agent] = tuple(new_blocks)
        if not changed:
            return self
        shared_orders = {
            agent: order
            for agent, order in self._class_mask_order_cache.items()
            if agent not in targets
        }
        return KripkeStructure._derived(
            self._worlds,
            self._agents,
            self._valuation,
            universe,
            partition_masks,
            class_mask_orders=shared_orders,
            prop_masks=self._prop_mask_cache,
        )

    def with_valuation(
        self, valuation: Mapping[World, AbstractSet[str]]
    ) -> "KripkeStructure":
        """A copy of the structure with a different valuation."""
        new_valuation: Dict[World, FrozenSet[str]] = {}
        for world, facts in valuation.items():
            if world not in self._worlds:
                raise UnknownWorldError(f"valuation mentions unknown world {world!r}")
            new_valuation[world] = frozenset(facts)
        return KripkeStructure._derived(
            self._worlds,
            self._agents,
            new_valuation,
            self.indexed_universe(),
            {agent: self.partition_masks(agent) for agent in self._agents},
            classes=self._classes,
            class_of=self._class_of,
            class_mask_orders=dict(self._class_mask_order_cache),
            component_masks=dict(self._component_mask_cache),
        )

    # -- dunder helpers ----------------------------------------------------------
    def __contains__(self, world: World) -> bool:
        return world in self._worlds

    def __len__(self) -> int:
        return len(self._worlds)

    def __iter__(self) -> Iterator[World]:
        return iter(self._worlds)

    def __repr__(self) -> str:
        return (
            f"KripkeStructure(worlds={len(self._worlds)}, agents={len(self._agents)}, "
            f"propositions={len(self.propositions())})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        if self._worlds != other._worlds or self._agents != other._agents:
            return False
        if any(self.facts_at(w) != other.facts_at(w) for w in self._worlds):
            return False
        for agent in self._agents:
            mine = {frozenset(block) for block in self.partition(agent)}
            theirs = {frozenset(block) for block in other.partition(agent)}
            if mine != theirs:
                return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - structures are rarely hashed
        return hash((self._worlds, self._agents))

    # -- validation ----------------------------------------------------------------
    def _require_world(self, world: World) -> None:
        if world not in self._worlds:
            raise UnknownWorldError(f"unknown world {world!r}")

    def _require_agent(self, agent: Agent) -> None:
        if agent not in self._agents:
            raise UnknownAgentError(f"unknown agent {agent!r}")

    def _require_group(self, group: GroupLike) -> Tuple[Agent, ...]:
        normalised = as_group(group)
        unknown = normalised.members - self._agents
        if unknown:
            raise UnknownAgentError(
                f"group mentions unknown agents: {sorted(map(repr, unknown))}"
            )
        return normalised.sorted_members()
