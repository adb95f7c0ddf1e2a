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
A structure is built in one of two forms.

* From *class ids*: per agent, one small integer per world, equal exactly for
  the worlds the agent cannot tell apart.  Most of :mod:`repro.kripke.builders`
  compute them arithmetically and hand them to
  :meth:`KripkeStructure._from_class_ids`, as do the bisimulation quotient and
  the Kripke export of a system; the public constructor validates its partition
  blocks and interns them into ids.  Either way one pass per agent groups the
  ids into the partition masks and the per-world class masks the bitset engine
  backend consumes, under the ``repr``-sorted world numbering.
* As a *cube* (:meth:`KripkeStructure._from_cube`, the muddy children): world
  ``p`` is the ``p``-th boolean tuple, and each agent's classes are the
  subcubes over the index bits it cannot see
  (:class:`~repro.engine.universe.Hypercube`).  No block mask is stored; the
  bitset backend evaluates knowledge with shift-and-mask closures, and the
  worlds, the valuation and the masks the public accessors return are built
  from the cube only when one of them is called.

The frozenset view of the partitions is materialised only when a
frozenset-level accessor asks for it.

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
updates evaluated on the bitset engine backend never leaves bitmask space.  A
cube structure restricts by shrinking its survivor mask ``S`` under the
unchanged root numbering, with no remapping at all.  The
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
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.universe import (
    Hypercube,
    IndexedUniverse,
    MaskCompressor,
    class_ids_from_blocks,
    partition_from_class_ids,
    reachability_components,
    select_bits,
)
from repro.errors import ModelError, UnknownAgentError, UnknownWorldError
from repro.logic.agents import Agent, Group, GroupLike, as_group

__all__ = ["World", "KripkeStructure", "EvaluationMasks"]

World = Hashable
"""Worlds may be any hashable value (strings, tuples, frozensets...)."""


class EvaluationMasks(NamedTuple):
    """A structure in the form :class:`repro.engine.EvaluationEngine` takes.

    ``universe`` numbers the worlds and ``full`` marks the structure's own
    worlds in that numbering; every mask below is in it.  ``blocks`` and
    ``class_at`` map each agent to its partition masks and per-position class
    masks; they are computed on first lookup, so a backend that does not
    read them costs nothing.  ``cube`` is the hidden-bit form of the same
    partitions, when the structure has one; the class masks are then left
    empty, since only the bitset backend reads them, and only without a cube.
    """

    universe: IndexedUniverse
    full: int
    blocks: Mapping[Agent, Tuple[int, ...]]
    class_at: Mapping[Agent, Tuple[int, ...]]
    cube: Optional[Hypercube]
    prop_mask: Callable[[str], int]
    component_masks: Optional[Callable[[Tuple[Agent, ...]], Tuple[int, ...]]]


class _AgentMasks(Mapping):
    """A read-only agent -> masks mapping that computes each entry on first use."""

    def __init__(self, agents: FrozenSet[Agent], compute: Callable[[Agent], Tuple[int, ...]]):
        self._agents = agents
        self._compute = compute
        self._cache: Dict[Agent, Tuple[int, ...]] = {}

    def __getitem__(self, agent: Agent) -> Tuple[int, ...]:
        masks = self._cache.get(agent)
        if masks is None:
            if agent not in self._agents:
                raise KeyError(agent)
            masks = self._cache[agent] = self._compute(agent)
        return masks

    def __contains__(self, agent: object) -> bool:
        return agent in self._agents

    def __iter__(self) -> Iterator[Agent]:
        return iter(self._agents)

    def __len__(self) -> int:
        return len(self._agents)


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
    def _from_cube(
        cls,
        agents: Iterable[Agent],
        cube: Hypercube,
        make_worlds: Callable[[], Sequence[World]],
        facts: Callable[[World], AbstractSet[str]],
        atom: Callable[[str], int],
    ) -> "KripkeStructure":
        """Trusted constructor for a hypercube-shaped structure.

        Used by :func:`repro.kripke.builders.others_attribute_model`.  World
        ``p`` is ``make_worlds()[p]``, and ``cube`` gives each agent the index
        bits it cannot see.  ``make_worlds()`` must list the worlds in
        ``repr`` order, so the public numbering is the cube's own.
        ``atom(name)`` is a proposition's extension as a mask over all
        ``2**cube.bits`` positions, and ``facts(world)`` the same valuation
        per world; the worlds, the valuation, and the block masks are only
        built when an accessor that returns them is called.
        """
        root = _CubeRoot(frozenset(agents), cube, make_worlds, facts, atom)
        return _CubeStructure(root, cube.full_mask)

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
        prop_masks_complete: bool = False,
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
        in memory.  ``prop_masks_complete`` says the cache already holds every
        name the valuation mentions.
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
        self._prop_masks_complete = prop_masks_complete
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
        self._prop_masks_complete = False
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
                universe.to_frozenset(mask) for mask in self.partition_masks(agent)
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

        The first query of a name not yet cached builds every name's mask in
        one pass over the valuation; a name the valuation never mentions has
        the empty extension.  Derived structures arrive with their parent's
        already-computed masks remapped into the cache (an AND against the
        survivor mask plus compression — see :meth:`restrict`) or share the
        parent's cache outright (refinements), so evaluators over an update
        chain get their atomic extensions for the price of a few bitwise
        operations.
        """
        cached = self._prop_mask_cache.get(name)
        if cached is None:
            if not self._prop_masks_complete:
                self._scan_prop_masks()
            cached = self._prop_mask_cache.get(name, 0)
        return cached

    def _scan_prop_masks(self) -> None:
        """Fill the proposition-mask cache with every name, in one pass."""
        valuation = self._valuation
        masks: Dict[str, int] = {}
        get = masks.get
        bit = 1
        for world in self.indexed_universe().elements:
            for name in valuation.get(world, ()):
                masks[name] = get(name, 0) | bit
            bit <<= 1
        self._prop_mask_cache.update(masks)
        self._prop_masks_complete = True

    def prop_worlds(self, name: str) -> FrozenSet[World]:
        """The set of worlds at which the primitive proposition ``name`` holds."""
        return self.indexed_universe().to_frozenset(self.prop_mask(name))

    def group_members(self, group: GroupLike) -> Tuple[Agent, ...]:
        """Validate ``group`` against this structure and return its sorted members."""
        return self._require_group(group)

    def evaluation_masks(self) -> EvaluationMasks:
        """The structure in the form the evaluation engine takes.

        Here that is the public numbering of :meth:`indexed_universe` with
        the partition masks, the cached closures and :meth:`prop_mask`.
        """
        universe = self.indexed_universe()
        return EvaluationMasks(
            universe,
            universe.full_mask,
            _AgentMasks(self._agents, self.partition_masks),
            _AgentMasks(self._agents, self.class_masks_in_order),
            None,
            self.prop_mask,
            self.component_masks,
        )

    # -- derived structures ------------------------------------------------------
    def restrict(self, worlds: AbstractSet[World]) -> "KripkeStructure":
        """The substructure induced by ``worlds``.

        This is the semantic effect of a truthful public announcement: all worlds
        where the announced fact fails are discarded, and the agents' relations are
        restricted accordingly (Section 2 / Section 10; see
        :mod:`repro.kripke.announcement`).  Worlds that are not in the
        structure are ignored; see :meth:`restrict_mask` for the construction.
        """
        universe = self.evaluation_masks().universe
        return self.restrict_mask(universe.mask_of(w for w in worlds if w in universe))

    def restrict_mask(self, mask: int) -> "KripkeStructure":
        """The substructure induced by the worlds of ``mask``.

        ``mask`` is in the numbering of :meth:`evaluation_masks` (an
        evaluator's extension mask), and its bits outside the structure are
        ignored.  The result is a *derived* structure built in bitmask space:
        every parent partition block is ANDed against the survivor mask and
        remapped onto the restricted world numbering, and proposition
        extensions are inherited from the parent via the same remapping.
        Restricting to the full world set returns the structure itself
        (structures are immutable).
        """
        parent_universe = self.indexed_universe()
        survivor = mask & parent_universe.full_mask
        if not survivor:
            raise ModelError("cannot restrict a structure to an empty set of worlds")
        if survivor == parent_universe.full_mask:
            return self
        child_universe, compressor = parent_universe.subuniverse(survivor)
        partition_masks: Dict[Agent, Tuple[int, ...]] = {}
        for agent in self._agents:
            blocks: List[int] = []
            for block in self.partition_masks(agent):
                alive = block & survivor
                if alive:
                    blocks.append(compressor.compress(alive))
            partition_masks[agent] = tuple(blocks)
        kept = frozenset(child_universe.elements)
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
            prop_masks_complete=self._prop_masks_complete,
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
        targets = self._require_agents(agents)
        # Group worlds by discriminator value once; blocks split along these ids.
        ids: Dict[Hashable, int] = {}
        value_ids = [
            ids.setdefault(discriminator(world), len(ids))
            for world in self.indexed_universe().elements
        ]
        return self._refined(targets, partition_from_class_ids(value_ids)[1])

    def _refine_by_masks(
        self, agents: Iterable[Agent], masks: Sequence[int]
    ) -> "KripkeStructure":
        """:meth:`refine_agents` by membership in each of ``masks``.

        The masks are in the numbering of :meth:`evaluation_masks` (an
        evaluator's extension masks, such as one round's public answers).
        The universe is split into ``part & m`` and ``part & ~m`` by every
        mask in turn, and each target block along those classes: the same
        partitions, in the same order, as :meth:`refine_agents` with the
        discriminator "which masks contain the world", with no per-world call.
        """
        targets = self._require_agents(agents)
        universe = self.indexed_universe()
        classes = [universe.full_mask]
        for mask in map(self._public_mask, masks):
            classes = [
                part for whole in classes for part in (whole & mask, whole & ~mask) if part
            ]
        class_ids = class_ids_from_blocks(classes, len(universe))
        return self._refined(targets, [classes[class_id] for class_id in class_ids])

    def _public_mask(self, mask: int) -> int:
        """An :meth:`evaluation_masks` mask in the numbering of :meth:`indexed_universe`."""
        return mask & self.indexed_universe().full_mask

    def _require_agents(self, agents: Iterable[Agent]) -> Set[Agent]:
        targets: Set[Agent] = set()
        for agent in agents:
            self._require_agent(agent)
            targets.add(agent)
        return targets

    def _refined(self, targets: Set[Agent], class_at: Sequence[int]) -> "KripkeStructure":
        """The derived structure in which every block of the ``targets`` is
        split along the classes of a partition of the universe.

        ``class_at`` gives the class mask of every bit position.  Each block
        splits into its intersections with the classes, ordered by lowest set
        bit, so a block inside one class costs one lookup and one AND.  The
        structure itself is returned when no block splits.  The world
        numbering is unchanged, so the untargeted agents' masks and the
        proposition-mask cache are shared with this structure.
        """
        partition_masks: Dict[Agent, Tuple[int, ...]] = {}
        changed = False
        for agent in self._agents:
            blocks = self.partition_masks(agent)
            if agent not in targets:
                partition_masks[agent] = blocks
                continue
            new_blocks: List[int] = []
            append = new_blocks.append
            for block in blocks:
                if not block & (block - 1):  # singletons cannot split
                    append(block)
                    continue
                rest = block
                while rest:
                    part = rest & class_at[(rest & -rest).bit_length() - 1]
                    append(part)
                    rest ^= part
                changed = changed or part != block
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
            self.indexed_universe(),
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


class _CubeRoot:
    """What every structure restricted from one hypercube model shares."""

    def __init__(
        self,
        agents: FrozenSet[Agent],
        cube: Hypercube,
        make_worlds: Callable[[], Sequence[World]],
        facts: Callable[[World], AbstractSet[str]],
        atom: Callable[[str], int],
    ):
        self.agents = agents
        self.cube = cube
        self.facts = facts
        self.atom = atom
        self._make_worlds = make_worlds
        self._universe: Optional[IndexedUniverse] = None

    def universe(self) -> IndexedUniverse:
        """Every position's world, in cube order (built on first use)."""
        if self._universe is None:
            self._universe = IndexedUniverse(self._make_worlds())
        return self._universe


class _CubeStructure(KripkeStructure):
    """A hypercube-shaped structure: the muddy children and their restrictions.

    Worlds are numbered by cube position, and agent ``a``'s classes are the
    subcubes over its hidden bits (:class:`~repro.engine.universe.Hypercube`),
    cut down to the survivor mask ``S`` of the public announcements made so
    far.  Evaluation runs on the root numbering with ``S`` as the universe's
    full mask (:meth:`evaluation_masks`), and :meth:`restrict_mask` only
    shrinks ``S``.

    The public accessors answer exactly as a generic structure over the same
    worlds would: the worlds, the valuation, the ``repr``-ordered universe of
    the survivors, their block masks and proposition masks are built from
    the cube on first use, and the inherited methods (``refine_agents``,
    ``with_valuation``, ``__eq__``...) read them as usual.
    """

    def __init__(self, root: _CubeRoot, survivors: int):
        self._root = root
        self._survivors = survivors
        self._agents = root.agents
        self._classes = None
        self._class_of = None
        self._partition_mask_cache = {}
        self._class_mask_order_cache = {}
        self._component_mask_cache = {}
        self._prop_mask_cache = {}
        self._prop_masks_complete = False
        self._lazy_worlds: Optional[FrozenSet[World]] = None
        self._lazy_valuation: Optional[Dict[World, FrozenSet[str]]] = None
        self._lazy_indexed: Optional[IndexedUniverse] = None
        self._compressor: Optional[MaskCompressor] = None

    # The generic fields the inherited methods read, built on first use.
    @property
    def _worlds(self) -> FrozenSet[World]:
        if self._lazy_worlds is None:
            self._lazy_worlds = frozenset(self.indexed_universe().elements)
        return self._lazy_worlds

    @property
    def _valuation(self) -> Dict[World, FrozenSet[str]]:
        if self._lazy_valuation is None:
            facts = self._root.facts
            self._lazy_valuation = {
                world: frozenset(facts(world)) for world in self.indexed_universe()
            }
        return self._lazy_valuation

    @property
    def _indexed(self) -> IndexedUniverse:
        if self._lazy_indexed is None:
            root = self._root.universe()
            if self._survivors == root.full_mask:
                self._lazy_indexed = root
            else:
                self._lazy_indexed = IndexedUniverse(root.elements_of(self._survivors))
        return self._lazy_indexed

    def _survivor_positions(self) -> List[int]:
        return list(select_bits(range(self._survivors.bit_length()), self._survivors))

    def _compress(self, mask: int) -> int:
        if self._survivors == self._root.cube.full_mask:
            return mask
        if self._compressor is None:
            self._compressor = MaskCompressor(self._survivors)
        return self._compressor.compress(mask)

    def __len__(self) -> int:
        return IndexedUniverse.count(self._survivors)

    # -- public masks, in the numbering of indexed_universe() -------------------
    def partition_masks(self, agent: Agent) -> Tuple[int, ...]:
        """``agent``'s indistinguishability classes as bitmasks (a disjoint cover)."""
        self._require_agent(agent)
        cached = self._partition_mask_cache.get(agent)
        if cached is None:
            # A survivor's class id is its position with the hidden bits
            # cleared; grouped in survivor order that is the public numbering.
            kept = ~self._root.cube.hidden[agent]
            cached, order = partition_from_class_ids(
                [position & kept for position in self._survivor_positions()]
            )
            self._partition_mask_cache[agent] = cached
            self._class_mask_order_cache[agent] = order
        return cached

    def prop_mask(self, name: str) -> int:
        """The extension of the primitive proposition ``name`` as a bitmask."""
        cached = self._prop_mask_cache.get(name)
        if cached is None:
            cached = self._prop_mask_cache[name] = self._compress(
                self._root.atom(name) & self._survivors
            )
        return cached

    # -- evaluation and announcements, in the cube numbering ------------------
    def evaluation_masks(self) -> EvaluationMasks:
        """The cube, the root numbering and the survivor mask ``S`` as ``full``.

        The block masks handed over are in the root numbering too, restricted
        to ``S``; only a backend that reads them (the frozenset oracle) builds
        them.  No backend reads class masks next to a cube, so there are none.
        """
        return EvaluationMasks(
            self._root.universe(),
            self._survivors,
            _AgentMasks(self._agents, self._root_blocks),
            {},
            self._root.cube,
            self._root_prop_mask,
            None,
        )

    def restrict_mask(self, mask: int) -> "KripkeStructure":
        """The substructure induced by the worlds of ``mask`` (cube numbering).

        It shares the cube and the root numbering: only ``S`` shrinks.
        """
        survivors = mask & self._survivors
        if not survivors:
            raise ModelError("cannot restrict a structure to an empty set of worlds")
        if survivors == self._survivors:
            return self
        return _CubeStructure(self._root, survivors)

    def _public_mask(self, mask: int) -> int:
        """A cube-numbering mask in the compressed public numbering."""
        return self._compress(mask & self._survivors)

    def _root_prop_mask(self, name: str) -> int:
        return self._root.atom(name) & self._survivors

    def _root_blocks(self, agent: Agent) -> Tuple[int, ...]:
        kept = ~self._root.cube.hidden[agent]
        blocks: Dict[int, int] = {}
        for position in self._survivor_positions():
            class_id = position & kept
            blocks[class_id] = blocks.get(class_id, 0) | 1 << position
        return tuple(blocks.values())
