"""Finite S5 Kripke structures.

Section 6 of the paper observes that the graph whose nodes are the points of a system,
with an edge labelled ``p_i`` between two points whenever processor ``p_i`` has the
same view at both, is "very closely related to Kripke structures".  This module
provides that abstraction directly: a finite set of worlds, a valuation of primitive
propositions at each world, and one *equivalence relation* per agent (S5 semantics —
the relations arise from "has the same view", which is reflexive, symmetric and
transitive).

Relations are stored as partitions, which keeps the S5 property true by
construction and makes the common-knowledge reachability computation a cheap
union-find style pass.

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
  worlds and the valuation are built from the cube only when an accessor
  asks for them.

Either build makes a *root*: the world numbering and the valuation, which
every structure derived from it shares.

Derived structures
------------------
Model *updates* — a public announcement restricting the worlds, an agent
privately learning an observable — produce structures that differ from their
parent in a controlled way.  Every structure is a survivor mask ``S`` over its
root's numbering plus a partition source (block masks in that numbering, or
the cube), so no update renumbers the worlds: :meth:`KripkeStructure.restrict`
only shrinks ``S``, a refinement splits blocks in place, and
:meth:`KripkeStructure.with_valuation` swaps the valuation.  The evaluation
engine takes the root numbering with ``S`` as its ``full`` mask
(:meth:`KripkeStructure.evaluation_masks`), so a chain of updates evaluated on
the bitset backend never leaves bitmask space.  Derived structures skip the
constructor's validation (their invariants hold by construction).

The public accessors (:meth:`~KripkeStructure.indexed_universe`,
:meth:`~KripkeStructure.partition_masks`, :meth:`~KripkeStructure.prop_mask`...)
answer in the ``repr``-ordered numbering of the survivors alone.  While ``S``
is the whole root that is the root numbering; otherwise the survivors'
masks are compressed into it (:class:`~repro.engine.universe.MaskCompressor`)
on first use.  The frozenset view of the partitions is materialised only when
a frozenset-level accessor asks for it.  The differential tests in
``tests/test_derived_structures.py`` and ``tests/test_class_id_construction.py``
pin derived and class-id-built structures to be observably identical to the
seed's from-scratch rebuilds (:mod:`repro.kripke.reference`).
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
    Union,
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

Partition = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]
"""An agent's block masks and, when already known, its per-position class masks."""


class EvaluationMasks(NamedTuple):
    """A structure in the form :class:`repro.engine.EvaluationEngine` takes.

    ``universe`` numbers the worlds and ``full`` marks the structure's own
    worlds in that numbering; every mask below is in it.  ``blocks`` and
    ``class_at`` map each agent to its partition masks and per-position class
    masks; they are computed on first lookup, so a backend that does not
    read them costs nothing.  ``cube`` is the hidden-bit form of the same
    partitions, when the structure has one; the bitset backend then reads
    neither the class masks nor ``component_masks``.
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

    def __init__(self, agents: FrozenSet[Agent], compute: Callable[[Agent], Tuple]):
        self._agents = agents
        self._compute = compute
        self._cache: Dict[Agent, Tuple] = {}

    def __getitem__(self, agent: Agent) -> Tuple:
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


class _Memo(dict):
    """A dict that computes a missing entry with ``compute`` and keeps it."""

    def __init__(self, compute: Callable):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


def _clipped(blocks: Sequence[int], survivors: int) -> Tuple[int, ...]:
    """The non-empty parts of ``blocks`` inside ``survivors``."""
    return tuple(block & survivors for block in blocks if block & survivors)


class _Root:
    """The world numbering and the valuation that a build and every
    structure derived from it share.

    ``universe`` makes the numbering on first use.  The valuation is
    ``table`` or, for a cube, the function ``facts`` the table is built from
    on first use; ``atom`` then gives a proposition's extension straight from
    the cube.  Extensions are cached by name in the root numbering
    (``prop_masks``); without ``atom`` the first miss scans the table once
    for every name.
    """

    def __init__(
        self,
        universe: Callable[[], IndexedUniverse],
        table: Optional[Dict[World, FrozenSet[str]]] = None,
        facts: Optional[Callable[[World], AbstractSet[str]]] = None,
        atom: Optional[Callable[[str], int]] = None,
    ):
        self._make_universe = universe
        self._universe: Optional[IndexedUniverse] = None
        self._table = table
        self._facts = facts
        self._atom = atom
        self.prop_masks: Dict[str, int] = {}
        self._scanned = False

    def universe(self) -> IndexedUniverse:
        """Every root world, numbered by bit position."""
        if self._universe is None:
            self._universe = self._make_universe()
        return self._universe

    def table(self) -> Dict[World, FrozenSet[str]]:
        """The propositions true at each world (absent worlds satisfy none)."""
        if self._table is None:
            facts = self._facts
            self._table = {world: frozenset(facts(world)) for world in self.universe()}
        return self._table

    def prop_mask(self, name: str) -> int:
        """The extension of ``name`` over the whole root."""
        cached = self.prop_masks.get(name)
        if cached is None:
            if self._atom is not None:
                cached = self.prop_masks[name] = self._atom(name)
            elif self._scanned:
                cached = 0
            else:
                self._scan()
                cached = self.prop_masks.get(name, 0)
        return cached

    def _scan(self) -> None:
        table = self.table()
        masks = self.prop_masks
        get = masks.get
        bit = 1
        for world in self.universe().elements:
            for name in table.get(world, ()):
                masks[name] = get(name, 0) | bit
            bit <<= 1
        self._scanned = True


class _View:
    """A structure's masks in one world numbering, each computed on first use.

    ``partition(agent)`` and ``prop(name)`` give an agent's :data:`Partition`
    and a proposition's extension in the numbering of ``universe``, in which
    ``full`` marks the structure's worlds.  The per-world class masks, when
    the partition does not bring them, and the G-reachability components
    follow from the blocks.
    """

    def __init__(
        self,
        universe: IndexedUniverse,
        full: int,
        agents: FrozenSet[Agent],
        partition: Callable[[Agent], Partition],
        prop: Callable[[str], int],
    ):
        self.universe = universe
        self.full = full
        self.partitions = _AgentMasks(agents, partition)
        self.blocks = _AgentMasks(agents, lambda agent: self.partitions[agent][0])
        self.class_at = _AgentMasks(agents, self._class_masks)
        self.props = _Memo(prop)
        self.components = _Memo(self._components)

    def _components(self, members: Tuple[Agent, ...]) -> Tuple[int, ...]:
        # A position outside ``full`` has no class: a component of its own.
        class_ats = [self.class_at[agent] for agent in members]
        return tuple(part for part in reachability_components(class_ats) if part & self.full)

    def _class_masks(self, agent: Agent) -> Tuple[int, ...]:
        blocks, class_at = self.partitions[agent]
        if class_at is not None:
            return class_at
        order = [0] * len(self.universe)
        for block in blocks:
            remaining = block
            while remaining:
                low = remaining & -remaining
                order[low.bit_length() - 1] = block
                remaining ^= low
        return tuple(order)


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
        table = self._set_worlds_agents_valuation(worlds, agents, valuation)
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
        self._install_class_ids(world_list, class_ids, table)

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
        table = self._set_worlds_agents_valuation(worlds, agents, valuation)
        self._install_class_ids(worlds, class_ids, table)
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
        self = cls.__new__(cls)
        root = _Root(lambda: IndexedUniverse(make_worlds()), facts=facts, atom=atom)
        self._setup(frozenset(agents), root, cube.full_mask, cube)
        return self

    def _setup(
        self,
        agents: FrozenSet[Agent],
        root: _Root,
        survivors: int,
        partitions: Union[Hypercube, Mapping[Agent, Partition]],
        worlds: Optional[FrozenSet[World]] = None,
    ) -> None:
        """Make this the structure of the ``survivors`` of ``root``.

        ``partitions`` is a cube or each agent's :data:`Partition` in the
        root numbering, inside ``survivors``.
        """
        self._agents = agents
        self._root = root
        self._survivors = survivors
        self._partitions = partitions
        self._cube = partitions if isinstance(partitions, Hypercube) else None
        self._worlds = worlds
        self._evaluation: Optional[_View] = None
        self._public: Optional[_View] = None
        self._classes: Optional[Dict[Agent, Tuple[FrozenSet[World], ...]]] = None
        self._class_of: Optional[Dict[Agent, Dict[World, FrozenSet[World]]]] = None

    def _derive(
        self,
        survivors: int,
        partitions: Union[Hypercube, Mapping[Agent, Partition]],
        root: Optional[_Root] = None,
    ) -> "KripkeStructure":
        """A structure over this one's root (or ``root``, which shares its numbering)."""
        derived = KripkeStructure.__new__(KripkeStructure)
        derived._setup(self._agents, root or self._root, survivors, partitions)
        return derived

    def _set_worlds_agents_valuation(
        self,
        worlds: Iterable[World],
        agents: Iterable[Agent],
        valuation: Mapping[World, AbstractSet[str]],
    ) -> Dict[World, FrozenSet[str]]:
        self._worlds: Optional[FrozenSet[World]] = frozenset(worlds)
        if not self._worlds:
            raise ModelError("a Kripke structure needs at least one world")
        self._agents: FrozenSet[Agent] = frozenset(agents)
        if not self._agents:
            raise ModelError("a Kripke structure needs at least one agent")
        return self._valuation_table(valuation)

    def _valuation_table(
        self, valuation: Mapping[World, AbstractSet[str]]
    ) -> Dict[World, FrozenSet[str]]:
        table: Dict[World, FrozenSet[str]] = {}
        for world, facts in valuation.items():
            if world not in self.worlds:
                raise UnknownWorldError(f"valuation mentions unknown world {world!r}")
            table[world] = frozenset(facts)
        return table

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
        self,
        world_list: Sequence[World],
        class_ids: Mapping[Agent, Sequence[int]],
        table: Dict[World, FrozenSet[str]],
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
        universe = IndexedUniverse([world_list[k] for k in order])
        partitions = {
            agent: partition_from_class_ids(list(map(class_ids[agent].__getitem__, order)))
            for agent in self._agents
        }
        root = _Root(lambda: universe, table)
        self._setup(self._agents, root, universe.full_mask, partitions, self._worlds)

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

    # -- the two numberings --------------------------------------------------------
    def _evaluation_view(self) -> _View:
        """The masks in the root numbering, cut down to the survivors."""
        if self._evaluation is None:
            root = self._root
            survivors = self._survivors
            self._evaluation = _View(
                root.universe(),
                survivors,
                self._agents,
                self._root_partition,
                lambda name: root.prop_mask(name) & survivors,
            )
        return self._evaluation

    def _root_partition(self, agent: Agent) -> Partition:
        if self._cube is None:
            return self._partitions[agent]
        partition = partition_from_class_ids(self._class_ids(agent))
        if self._survivors == self._cube.full_mask:
            return partition
        return _clipped(partition[0], self._survivors), None

    def _class_ids(self, agent: Agent) -> List[int]:
        """``agent``'s class id at every root position, in block order."""
        if self._cube is None:
            blocks = self._evaluation_view().blocks[agent]
            return class_ids_from_blocks(blocks, len(self._root.universe()))
        # A position's class id is the position with the hidden bits cleared.
        kept = ~self._cube.hidden[agent]
        return [position & kept for position in range(1 << self._cube.bits)]

    def _public_view(self) -> _View:
        """The masks in the ``repr``-ordered numbering of the survivors alone."""
        if self._public is None:
            evaluation = self._evaluation_view()
            survivors = self._survivors
            if survivors == evaluation.universe.full_mask:
                self._public = evaluation
            else:
                universe = IndexedUniverse(evaluation.universe.elements_of(survivors))
                compress = MaskCompressor(survivors).compress
                self._public = _View(
                    universe,
                    universe.full_mask,
                    self._agents,
                    lambda agent: partition_from_class_ids(
                        list(select_bits(self._class_ids(agent), survivors))
                    ),
                    lambda name: compress(evaluation.props[name]),
                )
        return self._public

    # -- basic accessors -------------------------------------------------------
    @property
    def worlds(self) -> FrozenSet[World]:
        """The worlds of the structure."""
        if self._worlds is None:
            self._worlds = frozenset(self._root.universe().elements_of(self._survivors))
        return self._worlds

    @property
    def agents(self) -> FrozenSet[Agent]:
        """The agents of the structure."""
        return self._agents

    def facts_at(self, world: World) -> FrozenSet[str]:
        """The primitive propositions true at ``world``."""
        self._require_world(world)
        return self._root.table().get(world, frozenset())

    def holds_at(self, proposition: str, world: World) -> bool:
        """Whether the primitive proposition named ``proposition`` is true at ``world``."""
        return proposition in self.facts_at(world)

    def propositions(self) -> FrozenSet[str]:
        """Every proposition name appearing in the valuation."""
        table = self._root.table()
        names: Set[str] = set()
        for world in self.worlds:
            names.update(table.get(world, ()))
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
    # These accessors answer in the public numbering: the survivors alone,
    # ordered by ``repr``.  Every mask is computed on first use and cached,
    # which is sound because structures are immutable.

    def indexed_universe(self) -> IndexedUniverse:
        """The world <-> bit-position numbering (worlds ordered by ``repr``)."""
        return self._public_view().universe

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
        return self._public_view().blocks[agent]

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
        return self._public_view().class_at[agent]

    def component_masks(self, group: GroupLike) -> Tuple[int, ...]:
        """The G-reachability components of ``group`` as bitmasks.

        ``C_G phi`` holds on exactly the union of the components contained in the
        extension of ``phi`` (Section 6).  Components are the connected components
        of the union of the members' partitions
        (:func:`~repro.engine.universe.reachability_components`).
        """
        return self._public_view().components[self._require_group(group)]

    def prop_mask(self, name: str) -> int:
        """The extension of the primitive proposition ``name`` as a bitmask.

        Extensions are cached per valuation over the root numbering, so every
        structure derived from the same build (restrictions, refinements)
        shares them.  Without a cube, the first query of a name not yet
        cached builds every name's mask in one pass over the valuation; a
        name the valuation never mentions has the empty extension.
        """
        return self._public_view().props[name]

    def prop_worlds(self, name: str) -> FrozenSet[World]:
        """The set of worlds at which the primitive proposition ``name`` holds."""
        return self.indexed_universe().to_frozenset(self.prop_mask(name))

    def group_members(self, group: GroupLike) -> Tuple[Agent, ...]:
        """Validate ``group`` against this structure and return its sorted members."""
        return self._require_group(group)

    def evaluation_masks(self) -> EvaluationMasks:
        """The structure in the form the evaluation engine takes.

        That is the root numbering with the survivor mask ``S`` as ``full``,
        the partition masks (in the root numbering, cut down to ``S``), the
        cube when the structure has one, the cached closures and the
        proposition masks.  Every structure derived from one build hands
        over the same numbering.
        """
        view = self._evaluation_view()
        return EvaluationMasks(
            view.universe,
            self._survivors,
            view.blocks,
            view.class_at,
            self._cube,
            view.props.__getitem__,
            view.components.__getitem__,
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
        universe = self._root.universe()
        return self.restrict_mask(universe.mask_of(w for w in worlds if w in universe))

    def restrict_mask(self, mask: int) -> "KripkeStructure":
        """The substructure induced by the worlds of ``mask``.

        ``mask`` is in the numbering of :meth:`evaluation_masks` (an
        evaluator's extension mask), and its bits outside the structure are
        ignored.  The result keeps the root numbering, the partitions and the
        valuation, and only shrinks the survivor mask ``S``; the block masks
        are cut down to ``S``.  Restricting to
        the full world set returns the structure itself (structures are
        immutable).
        """
        survivors = mask & self._survivors
        if not survivors:
            raise ModelError("cannot restrict a structure to an empty set of worlds")
        if survivors == self._survivors:
            return self
        if self._cube is not None:
            return self._derive(survivors, self._cube)
        partitions = self._partitions
        return self._derive(
            survivors,
            {agent: (_clipped(partitions[agent][0], survivors), None) for agent in self._agents},
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
        untargeted agents' masks (plus the proposition masks, which depend
        only on the unchanged numbering and valuation) are shared with the parent.

        Refining every agent at once is equivalent to, and much cheaper than,
        chaining :meth:`refine_agent` per agent.
        """
        targets = self._require_agents(agents)
        universe = self._root.universe()
        survivors = self._survivors
        classes: Dict[Hashable, int] = {}
        for position, world in zip(
            select_bits(range(len(universe)), survivors), universe.elements_of(survivors)
        ):
            value = discriminator(world)
            classes[value] = classes.get(value, 0) | 1 << position
        return self._refined(targets, list(classes.values()))

    def _refine_by_masks(
        self, agents: Iterable[Agent], masks: Sequence[int]
    ) -> "KripkeStructure":
        """:meth:`refine_agents` by membership in each of ``masks``.

        The masks are in the numbering of :meth:`evaluation_masks` (an
        evaluator's extension masks, such as one round's public answers).
        The survivors are split into ``part & m`` and ``part & ~m`` by every
        mask in turn, and each target block along those classes: the same
        partitions, in the same order, as :meth:`refine_agents` with the
        discriminator "which masks contain the world", with no per-world call.
        """
        targets = self._require_agents(agents)
        classes = [self._survivors]
        for mask in masks:
            classes = [
                part for whole in classes for part in (whole & mask, whole & ~mask) if part
            ]
        return self._refined(targets, classes)

    def _require_agents(self, agents: Iterable[Agent]) -> Set[Agent]:
        targets: Set[Agent] = set()
        for agent in agents:
            self._require_agent(agent)
            targets.add(agent)
        return targets

    def _refined(self, targets: Set[Agent], classes: Sequence[int]) -> "KripkeStructure":
        """The derived structure in which every block of the ``targets`` is
        split along ``classes``, a partition of the survivors into masks.

        Each block splits into its intersections with the classes, ordered by
        lowest set bit, so a block inside one class costs one lookup and one
        AND.  The structure itself is returned when no block splits.  The
        numbering, ``S`` and the valuation are unchanged, and so are the
        untargeted agents' masks.
        """
        view = self._evaluation_view()
        class_ids = class_ids_from_blocks(classes, len(view.universe))
        class_at = [classes[class_id] for class_id in class_ids]
        partitions: Dict[Agent, Partition] = {}
        changed = False
        for agent in self._agents:
            if agent not in targets:
                partitions[agent] = view.partitions[agent]
                continue
            blocks = view.blocks[agent]
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
            partitions[agent] = tuple(new_blocks), None
        if not changed:
            return self
        return self._derive(self._survivors, partitions)

    def with_valuation(
        self, valuation: Mapping[World, AbstractSet[str]]
    ) -> "KripkeStructure":
        """A copy of the structure with a different valuation.

        It keeps the numbering, ``S`` and the partitions (as block masks).
        """
        table = self._valuation_table(valuation)
        view = self._evaluation_view()
        universe = view.universe
        return self._derive(
            self._survivors,
            {agent: view.partitions[agent] for agent in self._agents},
            _Root(lambda: universe, table),
        )

    # -- dunder helpers ----------------------------------------------------------
    def __contains__(self, world: World) -> bool:
        return world in self.worlds

    def __len__(self) -> int:
        return IndexedUniverse.count(self._survivors)

    def __iter__(self) -> Iterator[World]:
        return iter(self.worlds)

    def __repr__(self) -> str:
        return (
            f"KripkeStructure(worlds={len(self)}, agents={len(self._agents)}, "
            f"propositions={len(self.propositions())})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        if self.worlds != other.worlds or self._agents != other._agents:
            return False
        if any(self.facts_at(w) != other.facts_at(w) for w in self.worlds):
            return False
        for agent in self._agents:
            mine = {frozenset(block) for block in self.partition(agent)}
            theirs = {frozenset(block) for block in other.partition(agent)}
            if mine != theirs:
                return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - structures are rarely hashed
        return hash((self.worlds, self._agents))

    # -- validation ----------------------------------------------------------------
    def _require_world(self, world: World) -> None:
        if world not in self.worlds:
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
