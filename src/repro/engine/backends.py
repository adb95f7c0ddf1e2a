"""Set-representation backends for the shared evaluation engine.

The engine (:mod:`repro.engine.core`) performs the structural recursion of Section 6
generically; a *backend* decides how extensions (sets of worlds/points) are
represented and supplies the epistemic primitives over that representation:

* :class:`FrozensetBackend` — the test oracle.  Extensions are ``frozenset``
  objects and every operator is evaluated by the per-world subset checks that
  transcribe the paper's clauses (a)-(g) directly.  It is deliberately naive so
  it can serve as the ground truth of the differential test harness; nothing
  outside the tests and the benchmark's correctness oracle evaluates on it.
* :class:`BitsetBackend` — the production backend and the process-wide
  default.  Extensions are Python ints
  (bitmasks over an :class:`~repro.engine.universe.IndexedUniverse`), and the
  Boolean connectives are single bitwise operations.  A partition reaches it in
  one of two forms:

  - *block masks* (the general case): ``K_i`` is one ``AND`` plus one compare
    per equivalence class, and group joint partitions (for ``D_G``) and
    G-reachability components (for ``C_G``, via
    :func:`~repro.engine.universe.reachability_components`, or the host's cached
    closures) are computed once per group and memoised on the backend;
  - a *cube* (:class:`~repro.engine.universe.Hypercube`), when every agent's
    classes are the subcubes spanned by its hidden index bits (the muddy
    children): ``K_i``, ``D_G`` and ``C_G`` are shift-and-mask closures over the
    hidden bits, and no block is built or scanned.

Both backends have one constructor and take the same inputs: an indexed universe,
each agent's partition as block masks, each agent's per-element class masks in
bit-position order (the layouts :func:`~repro.engine.universe.partition_from_class_ids`
groups out of class ids), the mask of the elements that make up the model
(``full``; a public announcement keeps the parent's numbering and shrinks
this mask instead, so every structure derived from one build evaluates over
the same numbering) and the optional cube.  Hosts may hand the masks over
as lazy mappings: the frozenset oracle reads the block masks, the bitset backend
reads them only when there is no cube.  So both describe the same model; the
differential tests check that they also agree on every formula.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Mapping, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.engine.universe import Hypercube, IndexedUniverse, reachability_components

__all__ = [
    "EngineBackend",
    "FrozensetBackend",
    "BitsetBackend",
    "BACKENDS",
    "get_default_backend",
    "set_default_backend",
    "resolve_backend_name",
]

Element = Hashable
Agent = Hashable
ComponentSource = Callable[[Tuple[Agent, ...]], Sequence[int]]


class EngineBackend:
    """Interface shared by the set-representation backends.

    A backend value (``S`` below) is whatever the backend uses to represent a set of
    elements; callers must treat it as opaque and convert at the boundary with
    :meth:`from_frozenset` / :meth:`to_frozenset`.  Backend values are hashable and
    comparable with ``==``, which the engine relies on for memo keys and fixpoint
    termination tests.
    """

    name: str = "?"

    def __init__(
        self,
        universe: IndexedUniverse,
        blocks: Mapping[Agent, Sequence[int]],
        class_at: Mapping[Agent, Sequence[int]],
        component_source: Optional[ComponentSource] = None,
        *,
        full: Optional[int] = None,
        cube: Optional[Hypercube] = None,
    ):
        """Build the backend over ``universe`` from per-agent partition masks.

        ``blocks[agent]`` is the agent's partition as disjoint block masks;
        ``class_at[agent][p]`` is the mask of the agent's class of the element
        at bit position ``p``; both cover exactly the elements of ``full``
        (default: the whole universe).  ``component_source`` (members-tuple ->
        G-reachability component masks), when given, lets a host share its
        cached closures.  ``cube``, when given, describes the same partitions
        as hidden index bits (the classes restricted to ``full``); ``class_at``
        may then be empty, since only the bitset backend reads it, and only
        without a cube.
        """
        raise NotImplementedError

    @property
    def universe(self) -> IndexedUniverse:
        """The element <-> bit-position numbering this backend evaluates over."""
        return self._universe

    # -- conversions -----------------------------------------------------------
    def from_frozenset(self, members):
        """Convert an iterable of elements into a backend value."""
        raise NotImplementedError

    def to_frozenset(self, value) -> FrozenSet[Element]:
        """Convert a backend value back into a frozenset of elements."""
        raise NotImplementedError

    def from_mask(self, mask: int):
        """Convert a bitmask over :attr:`universe` into a backend value."""
        raise NotImplementedError

    def to_mask(self, value) -> int:
        """Convert a backend value into a bitmask over :attr:`universe`."""
        raise NotImplementedError

    # -- set algebra -----------------------------------------------------------
    @property
    def full(self):
        """The whole universe as a backend value."""
        raise NotImplementedError

    @property
    def empty(self):
        """The empty set as a backend value."""
        raise NotImplementedError

    def complement(self, value):
        """The universe minus ``value``."""
        raise NotImplementedError

    def union(self, left, right):
        """The union of two backend values."""
        raise NotImplementedError

    def intersect(self, left, right):
        """The intersection of two backend values."""
        raise NotImplementedError

    def equiv(self, left, right):
        """The elements at which membership of ``left`` and ``right`` agrees."""
        raise NotImplementedError

    def is_empty(self, value) -> bool:
        """Whether the backend value denotes the empty set."""
        raise NotImplementedError

    def has_agent(self, agent: Agent) -> bool:
        """Whether this backend carries a partition for ``agent``."""
        raise NotImplementedError

    def summary(self, value, element) -> Tuple[int, Optional[bool]]:
        """How many elements ``value`` holds, and whether ``element`` is one of
        them (``None`` when ``element`` is ``None``)."""
        raise NotImplementedError

    # -- epistemic primitives ---------------------------------------------------
    def knowledge(self, agent: Agent, body):
        """``K_i``: the elements whose ``agent``-class is contained in ``body``."""
        raise NotImplementedError

    def someone(self, members: Tuple[Agent, ...], body):
        """``S_G``: union of ``K_i`` over the members."""
        result = self.empty
        for agent in members:
            result = self.union(result, self.knowledge(agent, body))
        return result

    def everyone(self, members: Tuple[Agent, ...], body):
        """``E_G``: intersection of ``K_i`` over the members."""
        result = self.full
        for agent in members:
            result = self.intersect(result, self.knowledge(agent, body))
            if self.is_empty(result):
                break
        return result

    def distributed(self, members: Tuple[Agent, ...], body):
        """``D_G``: elements whose joint class (intersection) is inside ``body``."""
        raise NotImplementedError

    def common_reachability(self, members: Tuple[Agent, ...], body):
        """``C_G`` via Section 6: elements whose G-component is inside ``body``."""
        raise NotImplementedError


class FrozensetBackend(EngineBackend):
    """Reference backend: extensions are frozensets, operators are per-world loops."""

    name = "frozenset"

    def __init__(
        self, universe, blocks, class_at, component_source=None, *, full=None, cube=None
    ):
        # The oracle reads only the block masks: it derives its naive
        # element -> class maps from them and computes its own closures, so it
        # shares none of the bitset backend's precomputation (nor the cube).
        self._universe = universe
        if full is None:
            full = universe.full_mask
        self._elements: Tuple[Element, ...] = tuple(universe.elements_of(full))
        self._full: FrozenSet[Element] = frozenset(self._elements)
        self._class_of: Dict[Agent, Dict[Element, FrozenSet[Element]]] = {}
        for agent, masks in blocks.items():
            class_of: Dict[Element, FrozenSet[Element]] = {}
            for mask in masks:
                block = universe.to_frozenset(mask)
                class_of.update(dict.fromkeys(block, block))
            self._class_of[agent] = class_of
        self._components: Dict[Tuple[Agent, ...], Dict[Element, FrozenSet[Element]]] = {}

    # -- conversions -----------------------------------------------------------
    def from_frozenset(self, members) -> FrozenSet[Element]:
        return frozenset(members)

    def to_frozenset(self, value) -> FrozenSet[Element]:
        return value

    def from_mask(self, mask: int) -> FrozenSet[Element]:
        return self._universe.to_frozenset(mask)

    def to_mask(self, value) -> int:
        return self._universe.mask_of(value)

    # -- set algebra -----------------------------------------------------------
    @property
    def full(self) -> FrozenSet[Element]:
        return self._full

    @property
    def empty(self) -> FrozenSet[Element]:
        return frozenset()

    def complement(self, value):
        return self._full - value

    def union(self, left, right):
        return left | right

    def intersect(self, left, right):
        return left & right

    def equiv(self, left, right):
        return self._full - (left ^ right)

    def is_empty(self, value) -> bool:
        return not value

    def has_agent(self, agent: Agent) -> bool:
        return agent in self._class_of

    def summary(self, value, element):
        return len(value), None if element is None else element in value

    # -- epistemic primitives ---------------------------------------------------
    def knowledge(self, agent: Agent, body):
        class_of = self._class_of[agent]
        return frozenset(w for w in self._elements if class_of[w] <= body)

    def distributed(self, members: Tuple[Agent, ...], body):
        maps = [self._class_of[agent] for agent in members]
        result = []
        for w in self._elements:
            joint = maps[0][w]
            for class_of in maps[1:]:
                joint = joint & class_of[w]
            if joint <= body:
                result.append(w)
        return frozenset(result)

    def common_reachability(self, members: Tuple[Agent, ...], body):
        component_of = self._components.get(members)
        if component_of is None:
            component_of = self._build_components(members)
            self._components[members] = component_of
        return frozenset(w for w in self._elements if component_of[w] <= body)

    def _build_components(
        self, members: Tuple[Agent, ...]
    ) -> Dict[Element, FrozenSet[Element]]:
        component_of: Dict[Element, FrozenSet[Element]] = {}
        for start in self._elements:
            if start in component_of:
                continue
            visited = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for agent in members:
                    for neighbour in self._class_of[agent][current]:
                        if neighbour not in visited:
                            visited.add(neighbour)
                            frontier.append(neighbour)
            component = frozenset(visited)
            for member in component:
                component_of[member] = component
        return component_of


class BitsetBackend(EngineBackend):
    """Fast backend: extensions are int bitmasks over an indexed universe."""

    name = "bitset"

    def __init__(
        self, universe, blocks, class_at, component_source=None, *, full=None, cube=None
    ):
        # Stored by reference: hosts hand over mask tuples they never mutate
        # (the structure's caches, the interpretation's grouped views).
        self._universe = universe
        self._full_mask = universe.full_mask if full is None else full
        self._cube = cube
        self._blocks: Mapping[Agent, Sequence[int]] = blocks
        self._class_at: Mapping[Agent, Sequence[int]] = class_at
        self._joint_blocks: Dict[Tuple[Agent, ...], Tuple[int, ...]] = {}
        self._component_masks: Dict[Tuple[Agent, ...], Tuple[int, ...]] = {}
        self._component_source = component_source

    # -- conversions -----------------------------------------------------------
    def from_frozenset(self, members) -> int:
        return self._universe.mask_of(members)

    def to_frozenset(self, value) -> FrozenSet[Element]:
        return self._universe.to_frozenset(value)

    def from_mask(self, mask: int) -> int:
        return mask

    def to_mask(self, value) -> int:
        return value

    # -- set algebra -----------------------------------------------------------
    @property
    def full(self) -> int:
        return self._full_mask

    @property
    def empty(self) -> int:
        return 0

    def complement(self, value):
        return self._full_mask ^ value

    def union(self, left, right):
        return left | right

    def intersect(self, left, right):
        return left & right

    def equiv(self, left, right):
        return self._full_mask ^ (left ^ right)

    def is_empty(self, value) -> bool:
        return not value

    def has_agent(self, agent: Agent) -> bool:
        return agent in self._blocks

    def summary(self, value, element):
        universe = self._universe
        if element is None:
            return universe.count(value), None
        return universe.count(value), element in universe and bool(value & universe.bit(element))

    # -- epistemic primitives ---------------------------------------------------
    def knowledge(self, agent: Agent, body):
        if self._cube is not None:
            return self._cube_knowledge(self._cube.hidden[agent], body)
        result = 0
        for block in self._blocks[agent]:
            if block & body == block:
                result |= block
        return result

    def distributed(self, members: Tuple[Agent, ...], body):
        if self._cube is not None:
            # The joint class is the subcube of the bits no member sees.
            hidden = -1
            for agent in members:
                hidden &= self._cube.hidden[agent]
            return self._cube_knowledge(hidden, body) if hidden else body & self._full_mask
        blocks = self._joint_blocks.get(members)
        if blocks is None:
            blocks = self._build_joint_blocks(members)
            self._joint_blocks[members] = blocks
        result = 0
        for block in blocks:
            if block & body == block:
                result |= block
        return result

    def common_reachability(self, members: Tuple[Agent, ...], body):
        if self._cube is not None:
            return self._cube_common(members, body)
        components = self._component_masks.get(members)
        if components is None:
            if self._component_source is not None:
                components = tuple(self._component_source(members))
            else:
                components = reachability_components(
                    [self._class_at[agent] for agent in members]
                )
            self._component_masks[members] = components
        result = 0
        for component in components:
            if component & body == component:
                result |= component
        return result

    # -- cube kernels -------------------------------------------------------------
    # On a cube, an agent's class of p is p's subcube over the agent's hidden
    # bits, cut down to the model's elements.  K_i phi keeps the elements whose
    # class misses every element outside phi: one closure of the complement.
    def _cube_knowledge(self, hidden: int, body: int) -> int:
        full = self._full_mask
        return full & ~self._cube.close(full & ~body, hidden)

    def _cube_common(self, members: Tuple[Agent, ...], body: int) -> int:
        """``C_G``: the elements from which no element outside ``body`` is
        G-reachable.  On the whole cube the components are the subcubes over
        the union of the members' hidden bits, so one closure finds them;
        inside a smaller ``full`` the paths must stay inside it, so the bad
        set grows one member's class at a time until it is stable."""
        cube = self._cube
        full = self._full_mask
        hidden = [cube.hidden[agent] for agent in members]
        bad = full & ~body
        if full == cube.full_mask:
            union = 0
            for bits in hidden:
                union |= bits
            return full & ~cube.close(bad, union)
        while True:
            grown = bad
            for bits in hidden:
                grown |= full & cube.close(grown, bits)
            if grown == bad:
                return full & ~bad
            bad = grown

    # -- precomputation ---------------------------------------------------------
    def _build_joint_blocks(self, members: Tuple[Agent, ...]) -> Tuple[int, ...]:
        """The joint partition of ``members``: per-element intersection of classes.

        The intersection of equivalence relations is again an equivalence relation,
        so the per-element intersections form a partition and ``D_G`` reduces to the
        same blocks-inside-body scan as ``K_i``.
        """
        class_ats = [self._class_at[agent] for agent in members]
        seen: Dict[int, None] = {}
        for position in range(len(self._universe)):
            joint = class_ats[0][position]
            for class_at in class_ats[1:]:
                joint &= class_at[position]
            seen.setdefault(joint, None)
        return tuple(seen)

BACKENDS: Dict[str, type] = {
    FrozensetBackend.name: FrozensetBackend,
    BitsetBackend.name: BitsetBackend,
}

_default_backend: str = BitsetBackend.name


def resolve_backend_name(name) -> str:
    """Validate ``name`` (``None`` means the process-wide default) into a backend key."""
    if name is None:
        return _default_backend
    if name not in BACKENDS:
        raise EvaluationError(
            f"unknown engine backend {name!r}; expected one of {tuple(sorted(BACKENDS))}"
        )
    return name


def get_default_backend() -> str:
    """The backend used when an evaluator is constructed without an explicit one."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous default.

    The test suite uses this (via the ``--engine-backend`` pytest option) to run the
    full suite, the runner included, on the frozenset oracle without touching each
    test; sweep pool workers call it to mirror their parent's default.
    """
    global _default_backend
    if name not in BACKENDS:
        raise EvaluationError(
            f"unknown engine backend {name!r}; expected one of {tuple(sorted(BACKENDS))}"
        )
    previous = _default_backend
    _default_backend = name
    return previous
