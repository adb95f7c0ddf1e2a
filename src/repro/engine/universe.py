"""Indexed universes: mapping worlds/points to bit positions.

The bitset backend of :mod:`repro.engine` represents a set of worlds (or points) as a
single Python integer whose ``i``-th bit records membership of the ``i``-th element.
:class:`IndexedUniverse` owns that numbering: it fixes a deterministic order over the
elements once, and converts between masks and frozensets.

Python integers are arbitrary-precision, so a universe of ``n`` elements needs one
``n``-bit int per set and the Boolean connectives of the epistemic language become
single CPU-friendly bitwise operations (``&``, ``|``, ``^``) instead of per-element
hash-set traversals.

:class:`Segmentation` layers a *segment structure* on top of such a numbering: when
the elements are the points of a system of runs laid out run-major (every run's
``0 .. duration`` block occupies one contiguous bit range), the temporal sweeps of
the Sections 11–12 operators become parallel-prefix bit tricks confined to each
segment — one backward OR sweep evaluates ``<> phi`` for every point of every run
at once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ModelError

__all__ = [
    "IndexedUniverse",
    "MaskCompressor",
    "Segmentation",
    "class_ids_from_blocks",
    "partition_from_class_ids",
    "reachability_components",
]

Element = Hashable


class IndexedUniverse:
    """A fixed, ordered universe of hashable elements with bitmask conversions.

    Parameters
    ----------
    elements:
        The elements of the universe, in the order that fixes their bit positions.
        The caller is responsible for passing a deterministic order (e.g. sorted by
        ``repr``); duplicates are rejected.
    """

    __slots__ = ("_elements", "_index", "_full")

    def __init__(self, elements: Iterable[Element]):
        self._elements: Tuple[Element, ...] = tuple(elements)
        self._index: Dict[Element, int] = {
            element: position for position, element in enumerate(self._elements)
        }
        if len(self._index) != len(self._elements):
            raise ModelError("IndexedUniverse elements must be distinct")
        if not self._elements:
            raise ModelError("IndexedUniverse needs at least one element")
        self._full: int = (1 << len(self._elements)) - 1

    # -- basic accessors -------------------------------------------------------
    @property
    def elements(self) -> Tuple[Element, ...]:
        """The elements in bit-position order."""
        return self._elements

    @property
    def full_mask(self) -> int:
        """The mask with every element's bit set."""
        return self._full

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __contains__(self, element: Element) -> bool:
        return element in self._index

    def index_of(self, element: Element) -> int:
        """The bit position of ``element`` (raises ``KeyError`` if unknown)."""
        return self._index[element]

    def bit(self, element: Element) -> int:
        """The single-bit mask of ``element``."""
        return 1 << self._index[element]

    # -- conversions -----------------------------------------------------------
    def mask_of(self, elements: Iterable[Element]) -> int:
        """The mask whose set bits are exactly ``elements``."""
        index = self._index
        mask = 0
        for element in elements:
            mask |= 1 << index[element]
        return mask

    def to_frozenset(self, mask: int) -> FrozenSet[Element]:
        """The elements whose bits are set in ``mask``."""
        return frozenset(self.elements_of(mask))

    def elements_of(self, mask: int) -> Iterator[Element]:
        """Yield the elements of ``mask`` in bit-position order."""
        elements = self._elements
        while mask:
            low = mask & -mask
            yield elements[low.bit_length() - 1]
            mask ^= low

    @staticmethod
    def count(mask: int) -> int:
        """How many elements ``mask`` contains (popcount)."""
        # Not int.bit_count: it needs Python 3.10, and the package supports 3.9.
        return bin(mask).count("1")

    def subuniverse(self, survivor_mask: int) -> "Tuple[IndexedUniverse, MaskCompressor]":
        """The universe of the elements in ``survivor_mask``, plus its remapper.

        The sub-universe keeps the parent's relative element order, so a parent
        whose order was sorted stays sorted after restriction.  The returned
        :class:`MaskCompressor` translates parent-numbered masks into the
        sub-universe's numbering.
        """
        compressor = MaskCompressor(survivor_mask)
        return IndexedUniverse(self.elements_of(survivor_mask)), compressor


def partition_from_class_ids(
    class_ids: Sequence[int],
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Group one agent's class ids into its partition, as masks.

    ``class_ids[p]`` is a small integer naming the agent's view at the element
    of bit position ``p``: two elements are indistinguishable to the agent
    exactly when their ids are equal (Section 6: a processor's relation is
    "has the same view").  One pass ORs each element's bit into its class's
    mask.  Returns the block masks, ordered by class id, and the per-element
    class masks in bit-position order -- the two layouts every evaluation
    backend is built from.
    """
    masks: Dict[int, int] = {}
    get = masks.get
    for position, class_id in enumerate(class_ids):
        masks[class_id] = get(class_id, 0) | 1 << position
    blocks = tuple(map(masks.__getitem__, sorted(masks)))
    return blocks, tuple(map(masks.__getitem__, class_ids))


def class_ids_from_blocks(blocks: Sequence[int], size: int) -> List[int]:
    """Number the elements of a universe of ``size`` by the block holding them.

    The inverse of :func:`partition_from_class_ids`: ``blocks`` is a partition
    of the bit positions ``0 .. size-1`` as disjoint masks, and the result
    gives each position the index of its block in ``blocks``.  One pass over
    the set bits of every block.
    """
    ids = [0] * size
    for class_id, block in enumerate(blocks):
        while block:
            low = block & -block
            ids[low.bit_length() - 1] = class_id
            block ^= low
    return ids


def reachability_components(class_ats: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The G-reachability components of a universe, as masks.

    ``class_ats`` holds one sequence per member of G: the member's class mask
    of each element, in bit-position order.  Two elements share a component
    when a chain of the members' classes links them (Section 6), so ``C_G
    phi`` is the union of the components inside ``phi``.  A breadth-first
    search in mask space: each element enters a frontier once and ORs in its
    members' classes, so the work grows with elements x members, not with
    blocks x components.
    """
    remaining = (1 << len(class_ats[0])) - 1
    components: List[int] = []
    while remaining:
        component = 0
        frontier = remaining & -remaining
        while frontier:
            component |= frontier
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                position = low.bit_length() - 1
                for class_at in class_ats:
                    grown |= class_at[position]
            frontier = grown & ~component
        remaining &= ~component
        components.append(component)
    return tuple(components)


class Segmentation:
    """Contiguous, gap-free segments over the bit positions ``0 .. n-1``.

    The systems layer lays its points out run-major (``System.points()`` yields each
    run's ``0 .. duration`` block contiguously, runs sorted by name), so segment
    ``i`` is run ``i`` and bit ``offset_i + t`` is the point ``(run_i, t)``.  All
    sweeps below stay strictly inside their segment: a shift never carries a bit
    across a run boundary, however ragged the durations.

    Within-segment shifts are guarded by precomputed masks, so every sweep is a
    handful of whole-universe bitwise operations — ``O(log max_length)`` big-int
    ops total — instead of a per-point Python loop.
    """

    __slots__ = (
        "_lengths",
        "_offsets",
        "_segment_masks",
        "_full",
        "_max_length",
        "_ahead_guards",
        "_behind_guards",
    )

    def __init__(self, lengths: Iterable[int]):
        self._lengths: Tuple[int, ...] = tuple(int(length) for length in lengths)
        if not self._lengths:
            raise ModelError("Segmentation needs at least one segment")
        if any(length <= 0 for length in self._lengths):
            raise ModelError("segment lengths must be positive")
        offsets = []
        masks = []
        position = 0
        for length in self._lengths:
            offsets.append(position)
            masks.append(((1 << length) - 1) << position)
            position += length
        self._offsets: Tuple[int, ...] = tuple(offsets)
        self._segment_masks: Tuple[int, ...] = tuple(masks)
        self._full: int = (1 << position) - 1
        self._max_length: int = max(self._lengths)
        # Guard masks, by shift distance, computed on demand and cached: the
        # distances used are the powers of two of the doubling sweeps plus the
        # residual steps of bounded windows, so the cache stays tiny.
        self._ahead_guards: Dict[int, int] = {}
        self._behind_guards: Dict[int, int] = {}

    # -- basic accessors -------------------------------------------------------
    @property
    def lengths(self) -> Tuple[int, ...]:
        """The segment lengths, in segment order."""
        return self._lengths

    @property
    def offsets(self) -> Tuple[int, ...]:
        """Each segment's first bit position."""
        return self._offsets

    @property
    def full_mask(self) -> int:
        """The mask with every position's bit set."""
        return self._full

    def __len__(self) -> int:
        return len(self._lengths)

    def segment_mask(self, index: int) -> int:
        """The mask of every position in segment ``index``."""
        return self._segment_masks[index]

    # -- shift guards ----------------------------------------------------------
    def ahead_guard(self, distance: int) -> int:
        """Positions whose ``distance``-later neighbour is in the same segment.

        ANDing this against a right-shifted mask keeps a backward (future-looking)
        sweep from pulling bits across the next segment's boundary.
        """
        guard = self._ahead_guards.get(distance)
        if guard is None:
            guard = 0
            for offset, length in zip(self._offsets, self._lengths):
                if length > distance:
                    guard |= ((1 << (length - distance)) - 1) << offset
            self._ahead_guards[distance] = guard
        return guard

    def behind_guard(self, distance: int) -> int:
        """Positions whose ``distance``-earlier neighbour is in the same segment."""
        guard = self._behind_guards.get(distance)
        if guard is None:
            guard = 0
            for offset, length in zip(self._offsets, self._lengths):
                if length > distance:
                    guard |= ((1 << (length - distance)) - 1) << (offset + distance)
            self._behind_guards[distance] = guard
        return guard

    # -- within-segment sweeps -------------------------------------------------
    def suffix_or(self, mask: int) -> int:
        """Bit ``p`` set iff some bit ``>= p`` *in p's segment* is set in ``mask``.

        With bit positions read as times, this is ``<> phi``: true now iff true at
        the current or some later point of the same run.  One doubling sweep
        serves every run simultaneously.
        """
        distance = 1
        while distance < self._max_length:
            mask |= (mask >> distance) & self.ahead_guard(distance)
            distance <<= 1
        return mask

    def prefix_or(self, mask: int) -> int:
        """Bit ``p`` set iff some bit ``<= p`` in ``p``'s segment is set in ``mask``."""
        distance = 1
        while distance < self._max_length:
            mask |= (mask << distance) & self.behind_guard(distance)
            distance <<= 1
        return mask

    def suffix_and(self, mask: int) -> int:
        """Bit ``p`` set iff every bit ``>= p`` in ``p``'s segment is set in ``mask``
        (``[] phi`` over times)."""
        return self._full ^ self.suffix_or(self._full ^ (mask & self._full))

    def spread(self, mask: int) -> int:
        """The union of the segments that intersect ``mask``.

        This is the broadcast-to-run step of the run-level operators (``E^<>``,
        ``K^T``): a property established anywhere in a run holds at every point
        of that run.
        """
        return self.suffix_or(self.prefix_or(mask & self._full))

    def covered(self, mask: int) -> int:
        """The union of the segments entirely contained in ``mask``."""
        return self._full ^ self.spread(self._full ^ (mask & self._full))

    def window_or_ahead(self, mask: int, width: int) -> int:
        """Bit ``p`` = OR of ``mask`` bits ``p .. p+width-1`` within ``p``'s segment.

        The look-ahead half of the ``E^eps`` window: at a window start, does the
        window (clipped to the run) contain a set bit?
        """
        if width <= 1:
            return mask
        covered = 1
        while covered < width:
            step = min(covered, width - covered)
            mask |= (mask >> step) & self.ahead_guard(step)
            covered += step
        return mask

    def window_or_behind(self, mask: int, width: int) -> int:
        """Bit ``p`` = OR of ``mask`` bits ``p-width+1 .. p`` within ``p``'s segment
        (the look-behind half of the ``E^eps`` window: some admissible start works)."""
        if width <= 1:
            return mask
        covered = 1
        while covered < width:
            step = min(covered, width - covered)
            mask |= (mask << step) & self.behind_guard(step)
            covered += step
        return mask


class MaskCompressor:
    """Remaps bitmasks from a parent universe onto the sub-universe of survivors.

    Restriction in bitmask space is an AND against the survivor mask followed by
    a *compression*: surviving bits are repacked contiguously, in order, so they
    line up with the restricted structure's own :class:`IndexedUniverse`.  The
    compressor precomputes the parent-position -> child-position table once and
    then remaps any number of masks in ``O(popcount)`` each.
    """

    __slots__ = ("survivor_mask", "_child_bit")

    def __init__(self, survivor_mask: int):
        if survivor_mask < 0:
            raise ModelError("survivor mask must be non-negative")
        self.survivor_mask = survivor_mask
        # _child_bit[parent position] = the child's single-bit mask.
        child_bit: Dict[int, int] = {}
        position = 0
        remaining = survivor_mask
        while remaining:
            low = remaining & -remaining
            child_bit[low.bit_length() - 1] = 1 << position
            position += 1
            remaining ^= low
        self._child_bit = child_bit

    def __len__(self) -> int:
        return len(self._child_bit)

    def compress(self, mask: int) -> int:
        """Remap a parent-numbered ``mask`` (clipped to the survivors) to child bits."""
        child_bit = self._child_bit
        result = 0
        mask &= self.survivor_mask
        while mask:
            low = mask & -mask
            result |= child_bit[low.bit_length() - 1]
            mask ^= low
        return result
