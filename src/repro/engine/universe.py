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

from itertools import chain, compress
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import ModelError

__all__ = [
    "Hypercube",
    "IndexedUniverse",
    "Segmentation",
    "bit_flags",
    "class_ids_from_blocks",
    "partition_from_class_ids",
    "reachability_components",
    "select_bits",
]

Element = Hashable

# Mask <-> position conversions.  Peeling one lowest bit at a time off a big
# int costs a full-width operation per bit, so it is quadratic on dense masks;
# one pass over the base-2 digit string is linear (and base-2 conversions are
# exempt from the interpreter's int digit limit) but costs the full width even
# for two bits.  So the first few bits are peeled, and a mask with more left
# is finished by one digit pass.
_PEEL_LIMIT = 8
_FLAG_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest bit first: ``1`` if set, else ``0``.

    The flags stop at the highest set bit, so they feed
    :func:`itertools.compress` directly: ``compress(items, bit_flags(mask))``
    yields ``items[p]`` for every set bit ``p`` in one C-level pass.
    """
    return bin(mask)[:1:-1].encode().translate(_FLAG_OF_DIGIT)


def select_bits(items: Sequence, mask: int) -> Iterator:
    """Yield ``items[p]`` for every set bit ``p`` of ``mask``, lowest first.

    ``select_bits(range(mask.bit_length()), mask)`` yields the positions.
    """
    head = []
    for _ in range(_PEEL_LIMIT):
        if not mask:
            return iter(head)
        low = mask & -mask
        head.append(items[low.bit_length() - 1])
        mask ^= low
    return chain(head, compress(items, bit_flags(mask)))


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
    # Linear in the universe size, whatever the density (see select_bits).
    def mask_of(self, elements: Iterable[Element]) -> int:
        """The mask whose set bits are exactly ``elements``."""
        positions = list(map(self._index.__getitem__, elements))
        if len(positions) <= _PEEL_LIMIT:
            mask = 0
            for position in positions:
                mask |= 1 << position
            return mask
        top = len(self._elements) - 1
        digits = bytearray(b"0") * (top + 1)
        for position in positions:
            digits[top - position] = 49  # ord("1")
        return int(digits, 2)

    def to_frozenset(self, mask: int) -> FrozenSet[Element]:
        """The elements whose bits are set in ``mask``."""
        return frozenset(self.elements_of(mask))

    def elements_of(self, mask: int) -> Iterator[Element]:
        """Yield the elements of ``mask`` in bit-position order."""
        return select_bits(self._elements, mask)

    @staticmethod
    def count(mask: int) -> int:
        """How many elements ``mask`` contains (popcount)."""
        # Not int.bit_count: it needs Python 3.10, and the package supports 3.9.
        return bin(mask).count("1")


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
    the set bits of every block (:func:`select_bits`).
    """
    ids = [0] * size
    positions = range(size)
    for class_id, block in enumerate(blocks):
        for position in select_bits(positions, block):
            ids[position] = class_id
    return ids


def reachability_components(class_ats: Sequence[Sequence[int]], within: int) -> Tuple[int, ...]:
    """The G-reachability components of the elements of ``within``, as masks.

    ``class_ats`` holds one sequence per member of G: the member's class mask
    of each element, indexed by bit position.  Two elements share a component
    when a chain of the members' classes links them (Section 6), so ``C_G
    phi`` is the union of the components inside ``phi``.  A breadth-first
    search in mask space: each element enters a frontier once and ORs in its
    members' classes, so the work grows with elements x members, not with
    blocks x components.  ``within`` must be closed under the classes (a
    structure's survivors); the search starts only from its elements, so it
    reads no class of any other position.
    """
    remaining = within
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


class Hypercube:
    """Partitions of the positions ``0 .. 2**bits - 1`` fixed by hidden index bits.

    Agent ``a`` cannot tell position ``p`` from ``p ^ (1 << b)`` for any index
    bit ``b`` set in ``hidden[a]``, so its class of ``p`` is the subcube of
    positions that agree with ``p`` outside those bits.  This is the shape of
    Section 2's model: child ``i`` sees every forehead but its own, so its
    only hidden bit is its own attribute.

    No block is ever stored.  The one kernel is :meth:`close`, which ORs
    into a mask every position that differs from one of its positions only
    in the given hidden bits (the union of the classes meeting the mask):
    per hidden bit, two shifts and two ANDs against a periodic mask.
    """

    __slots__ = ("bits", "hidden", "full_mask", "_lows")

    def __init__(self, bits: int, hidden: Mapping[Element, int]):
        self.bits = bits
        self.hidden: Dict[Element, int] = dict(hidden)
        self.full_mask: int = (1 << (1 << bits)) - 1
        self._lows: Dict[int, int] = {}

    def low_mask(self, bit: int) -> int:
        """The positions whose index bit ``bit`` is clear (built by doubling)."""
        low = self._lows.get(bit)
        if low is None:
            stride = 1 << bit
            low = (1 << stride) - 1
            width = stride << 1
            while width < 1 << self.bits:
                low |= low << width
                width <<= 1
            self._lows[bit] = low
        return low

    def close(self, mask: int, hidden: int) -> int:
        """``mask`` plus every position reached by flipping bits of ``hidden``."""
        bit = 0
        while hidden:
            if hidden & 1:
                low = self.low_mask(bit)
                stride = 1 << bit
                mask |= ((mask & low) << stride) | ((mask >> stride) & low)
            hidden >>= 1
            bit += 1
        return mask


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

