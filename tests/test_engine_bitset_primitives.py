"""Property tests for the bitset primitives behind the fast engine backend.

Three invariants the bitset backend's correctness rests on:

* mask <-> frozenset conversions are mutually inverse bijections;
* each agent's partition masks form a disjoint cover of the universe;
* the G-reachability component masks agree with :meth:`KripkeStructure.reachable`;
* the one-pass digit-string conversions (mask <-> elements, class ids) and
  the hypercube closure agree with bit-by-bit loops.

The structure-level masks are those of
:meth:`KripkeStructure.evaluation_masks`, in the build's root numbering.

Plus a cost regression on indexing a system's views: the complete-history view
is indexed from interned history ids, with no ``view()`` call, no
``Run.history`` and no set converted to a mask; any other view makes exactly
one ``view()`` call per (processor, point).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from _engine_gen import random_structure
from repro.engine import BitsetBackend, IndexedUniverse
from repro.engine.universe import Hypercube, bit_flags, class_ids_from_blocks
from repro.errors import ModelError
from repro.experiments import get_scenario
from repro.logic.agents import Group
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.runs import Run
from repro.systems.views import CompleteHistoryView, LocalStateView

_SETTINGS = {"max_examples": 60, "deadline": None}


# ---------------------------------------------------------------------------
# IndexedUniverse round-trips
# ---------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(
    n=st.integers(min_value=1, max_value=48),
    data=st.data(),
)
def test_mask_frozenset_round_trip(n, data):
    universe = IndexedUniverse([f"e{i}" for i in range(n)])
    subset = data.draw(st.sets(st.sampled_from(universe.elements)))
    mask = universe.mask_of(subset)
    assert universe.to_frozenset(mask) == frozenset(subset)
    assert universe.mask_of(universe.to_frozenset(mask)) == mask
    assert universe.count(mask) == len(subset)


@settings(**_SETTINGS)
@given(
    n=st.integers(min_value=1, max_value=48),
    mask=st.integers(min_value=0),
)
def test_arbitrary_mask_round_trip(n, mask):
    universe = IndexedUniverse([f"e{i}" for i in range(n)])
    mask &= universe.full_mask
    assert universe.mask_of(universe.to_frozenset(mask)) == mask


def _peeled_positions(mask):
    """The bit positions of ``mask``, one lowest bit at a time (the reference)."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _edge_masks(size, rng):
    sparse = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
    return [0, (1 << size) - 1, 1 << (size - 1), 1, rng.getrandbits(size), sparse]


@pytest.mark.parametrize("size", [1, 2, 7, 64, 65, 300, 4097])
def test_digit_conversions_match_bit_peeling(size):
    import random

    rng = random.Random(size)
    universe = IndexedUniverse(range(size))
    for mask in _edge_masks(size, rng):
        positions = _peeled_positions(mask)
        assert list(universe.elements_of(mask)) == positions
        assert universe.to_frozenset(mask) == frozenset(positions)
        assert universe.mask_of(positions) == mask
        assert universe.mask_of(reversed(positions)) == mask
        members = set(positions)
        assert list(bit_flags(mask)) == [
            1 if position in members else 0 for position in range(max(mask.bit_length(), 1))
        ]
        blocks = [mask, ((1 << size) - 1) ^ mask]
        ids = class_ids_from_blocks([block for block in blocks if block], size)
        live = [block for block in blocks if block]
        assert ids == [
            next(i for i, block in enumerate(live) if block >> p & 1) for p in range(size)
        ]


@pytest.mark.parametrize("bits", [1, 2, 3, 5])
def test_hypercube_close_is_the_union_of_subcubes(bits):
    import random

    rng = random.Random(bits)
    cube = Hypercube(bits, {})
    size = 1 << bits
    for _ in range(20):
        mask = rng.getrandbits(size)
        hidden = rng.getrandbits(bits)
        reached = 0
        for position in _peeled_positions(mask):
            for other in range(size):
                if (other ^ position) & ~hidden == 0:
                    reached |= 1 << other
        assert cube.close(mask, hidden) == reached
    for bit in range(bits):
        assert cube.low_mask(bit) == sum(
            1 << p for p in range(size) if not p >> bit & 1
        )


def test_universe_rejects_duplicates_and_empty():
    with pytest.raises(ModelError):
        IndexedUniverse(["a", "a"])
    with pytest.raises(ModelError):
        IndexedUniverse([])


def test_universe_order_fixes_bit_positions():
    universe = IndexedUniverse(["x", "y", "z"])
    assert universe.bit("x") == 1
    assert universe.bit("y") == 2
    assert universe.bit("z") == 4
    assert universe.full_mask == 7
    assert list(universe.elements_of(0b101)) == ["x", "z"]


# ---------------------------------------------------------------------------
# Partition masks
# ---------------------------------------------------------------------------


def _with_a_restriction(structure):
    """``structure`` and its restriction to every other world (by ``repr``)."""
    return [structure, structure.restrict(sorted(structure.worlds, key=repr)[::2])]


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=16),
    n_agents=st.integers(min_value=1, max_value=4),
)
def test_partition_masks_form_a_disjoint_cover(seed, n_worlds, n_agents):
    for structure in _with_a_restriction(
        random_structure(seed, n_worlds=n_worlds, n_agents=n_agents)
    ):
        masks = structure.evaluation_masks()
        for agent in structure.agents:
            union = 0
            total_bits = 0
            for mask in masks.blocks[agent]:
                assert mask, "partition blocks are non-empty"
                assert union & mask == 0, "partition blocks overlap"
                union |= mask
                total_bits += bin(mask).count("1")
            assert union == masks.full, "partition blocks do not cover the worlds"
            assert total_bits == len(structure.worlds)


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_structure_world_mask_round_trip(seed, n_worlds, data):
    """A set of worlds, its mask in the root numbering and the restriction to
    that mask all name the same worlds."""
    structure = random_structure(seed, n_worlds=n_worlds)
    universe = structure.evaluation_masks().universe
    subset = data.draw(st.sets(st.sampled_from(universe.elements)))
    mask = universe.mask_of(subset)
    assert universe.to_frozenset(mask) == frozenset(subset)
    if subset:
        restricted = structure.restrict_mask(mask)
        assert restricted.worlds == frozenset(subset)
        assert restricted.evaluation_masks().full == mask
        assert restricted.evaluation_masks().universe is universe
        assert structure.restrict(subset).evaluation_masks().full == mask
    with pytest.raises(ModelError):
        structure.restrict(["not-a-world"])


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=16),
)
def test_class_mask_matches_equivalence_class(seed, n_worlds):
    for structure in _with_a_restriction(random_structure(seed, n_worlds=n_worlds)):
        masks = structure.evaluation_masks()
        for agent in structure.agents:
            for world in structure.worlds:
                mask = masks.class_at[agent][masks.universe.index_of(world)]
                assert masks.universe.to_frozenset(mask) == structure.equivalence_class(
                    agent, world
                )


# ---------------------------------------------------------------------------
# Reachability closures
# ---------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=14),
    n_agents=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_component_masks_match_reachable(seed, n_worlds, n_agents, data):
    structure = random_structure(seed, n_worlds=n_worlds, n_agents=n_agents)
    agents = sorted(structure.agents, key=repr)
    members = data.draw(
        st.sets(st.sampled_from(agents), min_size=1, max_size=len(agents))
    )
    group = Group(members)
    for structure in _with_a_restriction(structure):
        masks = structure.evaluation_masks()
        components = masks.component_masks(structure.group_members(group))
        # The components partition the worlds...
        union = 0
        for mask in components:
            assert union & mask == 0
            union |= mask
        assert union == masks.full
        assert tuple(map(masks.universe.to_frozenset, components)) == (
            structure.connected_components(group)
        )
        # ...and the component containing each world is exactly its reachable set.
        for world in structure.worlds:
            bit = masks.universe.bit(world)
            (component,) = [mask for mask in components if mask & bit]
            assert masks.universe.to_frozenset(component) == structure.reachable(
                group, world
            )


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=14),
    data=st.data(),
)
def test_backend_components_match_structure_reachable(seed, n_worlds, data):
    """The BitsetBackend's own closure agrees with the structure's reachability."""
    structure = random_structure(seed, n_worlds=n_worlds)
    agents = sorted(structure.agents, key=repr)
    members = tuple(
        sorted(
            data.draw(st.sets(st.sampled_from(agents), min_size=1)),
            key=repr,
        )
    )
    masks = structure.evaluation_masks()
    # No component_source: the backend computes its own closure.
    backend = BitsetBackend(
        masks.universe,
        {agent: masks.blocks[agent] for agent in structure.agents},
        {agent: masks.class_at[agent] for agent in structure.agents},
    )
    body = data.draw(st.sets(st.sampled_from(masks.universe.elements)))
    body_mask = backend.from_frozenset(body)
    expected = frozenset(
        w
        for w in structure.worlds
        if structure.reachable(Group(members), w) <= frozenset(body)
    )
    assert backend.to_frozenset(backend.common_reachability(members, body_mask)) == expected


# ---------------------------------------------------------------------------
# Construction cost
# ---------------------------------------------------------------------------


def _sequence_transmission():
    spec = get_scenario("sequence_transmission")
    return spec.build(spec.validate_params({"n_bits": 3, "horizon": 4})).model


def _counting(monkeypatch, owner, name, calls):
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)


def test_bitset_interpretation_indexes_views_without_set_conversions(monkeypatch):
    """Complete-history indexing builds no view, no history and no mask_of.

    The histories are numbered from interned event and reading sequences
    (``CompleteHistoryView.class_ids``) and the ids are grouped straight into
    masks, so no ``LocalHistory`` and no frozenset block is built or converted.
    """
    system = _sequence_transmission()
    calls = {"mask_of": [], "view": [], "history": []}
    _counting(monkeypatch, IndexedUniverse, "mask_of", calls["mask_of"])
    _counting(monkeypatch, CompleteHistoryView, "view", calls["view"])
    _counting(monkeypatch, Run, "history", calls["history"])
    interpretation = ViewBasedInterpretation(system, backend="bitset")
    monkeypatch.undo()
    assert calls == {"mask_of": [], "view": [], "history": []}
    assert len(interpretation.points) == system.point_count()


def test_other_views_are_indexed_with_one_view_call_per_point(monkeypatch):
    """A view without its own ``class_ids`` is called once per (processor, point)."""
    system = _sequence_transmission()
    view = LocalStateView(lambda processor, history: len(history.events))
    calls = []
    _counting(monkeypatch, LocalStateView, "view", calls)
    interpretation = ViewBasedInterpretation(system, view=view, backend="bitset")
    monkeypatch.undo()
    expected = [
        (processor, point.run.name, point.time)
        for processor in system.processors
        for point in interpretation.points
    ]
    seen = [(processor, run.name, time) for _, processor, run, time in calls]
    assert sorted(seen, key=repr) == sorted(expected, key=repr)
