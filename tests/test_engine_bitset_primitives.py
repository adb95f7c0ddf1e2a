"""Property tests for the bitset primitives behind the fast engine backend.

Three invariants the bitset backend's correctness rests on:

* mask <-> frozenset conversions are mutually inverse bijections;
* each agent's partition masks form a disjoint cover of the universe;
* the G-reachability component masks agree with :meth:`KripkeStructure.reachable`.

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


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=16),
    n_agents=st.integers(min_value=1, max_value=4),
)
def test_partition_masks_form_a_disjoint_cover(seed, n_worlds, n_agents):
    structure = random_structure(seed, n_worlds=n_worlds, n_agents=n_agents)
    full = (1 << len(structure.worlds)) - 1
    for agent in structure.agents:
        masks = structure.partition_masks(agent)
        union = 0
        total_bits = 0
        for mask in masks:
            assert mask, "partition blocks are non-empty"
            assert union & mask == 0, "partition blocks overlap"
            union |= mask
            total_bits += mask.bit_count()
        assert union == full, "partition blocks do not cover the universe"
        assert total_bits == len(structure.worlds)


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
def test_structure_world_mask_round_trip(seed, n_worlds, data):
    structure = random_structure(seed, n_worlds=n_worlds)
    subset = data.draw(st.sets(st.sampled_from(structure.world_order())))
    mask = structure.world_mask(subset)
    assert structure.worlds_from_mask(mask) == frozenset(subset)
    assert structure.world_mask(structure.worlds_from_mask(mask)) == mask
    with pytest.raises(ModelError):
        structure.world_mask(["not-a-world"])


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_worlds=st.integers(min_value=1, max_value=16),
)
def test_class_mask_matches_equivalence_class(seed, n_worlds):
    structure = random_structure(seed, n_worlds=n_worlds)
    for agent in structure.agents:
        for world in structure.worlds:
            mask = structure.class_mask(agent, world)
            assert structure.worlds_from_mask(mask) == structure.equivalence_class(
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
    components = structure.component_masks(group)
    # The components partition the universe...
    union = 0
    for mask in components:
        assert union & mask == 0
        union |= mask
    assert union == (1 << len(structure.worlds)) - 1
    # ...and the component containing each world is exactly its reachable set.
    for world in structure.worlds:
        bit = 1 << structure.world_index(world)
        (component,) = [mask for mask in components if mask & bit]
        assert structure.worlds_from_mask(component) == structure.reachable(
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
    # No component_source: the backend computes its own closure.
    backend = BitsetBackend(
        structure.indexed_universe(),
        {agent: structure.partition_masks(agent) for agent in structure.agents},
        {agent: structure.class_masks_in_order(agent) for agent in structure.agents},
    )
    body = data.draw(st.sets(st.sampled_from(structure.world_order())))
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
