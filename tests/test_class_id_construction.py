"""Differential harness for class-id model construction.

Every builder of :mod:`repro.kripke.builders` computes its agents' class ids
arithmetically and installs them through
:meth:`KripkeStructure._from_class_ids`; the public constructor and
``from_worlds`` intern blocks or observations into ids and take the same path.
That is only admissible because the result is *observably identical* to the
seed's construction: frozenset blocks grouped per world by an observation
callable, validated by the constructor, hashed into masks afterwards.  This
module pins that, in the style of ``test_derived_structures.py``, against the
transcriptions in :mod:`repro.kripke.reference` — on seeded builder shapes
(including domains whose ``repr`` order is not their product order), on seeded
random observation callables and on seeded random partitions, world-for-world
and formula-for-formula on both engine backends.
"""

from __future__ import annotations

import itertools
import random

import pytest

from _engine_gen import formula_suite, random_partition
from repro.errors import ModelError, UnknownAgentError, UnknownWorldError
from repro.kripke.builders import (
    blind_model,
    from_worlds,
    observed_variable_model,
    others_attribute_model,
    shared_memory_model,
)
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import (
    constructor_rebuild,
    from_worlds_rebuild,
    others_attribute_rebuild,
)
from repro.kripke.structure import KripkeStructure

BACKENDS = ("frozenset", "bitset")
SEEDS = (11, 22, 33, 44, 55)


def assert_same_construction(built, rebuilt, seed=0):
    """``built`` and the seed-code ``rebuilt`` agree on every public view.

    Both are whole roots, so their masks share the ``repr``-sorted numbering.
    """
    assert built == rebuilt
    built_masks, rebuilt_masks = built.evaluation_masks(), rebuilt.evaluation_masks()
    assert built_masks.universe.elements == rebuilt_masks.universe.elements
    assert built_masks.full == rebuilt_masks.full == built_masks.universe.full_mask
    for agent in built.agents:
        assert built_masks.class_at[agent] == rebuilt_masks.class_at[agent]
        assert set(built_masks.blocks[agent]) == set(rebuilt_masks.blocks[agent])
        assert set(built.partition(agent)) == set(rebuilt.partition(agent))
        for world in built.worlds:
            assert built.equivalence_class(agent, world) == rebuilt.equivalence_class(
                agent, world
            )
    agents = sorted(built.agents, key=repr)
    props = sorted(built.propositions()) or ["p0"]
    suite = formula_suite(seed + 5, props, agents, 25)
    for backend in BACKENDS:
        assert ModelChecker(built, backend=backend).extensions(suite) == ModelChecker(
            rebuilt, backend=backend
        ).extensions(suite), backend


# ---------------------------------------------------------------------------
# The seed's builders, as observation callables over from_worlds_rebuild
# ---------------------------------------------------------------------------


def observed_variable_rebuild(agents, variables, observes):
    names = sorted(variables)
    domains = [list(variables[name]) for name in names]
    assignments = [tuple(zip(names, combo)) for combo in itertools.product(*domains)]

    def valuation(world):
        return {f"{var}={value}" for var, value in world}

    def observation(agent, world):
        visible = observes.get(agent, frozenset())
        return tuple((var, value) for var, value in world if var in visible)

    return from_worlds_rebuild(assignments, agents, valuation, observation)


def _world_valuation(rng, worlds):
    labels = {world: {f"p{j}" for j in range(3) if rng.random() < 0.5} for world in worlds}
    return lambda world: labels[world]


def _random_worlds(rng):
    count = rng.randint(1, 14)
    kind = rng.choice(("int", "str", "tuple"))
    if kind == "int":
        worlds = rng.sample(range(40), count)  # 10 sorts before 2 by repr
    elif kind == "str":
        worlds = [f"w{i}" for i in rng.sample(range(40), count)]
    else:
        worlds = [(i % 3, str(i)) for i in rng.sample(range(40), count)]
    rng.shuffle(worlds)
    return worlds


# ---------------------------------------------------------------------------
# The four builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_others_attribute_model_matches_seed_construction(n):
    agents = [f"c{i}" for i in range(n)]
    random.Random(n).shuffle(agents)  # agent order is not repr order
    assert_same_construction(
        others_attribute_model(agents), others_attribute_rebuild(agents), seed=n
    )


@pytest.mark.parametrize("seed", SEEDS + (66, 77))
def test_observed_variable_model_matches_seed_construction(seed):
    rng = random.Random(seed)
    pools = ([2, 10, 7], [10, 2], ["b", "a", "c"], [True, False], [(1,), (0,)], [3, 1])
    variables = {
        name: rng.choice(pools)[: rng.randint(1, 3)]
        for name in rng.sample("zyxwv", rng.randint(1, 4))
    }
    agents = ["a", "b", "c"]
    observes = {
        agent: set(rng.sample(sorted(variables), rng.randint(0, len(variables))))
        for agent in agents
        if rng.random() < 0.8
    }
    built = observed_variable_model(agents, variables, observes)
    assert_same_construction(
        built, observed_variable_rebuild(agents, variables, observes), seed
    )


def test_observed_variable_model_with_unsorted_domain():
    """``[2, 10]`` enumerates 2 first but numbers ``10`` first (by repr)."""
    variables = {"x": [2, 10], "y": ["b", "a"]}
    observes = {"a": {"x"}, "b": {"y"}}
    built = observed_variable_model(["a", "b"], variables, observes)
    assert built.evaluation_masks().universe.elements[0] == (("x", 10), ("y", "a"))
    assert_same_construction(
        built, observed_variable_rebuild(["a", "b"], variables, observes)
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_memory_and_blind_models_match_seed_construction(seed):
    rng = random.Random(seed)
    worlds = _random_worlds(rng)
    valuation = _world_valuation(rng, worlds)
    agents = ["a", "b"]
    assert_same_construction(
        shared_memory_model(agents, worlds, valuation),
        from_worlds_rebuild(worlds, agents, valuation, lambda agent, world: world),
        seed,
    )
    assert_same_construction(
        blind_model(agents, worlds, valuation),
        from_worlds_rebuild(worlds, agents, valuation, lambda agent, world: None),
        seed,
    )


# ---------------------------------------------------------------------------
# Arbitrary callables and the public constructor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS + (66, 77, 88))
def test_from_worlds_with_random_callables_matches_seed_construction(seed):
    rng = random.Random(seed)
    worlds = _random_worlds(rng)
    agents = [f"a{i}" for i in range(rng.randint(1, 3))]
    views = {
        (agent, world): rng.choice((None, 0, "x", (1, 2), frozenset({3})))
        for agent in agents
        for world in worlds
    }
    valuation = _world_valuation(rng, worlds)

    def observation(agent, world):
        return views[agent, world]

    assert_same_construction(
        from_worlds(worlds, agents, valuation, observation),
        from_worlds_rebuild(worlds, agents, valuation, observation),
        seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_constructor_matches_seed_constructor(seed):
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(rng.randint(1, 16))]
    agents = ["a", "b", "c"]
    valuation = {world: {"p0"} for world in worlds if rng.random() < 0.5}
    # random_partition sometimes leaves worlds out: they become singletons.
    partitions = {agent: random_partition(rng, worlds) for agent in agents}
    partitions["a"].append(set())  # empty blocks are skipped
    assert_same_construction(
        KripkeStructure(worlds, agents, valuation, partitions),
        constructor_rebuild(worlds, agents, valuation, partitions),
        seed,
    )


@pytest.mark.parametrize(
    "partitions, error, message",
    [
        (
            {"a": [{"w0", "w1"}, {"w1"}]},
            ModelError,
            "partition for agent 'a' is not disjoint: worlds [\"'w1'\"] appear twice",
        ),
        (
            {"a": [{"w0", "w9"}]},
            UnknownWorldError,
            "partition for agent 'a' mentions unknown worlds [\"'w9'\"]",
        ),
        (
            {"a": [], "z": [{"w0"}]},
            UnknownAgentError,
            "partitions mention unknown agents: [\"'z'\"]",
        ),
    ],
)
def test_constructor_errors_are_pinned(partitions, error, message):
    worlds, agents = ["w0", "w1"], ["a"]
    for build in (KripkeStructure, constructor_rebuild):
        with pytest.raises(error) as caught:
            build(worlds, agents, {}, partitions)
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# The builders' input checks
# ---------------------------------------------------------------------------


def test_others_attribute_model_rejects_repeated_agents():
    with pytest.raises(ModelError, match="distinct agents"):
        others_attribute_model(["a", "a"])


def test_observed_variable_model_rejects_unknown_variables():
    with pytest.raises(ModelError, match="unknown variables"):
        observed_variable_model(["a"], {"x": [0, 1]}, {"a": {"xx"}})


def test_observed_variable_model_rejects_unknown_agents():
    with pytest.raises(ModelError, match="unknown agents"):
        observed_variable_model(["a"], {"x": [0, 1]}, {"b": {"x"}})
