"""Differential harness for the incremental model-update fast path.

``KripkeStructure.restrict`` / ``refine_agent`` / ``refine_agents`` construct
*derived* structures in bitmask space (masks remapped from the parent, frozenset
partitions materialised lazily, proposition extensions inherited).  That fast path
is only admissible because a derived structure is *observably identical* to the
structure the seed code would have rebuilt from scratch.  This module enforces
that, in the style of ``test_engine_equivalence.py``: naive from-scratch reference
implementations (transcriptions of the pre-fast-path code) are compared against
the derived results on seeded random structures, world-for-world and
formula-for-formula, on both engine backends.  The class-id bisimulation and
quotient get the same treatment against the seed's fixed-point partition
refinement (the ``test_worklist_*`` names date from the worklist refinement
that came before; the fuzz sweeps stay as regression coverage).  The reference implementations live in
:mod:`repro.kripke.reference`, shared with the announcement-chain benchmark so
the test oracle and the measured baseline are the same code.
"""

from __future__ import annotations

import random

import pytest

from _engine_gen import formula_suite, random_structure
from repro.engine import set_default_backend
from repro.errors import ModelError, UnknownWorldError
from repro.experiments.registry import get_scenario
from repro.kripke.announcement import (
    UpdateChain,
    announce_sequence,
    public_announce,
    simultaneous_answers,
)
from repro.kripke import bisimulation
from repro.kripke.bisimulation import are_bisimilar, bisimulation_classes, minimize, quotient
from repro.kripke.builders import others_attribute_model, shared_memory_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import (
    bisimulation_classes_fixpoint,
    others_attribute_class_ids,
    refine_agent_rebuild,
    restrict_rebuild,
)
from repro.kripke.structure import KripkeStructure
from repro.logic.syntax import C, Knows, Prop
from repro.scenarios.muddy_children import MuddyChildren

BACKENDS = ("frozenset", "bitset")
SEEDS = (11, 22, 33, 44, 55)


def naive_simultaneous_answers(structure, answers, backend):
    """The seed's simultaneous_answers: per-agent extensions + chained refines."""
    checker = ModelChecker(structure, backend=backend)
    extensions = [checker.extension(Knows(agent, claim)) for agent, claim in answers]

    def answer_vector(world):
        return tuple(world in extension for extension in extensions)

    refined = structure
    for agent in structure.agents:
        refined = refine_agent_rebuild(refined, agent, answer_vector)
    return refined


# ---------------------------------------------------------------------------
# Shared assertion helpers
# ---------------------------------------------------------------------------


def assert_observably_identical(derived, rebuilt, seed=0):
    """Every public observation of ``derived`` matches the from-scratch rebuild.

    ``derived`` keeps its build's numbering while the rebuild numbers its own
    worlds alone, so their masks are compared through the worlds they hold.
    """
    assert derived == rebuilt
    assert derived.worlds == rebuilt.worlds
    assert derived.propositions() == rebuilt.propositions()
    masks = derived.evaluation_masks()
    universe = masks.universe
    assert universe.to_frozenset(masks.full) == rebuilt.worlds
    for agent in derived.agents:
        assert set(derived.partition(agent)) == set(rebuilt.partition(agent))
        # The mask-level view, in the root numbering, holds the rebuild's classes.
        blocks = masks.blocks[agent]
        assert all(block and not block & ~masks.full for block in blocks)
        assert set(map(universe.to_frozenset, blocks)) == set(rebuilt.partition(agent))
        for position, world in enumerate(universe):
            class_mask = masks.class_at[agent][position]
            if world in rebuilt:
                assert universe.to_frozenset(class_mask) == rebuilt.equivalence_class(
                    agent, world
                )
            else:
                assert not class_mask & masks.full
    for world in derived.worlds:
        assert derived.facts_at(world) == rebuilt.facts_at(world)
        for agent in derived.agents:
            assert derived.equivalence_class(agent, world) == rebuilt.equivalence_class(
                agent, world
            )
    agents = sorted(derived.agents, key=repr)
    # One fixed probe world for both sides: equal frozensets need not iterate in
    # the same order, and reachable() from two different worlds is incomparable.
    probe = min(derived.worlds, key=repr)
    assert derived.reachable(agents, probe) == rebuilt.reachable(agents, probe)
    assert set(derived.connected_components(agents)) == set(
        rebuilt.connected_components(agents)
    )
    for name in sorted(derived.propositions()):
        expected = frozenset(w for w in derived.worlds if derived.holds_at(name, w))
        assert derived.prop_worlds(name) == expected
        assert rebuilt.prop_worlds(name) == expected
    # Formula-level agreement on both backends.
    props = sorted(derived.propositions()) or ["p0"]
    suite = formula_suite(seed + 7, props, agents, 25)
    for backend in BACKENDS:
        derived_checker = ModelChecker(derived, backend=backend)
        rebuilt_checker = ModelChecker(rebuilt, backend=backend)
        assert derived_checker.extensions(suite) == rebuilt_checker.extensions(suite)


def _survivors(rng, structure):
    worlds = sorted(structure.worlds, key=repr)
    count = rng.randint(1, len(worlds))
    return set(rng.sample(worlds, count))


def _discriminator(rng, structure, buckets=3):
    order = sorted(structure.worlds, key=repr)
    labels = {world: rng.randrange(buckets) for world in order}
    return lambda world: labels[world]


# ---------------------------------------------------------------------------
# restrict / refine differentials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_restrict_matches_from_scratch_rebuild(seed):
    structure = random_structure(seed, n_worlds=14, n_agents=3, n_props=4)
    rng = random.Random(seed)
    survivors = _survivors(rng, structure)
    assert_observably_identical(
        structure.restrict(survivors), restrict_rebuild(structure, survivors), seed
    )


def test_small_restriction_of_a_large_root_matches_its_rebuild():
    """The 13 worlds with at most one muddy child, kept from the 4096 of a
    12-agent block-mask structure: the components of every group, searched
    from the survivors alone, are the rebuild's."""
    agents = [f"c{i:02d}" for i in range(12)]
    structure = others_attribute_class_ids(agents)
    survivors = {world for world in structure.worlds if sum(world) <= 1}
    restricted = structure.restrict(survivors)
    rebuilt = restrict_rebuild(structure, survivors)
    assert_observably_identical(restricted, rebuilt)
    masks, rebuilt_masks = restricted.evaluation_masks(), rebuilt.evaluation_masks()
    for group in (tuple(agents), tuple(agents[:2]), (agents[5],)):
        components = masks.component_masks(group)
        assert all(component and not component & ~masks.full for component in components)
        assert set(map(masks.universe.to_frozenset, components)) == set(
            map(rebuilt_masks.universe.to_frozenset, rebuilt_masks.component_masks(group))
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_refine_agent_matches_from_scratch_rebuild(seed):
    structure = random_structure(seed, n_worlds=14, n_agents=3, n_props=4)
    rng = random.Random(seed * 31)
    discriminator = _discriminator(rng, structure)
    agent = rng.choice(sorted(structure.agents))
    assert_observably_identical(
        structure.refine_agent(agent, discriminator),
        refine_agent_rebuild(structure, agent, discriminator),
        seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_refine_agents_equals_chained_single_refinements(seed):
    structure = random_structure(seed, n_worlds=12, n_agents=3, n_props=3)
    rng = random.Random(seed * 17)
    discriminator = _discriminator(rng, structure)
    multi = structure.refine_agents(structure.agents, discriminator)
    chained = structure
    for agent in structure.agents:
        chained = refine_agent_rebuild(chained, agent, discriminator)
    assert_observably_identical(multi, chained, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_update_chains_stay_identical_to_rebuilds(seed):
    """restrict -> refine -> restrict chains: the derived caches remap transitively."""
    fast = random_structure(seed, n_worlds=16, n_agents=3, n_props=4)
    slow = restrict_rebuild(fast, fast.worlds)
    rng = random.Random(seed * 101)
    for step in range(4):
        if rng.random() < 0.5:
            survivors = _survivors(rng, fast)
            fast = fast.restrict(survivors)
            slow = restrict_rebuild(slow, survivors)
        else:
            discriminator = _discriminator(rng, fast)
            agent = rng.choice(sorted(fast.agents))
            fast = fast.refine_agent(agent, discriminator)
            slow = refine_agent_rebuild(slow, agent, discriminator)
    assert_observably_identical(fast, slow, seed)


def test_restrict_to_all_worlds_returns_self():
    structure = random_structure(5, n_worlds=8)
    assert structure.restrict(structure.worlds) is structure


def test_refine_with_constant_discriminator_returns_self():
    structure = random_structure(6, n_worlds=8)
    assert structure.refine_agents(structure.agents, lambda world: 0) is structure


def test_restrict_to_empty_still_rejected():
    structure = random_structure(7, n_worlds=8)
    with pytest.raises(ModelError):
        structure.restrict(set())


def test_with_valuation_does_not_inherit_parent_prop_masks():
    structure = random_structure(8, n_worlds=8, n_props=2)
    # Warm the parent's proposition masks first, then swap the valuation.
    structure.prop_worlds("p0")
    flipped = structure.with_valuation(
        {w: {"p0"} for w in structure.worlds if not structure.holds_at("p0", w)}
    )
    expected = frozenset(w for w in flipped.worlds if flipped.holds_at("p0", w))
    assert flipped.prop_worlds("p0") == expected
    for agent in structure.agents:
        assert set(flipped.partition(agent)) == set(structure.partition(agent))


# ---------------------------------------------------------------------------
# Announcement-layer differentials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_simultaneous_answers_matches_naive_per_agent_loop(backend):
    structure = others_attribute_model(("a", "b", "c"))
    answers = [(agent, Prop(f"muddy_{agent}")) for agent in ("a", "b", "c")]
    fast = simultaneous_answers(
        structure, answers, checker=ModelChecker(structure, backend=backend)
    )
    slow = naive_simultaneous_answers(structure, answers, backend)
    assert_observably_identical(fast, slow, seed=3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_update_chain_replays_the_seed_round_loop(backend):
    """UpdateChain (announce + answer rounds) == per-round from-scratch rebuilds."""
    children = ("a", "b", "c", "d")
    claims = [(child, Prop(f"muddy_{child}")) for child in children]
    actual = (True, True, True, False)

    chain = UpdateChain(others_attribute_model(children), backend=backend)
    chain.announce(Prop("at_least_one"))

    slow = others_attribute_model(children)
    checker = ModelChecker(slow, backend=backend)
    slow = restrict_rebuild(slow, checker.extension(Prop("at_least_one")))

    for round_number in range(1, len(children) + 1):
        extensions = chain.answer_round(claims)
        fast_answers = [actual in extension for extension in extensions]
        slow_checker = ModelChecker(slow, backend=backend)
        slow_answers = [
            slow_checker.holds(Knows(child, claim), actual) for child, claim in claims
        ]
        assert fast_answers == slow_answers, f"round {round_number}"
        slow = naive_simultaneous_answers(slow, claims, backend)
        assert_observably_identical(chain.model, slow, seed=round_number)


def answer_vector(structure, answers, backend):
    """The world -> tuple of public answers discriminator of one round."""
    checker = ModelChecker(structure, backend=backend)
    extensions = checker.extensions([Knows(agent, claim) for agent, claim in answers])
    return lambda world: tuple(world in extension for extension in extensions)


def answer_vector_refinement(structure, answers, backend):
    """A round of public answers refined through ``refine_agents`` and a
    per-world answer-vector discriminator, as answer rounds used to run."""
    return structure.refine_agents(
        structure.agents, answer_vector(structure, answers, backend)
    )


def split_blocks_by_value(structure, agent, discriminator):
    """``agent``'s blocks, each split in place by discriminator value, the
    parts in order of their lowest world: the refinement order, spelled out
    world by world, in the root numbering."""
    masks = structure.evaluation_masks()
    blocks = []
    for block in masks.blocks[agent]:
        parts = {}
        for position, world in enumerate(masks.universe):
            if block >> position & 1:
                value = discriminator(world)
                parts[value] = parts.get(value, 0) | 1 << position
        blocks.extend(parts.values())
    return tuple(blocks)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_mask_answer_rounds_match_the_answer_vector_refinement(seed, backend):
    """Answer rounds split blocks by the answer masks in mask space; the
    partitions, block order included, are those of ``refine_agents``."""
    rng = random.Random(f"answer-masks/{seed}")
    cube = others_attribute_model(("a", "b", "c", "d"))
    starts = [
        random_structure(seed, n_worlds=12, n_agents=3, n_props=3),
        cube,
        public_announce(cube, Prop("at_least_one")),
    ]
    for structure in starts:
        agents = sorted(structure.agents, key=repr)
        props = sorted(structure.propositions())
        for _ in range(3):
            claims = formula_suite(
                rng.randrange(10**6), props, agents, rng.randint(1, 4), max_depth=2
            )
            answers = [(rng.choice(agents), claim) for claim in claims]
            fast = simultaneous_answers(
                structure, answers, checker=ModelChecker(structure, backend=backend)
            )
            slow = answer_vector_refinement(structure, answers, backend)
            assert (fast is structure) == (slow is structure)
            vector = answer_vector(structure, answers, backend)
            fast_blocks = fast.evaluation_masks().blocks
            for agent in agents:
                assert fast_blocks[agent] == slow.evaluation_masks().blocks[agent]
                assert fast_blocks[agent] == split_blocks_by_value(structure, agent, vector)
                assert fast.partition(agent) == slow.partition(agent)
            structure = fast


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, muddy", [(1, (0,)), (3, (0, 2)), (5, (1, 2, 4)), (6, range(6))])
def test_play_matches_the_answer_vector_round_loop(n, muddy, backend):
    game = MuddyChildren(n, muddy)
    result = game.play(backend=backend)
    claims = [(child, game.muddy_prop(child)) for child in game.children]
    model = public_announce(game.model, game.at_least_one_muddy)
    for outcome in result.rounds:
        checker = ModelChecker(model, backend=backend)
        expected = {
            child: checker.holds(Knows(child, claim), game.actual_world)
            for child, claim in claims
        }
        assert outcome.answers == expected, outcome.round_number
        model = answer_vector_refinement(model, claims, backend)
    assert len(result.rounds) == n + 1


def test_announce_sequence_uses_the_derived_path():
    structure = others_attribute_model(("a", "b", "c"))
    facts = [Prop("at_least_one"), Prop("muddy_a")]
    models = announce_sequence(structure, facts)
    current = structure
    for fact, model in zip(facts, models):
        checker = ModelChecker(current)
        current = restrict_rebuild(current, checker.extension(fact))
        assert model == current


def test_public_announce_accepts_a_reused_checker():
    structure = others_attribute_model(("a", "b"))
    checker = ModelChecker(structure)
    fact = Prop("at_least_one")
    assert public_announce(structure, fact, checker=checker) == public_announce(
        structure, fact
    )


# ---------------------------------------------------------------------------
# Bisimulation / quotient differentials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS + (66, 77, 88))
def test_worklist_bisimulation_matches_fixed_point_reference(seed):
    rng = random.Random(seed)
    structure = random_structure(
        seed, n_worlds=rng.randint(2, 18), n_agents=3, n_props=2
    )
    assert set(bisimulation_classes(structure)) == bisimulation_classes_fixpoint(structure)


def test_worklist_bisimulation_on_muddy_model():
    structure = others_attribute_model(("a", "b", "c"))
    assert set(bisimulation_classes(structure)) == bisimulation_classes_fixpoint(structure)


def test_worklist_bisimulation_fuzz_small_structures():
    """Sweep many small random structures against the fixed-point oracle.

    Kept from the worklist refinement, where enqueuing only the smaller half
    of a split (Hopcroft's rule) produced a too-coarse partition on rare small
    structures (~0.2% of random draws — e.g. the 5-world structure of seed 221
    merged two worlds disagreeing on a nested ``K``), because one agent class
    can meet both halves of a split block.  Any refinement must still get
    those draws right.
    """
    for seed in range(300):
        rng = random.Random(seed)
        structure = random_structure(
            seed,
            n_worlds=rng.randint(2, 9),
            n_agents=rng.randint(1, 3),
            n_props=rng.randint(1, 2),
        )
        assert set(bisimulation_classes(structure)) == bisimulation_classes_fixpoint(
            structure
        ), f"bisimulation refinement diverged from the fixed-point oracle at seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_preserves_every_formula_on_both_backends(seed):
    structure = random_structure(seed, n_worlds=12, n_agents=3, n_props=2)
    reduced, class_of = quotient(structure)
    props = sorted(structure.propositions()) or ["p0"]
    agents = sorted(structure.agents, key=repr)
    suite = formula_suite(seed + 99, props, agents, 30)
    for backend in BACKENDS:
        checker = ModelChecker(structure, backend=backend)
        reduced_checker = ModelChecker(reduced, backend=backend)
        extensions = checker.extensions(suite)
        reduced_extensions = reduced_checker.extensions(suite)
        for formula, extension, reduced_extension in zip(
            suite, extensions, reduced_extensions
        ):
            for world in structure.worlds:
                assert (world in extension) == (
                    class_of[world] in reduced_extension
                ), f"{backend}: {formula!r} disagrees at {world!r}"


def _quotient_by_definition(structure):
    """The quotient over the oracle's classes, through the public constructor:
    two classes are indistinguishable to an agent iff *some* pair of their
    members is, closed transitively."""
    classes = sorted(bisimulation_classes_fixpoint(structure), key=repr)
    partitions = {}
    for agent in structure.agents:
        blocks = []
        unplaced = list(classes)
        while unplaced:
            group = [unplaced.pop()]
            for current in group:
                related = [
                    other
                    for other in unplaced
                    if any(
                        structure.indistinguishable(agent, a, b)
                        for a in current
                        for b in other
                    )
                ]
                for other in related:
                    unplaced.remove(other)
                group.extend(related)
            blocks.append(set(group))
        partitions[agent] = blocks
    valuation = {block: structure.facts_at(next(iter(block))) for block in classes}
    return KripkeStructure(classes, structure.agents, valuation, partitions)


def test_quotient_matches_the_definition_on_small_structures():
    """The class-id quotient equals the public-constructor quotient built from
    the definition, world for world and partition for partition."""
    for seed in range(150):
        rng = random.Random(seed)
        structure = random_structure(
            seed,
            n_worlds=rng.randint(2, 9),
            n_agents=rng.randint(1, 3),
            n_props=rng.randint(1, 2),
        )
        reduced, class_of = quotient(structure)
        assert reduced == _quotient_by_definition(structure), f"seed {seed}"
        for world in structure.worlds:
            assert world in class_of[world] and class_of[world] in reduced


# ---------------------------------------------------------------------------
# The discrete quotient: the structure relabelled
# ---------------------------------------------------------------------------


def _scenario_model(name, params, backend):
    previous = set_default_backend(backend)
    try:
        spec = get_scenario(name)
        return spec.build(spec.validate_params(params)).model
    finally:
        set_default_backend(previous)


def _own_fact_valuation(worlds):
    return {world: {f"at_{world!r}"} for world in worlds}


def _with_own_facts(backend):
    """A random block-mask structure whose new valuation tells every world apart."""
    structure = random_structure(5, n_worlds=10, n_agents=3, n_props=2)
    return structure.with_valuation(_own_fact_valuation(structure.worlds))


def _at_most_one_muddy(backend):
    """7 of the 64 worlds of the muddy n=6 cube: a sparse survivor mask."""
    cube = others_attribute_model(tuple(f"c{i}" for i in range(6)))
    return cube.restrict({world for world in cube.worlds if sum(world) <= 1})


_DISCRETE_CASES = (
    [
        pytest.param(
            lambda backend, n=n, announced=announced: _scenario_model(
                "muddy_children", {"n": n, "k": 1, "announced": announced}, backend
            ),
            id=f"muddy-n{n}{'-announced' if announced else ''}",
        )
        for n in range(1, 9)
        for announced in (False, True)
    ]
    + [
        pytest.param(
            lambda backend: _scenario_model("cheating_husbands", {"n": 5, "k": 2}, backend),
            id="cheating-husbands-n5",
        ),
        pytest.param(
            lambda backend: shared_memory_model(
                ["a", "b"], range(6), lambda w: {f"p{w % 3}", f"q{w // 3}"}
            ),
            id="shared-memory",
        ),
        pytest.param(_with_own_facts, id="with-valuation"),
        pytest.param(_at_most_one_muddy, id="muddy-n6-at-most-one-muddy"),
    ]
)


def _assert_quotient_keeps_truth(structure, reduced, class_of, backend, seed=7):
    agents = sorted(structure.agents, key=repr)
    suite = formula_suite(seed, sorted(structure.propositions()) or ["p0"], agents, 20)
    extensions = ModelChecker(structure, backend=backend).extensions(suite)
    reduced_extensions = ModelChecker(reduced, backend=backend).extensions(suite)
    for formula, extension, reduced_extension in zip(suite, extensions, reduced_extensions):
        assert extension == frozenset(
            world for world in structure.worlds if class_of[world] in reduced_extension
        ), formula


@pytest.mark.parametrize("make", _DISCRETE_CASES)
def test_discrete_quotient_is_the_structure_relabelled(make):
    """A structure whose valuation tells every world apart is its own
    quotient: every world renamed ``{w}`` over the same positions, ``S`` and
    partition source (a cube stays a cube), equal to the quotient built from
    the definition, on both backends."""
    expected = None
    for backend in BACKENDS:
        structure = make(backend)
        reduced, class_of = quotient(structure)
        if expected is None:
            expected = _quotient_by_definition(structure)
        assert reduced == expected
        assert class_of == {world: frozenset({world}) for world in structure.worlds}
        masks, reduced_masks = structure.evaluation_masks(), reduced.evaluation_masks()
        assert reduced_masks.cube is masks.cube
        assert reduced_masks.full == masks.full
        assert reduced_masks.universe.elements == tuple(
            frozenset({world}) for world in masks.universe.elements
        )
        assert len(reduced) == len(structure)
        _assert_quotient_keeps_truth(structure, reduced, class_of, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_discrete_quotient_out_of_repr_order_is_rebuilt(backend):
    """``{12}`` sorts before ``{1}`` although ``12`` sorts after ``1``, so the
    renamed root would leave ``repr`` order: the quotient is rebuilt, and its
    numbering is the one every build gives."""
    structure = KripkeStructure(
        [1, 2, 12], ["a", "b"], _own_fact_valuation([1, 2, 12]), {"a": [{1, 12}], "b": [{2, 12}]}
    )
    assert repr(frozenset({12})) < repr(frozenset({1}))
    reduced, class_of = quotient(structure)
    assert reduced == _quotient_by_definition(structure)
    masks = reduced.evaluation_masks()
    assert masks.cube is None
    assert masks.universe.elements == tuple(sorted(reduced.worlds, key=repr))
    assert masks.full == masks.universe.full_mask
    _assert_quotient_keeps_truth(structure, reduced, class_of, backend)
    assert class_of == {world: frozenset({world}) for world in structure.worlds}


def _inflated(base, copies):
    """``base`` with every world cloned ``copies`` times, the clones
    indistinguishable to every agent."""
    worlds = [(world, copy) for world in base.worlds for copy in range(copies)]
    valuation = {(world, copy): base.facts_at(world) for world, copy in worlds}
    partitions = {
        agent: [
            {(world, copy) for world in block for copy in range(copies)}
            for block in base.partition(agent)
        ]
        for agent in base.agents
    }
    return KripkeStructure(worlds, base.agents, valuation, partitions)


def _chain(length):
    """Worlds ``0 .. length-1`` linked by alternating ``a``/``b`` pairs, ``p``
    true at both ends: only refinement rounds from the ends inward pair each
    world with its mirror."""
    return KripkeStructure(
        range(length),
        ["a", "b"],
        {0: {"p"}, length - 1: {"p"}},
        {
            "a": [{i, i + 1} for i in range(0, length - 1, 2)],
            "b": [{i, i + 1} for i in range(1, length - 1, 2)],
        },
    )


@pytest.mark.parametrize(
    "make, classes",
    [
        pytest.param(
            lambda: _inflated(others_attribute_model(tuple(f"child_{i}" for i in range(7))), 4),
            128,
            id="inflated-512",
        ),
        pytest.param(lambda: _chain(200), 100, id="chain-200"),
    ],
)
def test_collapsing_quotients_still_run_class_id_rounds(make, classes, monkeypatch):
    """Structures with bisimilar worlds keep the class-id refinement rounds
    and the rebuilt quotient."""
    rounds = []
    original = bisimulation._Refinement._rounds

    def counted(self, count):
        rounds.append(count)
        return original(self, count)

    monkeypatch.setattr(bisimulation._Refinement, "_rounds", counted)
    structure = make()
    reduced, class_of = quotient(structure)
    assert rounds
    assert len(reduced) == classes
    masks = reduced.evaluation_masks()
    assert masks.cube is None and len(masks.universe) == classes
    assert set(reduced.worlds) == bisimulation_classes_fixpoint(structure)
    assert all(world in class_of[world] for world in structure.worlds)


def _restrict_refine_chain(seed, backend):
    """A seeded chain that restricts first, then restricts or refines, with
    its from-scratch rebuild; announcements go through ``backend``."""
    rng = random.Random(f"quotient-chain/{seed}")
    fast = random_structure(seed, n_worlds=16, n_agents=3, n_props=2)
    slow = restrict_rebuild(fast, fast.worlds)
    for step in range(4):
        if step == 0 or rng.random() < 0.5:
            fact = Prop(rng.choice(sorted(fast.propositions()) or ["p0"]))
            if rng.random() < 0.5:
                fact = ~fact
            survivors = ModelChecker(fast, backend=backend).extension(fact)
            if not survivors:
                continue
            fast = public_announce(fast, fact, checker=ModelChecker(fast, backend=backend))
            slow = restrict_rebuild(slow, survivors)
        else:
            discriminator = _discriminator(rng, fast, buckets=2)
            agent = rng.choice(sorted(fast.agents))
            fast = fast.refine_agent(agent, discriminator)
            slow = refine_agent_rebuild(slow, agent, discriminator)
    return fast, slow


def _announced_muddy_cube(backend):
    """``muddy_children`` at n=6 after the father's announcement, and its rebuild."""
    previous = set_default_backend(backend)
    try:
        spec = get_scenario("muddy_children")
        model = spec.build(spec.validate_params({"n": 6, "announced": True})).model
    finally:
        set_default_backend(previous)
    cube = others_attribute_model(tuple(sorted(model.agents)))
    return model, restrict_rebuild(cube, model.worlds)


_QUOTIENT_CASES = [
    pytest.param(lambda backend, seed=seed: _restrict_refine_chain(seed, backend), id=f"chain-{seed}")
    for seed in SEEDS
] + [pytest.param(_announced_muddy_cube, id="announced-muddy-cube-n6")]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("make", _QUOTIENT_CASES)
def test_quotient_of_derived_structure_matches_quotient_of_rebuild(make, backend):
    """Bisimulation reads a derived structure's survivors in its build's
    numbering; its quotient, classes and class map match the rebuild's, and
    the quotient keeps every formula's truth on ``backend``."""
    derived, rebuilt = make(backend)
    assert derived == rebuilt
    assert derived.evaluation_masks().full != derived.evaluation_masks().universe.full_mask
    reduced, class_of = quotient(derived)
    rebuilt_reduced, rebuilt_class_of = quotient(rebuilt)
    assert reduced == rebuilt_reduced
    assert class_of == rebuilt_class_of
    assert minimize(derived) == minimize(rebuilt)
    assert bisimulation_classes(derived) == bisimulation_classes(rebuilt)
    assert set(bisimulation_classes(derived)) == bisimulation_classes_fixpoint(rebuilt)
    agents = sorted(derived.agents, key=repr)
    suite = formula_suite(7, sorted(derived.propositions()) or ["p0"], agents, 20)
    extensions = ModelChecker(derived, backend=backend).extensions(suite)
    reduced_extensions = ModelChecker(reduced, backend=backend).extensions(suite)
    for formula, extension, reduced_extension in zip(suite, extensions, reduced_extensions):
        assert extension == frozenset(
            world for world in derived.worlds if class_of[world] in reduced_extension
        ), formula


@pytest.mark.parametrize("make", _QUOTIENT_CASES)
def test_are_bisimilar_on_a_restricted_structure(make):
    derived, rebuilt = make("bitset")
    worlds = sorted(derived.worlds, key=repr)
    for world_a in worlds[:6]:
        for world_b in worlds:
            assert are_bisimilar(derived, world_a, world_b) == are_bisimilar(
                rebuilt, world_a, world_b
            ), (world_a, world_b)
    gone = next(world for world in derived.evaluation_masks().universe if world not in derived)
    with pytest.raises(UnknownWorldError):
        are_bisimilar(derived, gone, worlds[0])
    with pytest.raises(UnknownWorldError):
        are_bisimilar(derived, worlds[0], gone)


def test_minimize_collapses_duplicated_worlds():
    base = others_attribute_model(("a", "b"))
    # Two indistinguishable copies of every world; the quotient must fold the
    # copies back together.
    inflated = _inflated(base, 2)
    reduced = minimize(inflated)
    assert len(reduced) == len(base)
    formula = C(tuple(sorted(base.agents)), Prop("at_least_one"))
    assert ModelChecker(inflated).is_satisfiable(formula) == ModelChecker(
        reduced
    ).is_satisfiable(formula)


def test_public_announce_rejects_checker_over_other_structure():
    structure = others_attribute_model(("a", "b"))
    other = others_attribute_model(("a", "b", "c"))
    with pytest.raises(ModelError, match="different structure"):
        public_announce(structure, Prop("at_least_one"), checker=ModelChecker(other))
    with pytest.raises(ModelError, match="different structure"):
        simultaneous_answers(
            structure,
            [("a", Prop("muddy_a"))],
            checker=ModelChecker(other),
        )


def test_are_bisimilar_rejects_unknown_worlds():
    structure = others_attribute_model(("a", "b"))
    with pytest.raises(UnknownWorldError):
        are_bisimilar(structure, "nope", (True, True))
    with pytest.raises(UnknownWorldError):
        are_bisimilar(structure, (True, True), "nope")


def test_restricted_structures_do_not_retain_their_parent():
    """An update chain must not pin its intermediate models in memory."""
    import gc
    import weakref

    parent = others_attribute_model(("a", "b", "c"))
    parent.prop_worlds("at_least_one")  # warm a mask so inheritance happens
    child = parent.restrict({w for w in parent.worlds if any(w)})
    grandchild = child.refine_agents(child.agents, lambda w: sum(w))
    ref = weakref.ref(parent)
    del parent, child
    gc.collect()
    assert ref() is None, "restrict/refine results kept the ancestor chain alive"
    assert grandchild.prop_worlds("at_least_one")  # inherited mask still correct
