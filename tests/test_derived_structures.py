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
from repro.errors import ModelError
from repro.kripke.announcement import (
    UpdateChain,
    announce_sequence,
    public_announce,
    simultaneous_answers,
)
from repro.kripke.bisimulation import bisimulation_classes, minimize, quotient
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import (
    bisimulation_classes_fixpoint,
    refine_agent_rebuild,
    restrict_rebuild,
)
from repro.kripke.structure import KripkeStructure
from repro.logic.syntax import C, Knows, Prop

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
    """Every public observation of ``derived`` matches the from-scratch rebuild."""
    assert derived == rebuilt
    assert derived.worlds == rebuilt.worlds
    assert derived.propositions() == rebuilt.propositions()
    for agent in derived.agents:
        assert set(derived.partition(agent)) == set(rebuilt.partition(agent))
        # Mask-level view agrees with the rebuild's own (freshly derived) masks.
        assert set(derived.partition_masks(agent)) == set(rebuilt.partition_masks(agent))
        assert derived.class_masks_in_order(agent) == rebuilt.class_masks_in_order(agent)
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
    order = structure.world_order()
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


def test_quotient_of_derived_structure_matches_quotient_of_rebuild():
    structure = others_attribute_model(("a", "b", "c"))
    survivors = {w for w in structure.worlds if any(w)}
    derived = structure.restrict(survivors)
    rebuilt = restrict_rebuild(structure, survivors)
    assert minimize(derived) == minimize(rebuilt)


def test_minimize_collapses_duplicated_worlds():
    base = others_attribute_model(("a", "b"))
    # Inflate: two indistinguishable copies of every world; the quotient must
    # fold the copies back together.
    worlds = [(w, tag) for w in base.worlds for tag in (0, 1)]
    valuation = {(w, tag): base.facts_at(w) for w, tag in worlds}
    partitions = {
        agent: [
            {(w, tag) for w in block for tag in (0, 1)}
            for block in base.partition(agent)
        ]
        for agent in base.agents
    }
    inflated = KripkeStructure(worlds, base.agents, valuation, partitions)
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
    from repro.errors import UnknownWorldError
    from repro.kripke.bisimulation import are_bisimilar

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
