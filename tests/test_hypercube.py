"""The hypercube path of the muddy-children builder, against the generic path.

:func:`repro.kripke.builders.others_attribute_model` emits a *cube*: each
agent's classes are the subcubes over the index bits it cannot see, and the
bitset backend evaluates ``K``, ``E``, ``D`` and ``C`` with shift-and-mask
closures, while a public announcement only shrinks the survivor mask.  These
tests pin that path to two independent references:

* the seed's frozenset rebuilds (:func:`~repro.kripke.reference.others_attribute_rebuild`
  and :func:`~repro.kripke.reference.restrict_rebuild`) evaluated on the
  frozenset oracle, for every extension along chains of public announcements;
* the generic class-id structure over the same worlds
  (:func:`~repro.kripke.reference.others_attribute_class_ids`), restricted
  through the generic path, for every public accessor (numbering, partitions,
  valuation, ``==``) and every mask of ``evaluation_masks()``, which must
  answer exactly as before.  Both keep the numbering of the 2^n cube, so their
  masks compare directly.

A mechanism test checks that building and evaluating a ``kripke_sweep``-style
batch never builds a block, a reachability component or a per-world
valuation.
"""

from __future__ import annotations

import random

import pytest

from _engine_gen import common_as_fixpoint, formula_suite
from repro.engine import backends as engine_backends
from repro.engine import universe as engine_universe
from repro.experiments.runner import ExperimentRunner
from repro.kripke import builders
from repro.kripke import structure as kripke_structure
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import (
    others_attribute_class_ids,
    others_attribute_rebuild,
    restrict_rebuild,
)
from repro.logic.parser import parse
from repro.logic.syntax import Common, Knows, Not, Or, Prop, Var

UNKNOWN = "no_such_proposition"


def _vocabulary(agents):
    return [f"muddy_{agent}" for agent in agents] + ["at_least_one", UNKNOWN]


def _announcement(rng, checker, candidates):
    """A random formula whose extension is neither empty nor everything."""
    size = len(checker.structure)
    for formula in candidates:
        count = len(checker.extension(formula))
        if 0 < count < size and rng.random() < 0.7:
            return formula
    return None


def assert_accessors_equal(cube, generic):
    """Every public accessor of the cube structure answers as the generic one."""
    assert cube == generic and generic == cube
    assert len(cube) == len(generic)
    assert cube.worlds == generic.worlds
    cube_masks, generic_masks = cube.evaluation_masks(), generic.evaluation_masks()
    assert cube_masks.universe.elements == generic_masks.universe.elements
    assert cube_masks.full == generic_masks.full
    assert cube.propositions() == generic.propositions()
    for agent in sorted(generic.agents):
        assert cube.partition(agent) == generic.partition(agent)
        assert cube_masks.blocks[agent] == generic_masks.blocks[agent]
        assert cube_masks.class_at[agent] == generic_masks.class_at[agent]
    for name in _vocabulary(sorted(generic.agents)):
        assert cube_masks.prop_mask(name) == generic_masks.prop_mask(name), name
        assert cube.prop_worlds(name) == generic.prop_worlds(name), name
    agents = sorted(generic.agents)
    groups = list(dict.fromkeys([tuple(agents), tuple(agents[:2]), (agents[-1],)]))
    for group in groups:
        members = generic.group_members(group)
        assert cube_masks.component_masks(members) == generic_masks.component_masks(
            members
        ), group
        assert cube.connected_components(group) == generic.connected_components(group)
    for world in generic_masks.universe.elements_of(generic_masks.full):
        assert cube.facts_at(world) == generic.facts_at(world)
        for group in groups:
            assert cube.joint_class(group, world) == generic.joint_class(group, world)
            assert cube.reachable(group, world) == generic.reachable(group, world)
            assert cube.reachable_within(group, world, 1) == generic.reachable_within(
                group, world, 1
            )


@pytest.mark.parametrize("n", range(1, 11))
def test_cube_matches_rebuild_along_announcement_chains(n):
    rng = random.Random(f"hypercube/{n}")
    agents = [f"c{i}" for i in range(n)]
    props = _vocabulary(agents)
    cube = others_attribute_model(agents)
    rebuilt = others_attribute_rebuild(agents)
    generic = others_attribute_class_ids(agents)
    count = 14 if n <= 8 else 8
    for step in range(4):
        suite = formula_suite(rng.randrange(10**6), props, agents, count, max_depth=3)
        fixpoint_suite = [common_as_fixpoint(formula) for formula in suite]
        oracle = ModelChecker(rebuilt, backend="frozenset")
        expected = oracle.extensions(suite)
        for backend in ("bitset", "frozenset"):
            checker = ModelChecker(cube, backend=backend)
            assert checker.extensions(suite) == expected, (step, backend)
            # C_G once more, as nu Y. E_G(phi & Y) over the cube's K kernel.
            assert checker.extensions(fixpoint_suite) == expected, (step, backend)
        assert_accessors_equal(cube, generic)
        if step == 3:
            break
        fact = _announcement(rng, oracle, suite)
        if fact is None:
            break
        survivors = oracle.extension(fact)
        rebuilt = restrict_rebuild(rebuilt, survivors)
        generic = generic.restrict(survivors)
        cube = cube.restrict_mask(ModelChecker(cube).extension_mask(fact))
        assert cube.evaluation_masks().cube is not None


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("form", ["reachability", "fixpoint"])
def test_common_knowledge_paths_stay_inside_the_survivors(n, form):
    """After announcing a parity no single flip stays inside the model, so
    every agent's class is a singleton and ``C_G phi`` is ``phi``: a path
    through a removed world would join what the announcement separated.
    The ``fixpoint`` form evaluates every ``C_G phi`` as ``nu Y. E_G(phi & Y)``,
    a second computation over the restricted cube's ``K`` kernel."""
    agents = [f"c{i}" for i in range(n)]
    parity = parse(" <-> ".join(f"muddy_{agent}" for agent in agents))
    cube = others_attribute_model(agents)
    cube = cube.restrict_mask(ModelChecker(cube).extension_mask(parity))
    rebuilt = others_attribute_rebuild(agents)
    rebuilt = restrict_rebuild(rebuilt, ModelChecker(rebuilt).extension(parity))
    assert len(cube) == len(rebuilt) == 2 ** (n - 1)
    props = _vocabulary(agents)
    suite = [
        parse(f"C_{{{','.join(agents[:size])}}} ({phi})")
        for size in range(1, n + 1)
        for phi in ("muddy_c0", "!muddy_c0 & !muddy_c1", "at_least_one")
    ] + formula_suite(n, props, agents, 10, max_depth=3)
    expected = ModelChecker(rebuilt, backend="frozenset").extensions(suite)
    if form == "fixpoint":
        suite = [common_as_fixpoint(formula) for formula in suite]
    for backend in ("bitset", "frozenset"):
        checker = ModelChecker(cube, backend=backend)
        assert checker.extensions(suite) == expected, backend


def test_environment_values_are_clipped_to_the_survivors():
    agents = ["a", "b", "c"]
    cube = others_attribute_model(agents)
    generic = others_attribute_class_ids(agents)
    at_least_one = parse("at_least_one")
    cube = cube.restrict_mask(ModelChecker(cube).extension_mask(at_least_one))
    generic = generic.restrict_mask(ModelChecker(generic).extension_mask(at_least_one))
    environment = {"X": frozenset({(False, False, False), (True, False, False), "stranger"})}
    x = Var("X")
    formulas = [x, Not(x), Knows("a", x), Common(("a", "b"), Not(x)), Or((x, Prop("muddy_c")))]
    for backend in ("bitset", "frozenset"):
        extensions = ModelChecker(cube, backend=backend).extensions(formulas, environment)
        assert extensions == ModelChecker(generic, backend=backend).extensions(
            formulas, environment
        )
        assert extensions[0] == {(True, False, False)}


def test_restrict_by_worlds_matches_restrict_mask():
    agents = ["a", "b", "c", "d"]
    cube = others_attribute_model(agents)
    survivors = {w for w in cube.worlds if sum(w) != 2}
    by_worlds = cube.restrict(survivors | {"not a world"})
    by_mask = cube.restrict_mask(cube.evaluation_masks().universe.mask_of(survivors))
    assert_accessors_equal(by_worlds, by_mask)
    assert_accessors_equal(by_worlds, others_attribute_class_ids(agents).restrict(survivors))
    assert cube.restrict(cube.worlds) is cube


def test_derived_structures_of_a_cube_take_the_generic_path():
    agents = ["a", "b", "c"]
    cube = others_attribute_model(agents)
    generic = others_attribute_class_ids(agents)
    announced = cube.restrict({w for w in cube.worlds if any(w)})
    announced_generic = generic.restrict({w for w in generic.worlds if any(w)})

    def split(world):
        return world[0] and world[1]

    refined = announced.refine_agents(["a", "b"], split)
    assert refined.evaluation_masks().cube is None
    assert_accessors_equal(refined, announced_generic.refine_agents(["a", "b"], split))
    relabelled = announced.with_valuation({w: {"p"} for w in announced.worlds if w[2]})
    assert relabelled.evaluation_masks().cube is None
    prop_mask = relabelled.evaluation_masks().prop_mask
    assert prop_mask("p") == announced.evaluation_masks().prop_mask("muddy_c")
    assert prop_mask("at_least_one") == 0


# -- mechanism -------------------------------------------------------------------

BATCH = [
    ("m", "at_least_one"),
    ("E^1 m", "E^1_{child_0,child_2,child_3,child_5,child_6} at_least_one"),
    ("E^2 m", "E^2_{child_0,child_2,child_3,child_5,child_6} at_least_one"),
    ("E^3 m", "E^3_{child_0,child_2,child_3,child_5,child_6} at_least_one"),
    ("D muddy", "D_{child_1,child_2,child_4} muddy_child_4"),
    ("D self", "D_{child_4} muddy_child_4"),
    ("C m", "C_{child_0,child_2,child_3,child_5,child_6} at_least_one"),
    ("C C m", "C_{child_1,child_3} C_{child_0,child_2,child_3,child_5,child_6} at_least_one"),
    ("nu E m", "nu X. E_{child_0,child_2,child_3,child_5,child_6} (at_least_one & X)"),
]


@pytest.mark.parametrize("announced", [False, True])
def test_cube_evaluation_builds_no_block_component_or_valuation(monkeypatch, announced):
    def forbidden(*args, **kwargs):
        raise AssertionError("the cube path must not reach this")

    for module in (kripke_structure, engine_universe):
        monkeypatch.setattr(module, "partition_from_class_ids", forbidden)
    for module in (kripke_structure, engine_backends, engine_universe):
        monkeypatch.setattr(module, "reachability_components", forbidden)
    monkeypatch.setattr(builders, "_attribute_facts", forbidden)
    # The production backend, also when the suite runs on the oracle.
    monkeypatch.setattr(engine_backends, "_default_backend", "bitset")

    params = {"n": 10, "k": 3, "announced": announced}
    formulas = [(label, parse(text)) for label, text in BATCH]
    report = ExperimentRunner().run("muddy_children", params, formulas=formulas)
    assert [row.label for row in report.rows] == [label for label, _ in BATCH]

    model = others_attribute_model([f"child_{i}" for i in range(10)])
    if announced:
        model = model.restrict_mask(ModelChecker(model).extension_mask(parse("at_least_one")))
    checker = ModelChecker(model, backend="bitset")
    focus = (True, True, True) + (False,) * 7
    summaries = checker.engine.summaries([formula for _, formula in formulas], focus)
    assert [(row.count, row.holds_at_focus) for row in report.rows] == summaries
    assert checker.extensions([formula for _, formula in formulas])


def test_mechanism_guard_trips_on_the_generic_path(monkeypatch):
    """The guard in the mechanism test is live: a frozenset-level accessor
    reaches the per-world valuation and the block grouping."""
    def facts(*args):
        raise LookupError("per-world valuation")

    monkeypatch.setattr(builders, "_attribute_facts", facts)
    model = others_attribute_model(["a", "b"])
    with pytest.raises(LookupError):
        model.facts_at((True, False))
    monkeypatch.setattr(
        kripke_structure,
        "partition_from_class_ids",
        lambda ids: pytest.fail("grouped the blocks"),
    )
    with pytest.raises(pytest.fail.Exception):
        model.partition("a")
