"""Differential tests for the engine's atom hook, which hands over masks.

Both hosts give :class:`~repro.engine.EvaluationEngine` a proposition's
extension (the valuation's ``pi``) as a bitmask over the engine's universe:
``ModelChecker`` passes ``KripkeStructure.prop_mask``, and
``ViewBasedInterpretation`` builds every fact's mask in one pass over the
points.  Here each mask, and the extension the engine reads off it on each
backend, is compared with the per-element scan of ``facts_at`` on every
registered scenario, on a system with a custom valuation, and for a
proposition no valuation mentions.  ``KripkeStructure.prop_mask`` builds
every name's mask in one pass on the first query; it is compared with the
per-name scan on random structures, their restrictions and refinements, and
every Kripke scenario.
"""

from __future__ import annotations

import random

import pytest

from _engine_gen import random_structure
from repro.experiments.registry import KIND_KRIPKE, ScenarioSpec, all_scenarios, get_scenario
from repro.kripke.checker import ModelChecker
from repro.logic.syntax import Prop
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.system import CallableValuation, StaticValuation

BACKENDS = ("frozenset", "bitset")
UNKNOWN = "no_such_proposition"


def _registered_models():
    return [
        pytest.param(spec.build(spec.validate_params({})).model, id=spec.name)
        for spec in all_scenarios()
    ]


def _host(model, backend, valuation=None):
    """The evaluator, its atom hook and the scan's ``facts_at`` per element."""
    if ScenarioSpec.kind_of(model) == KIND_KRIPKE:
        checker = ModelChecker(model, backend=backend)
        return checker, model.prop_mask, model.facts_at
    interpretation = ViewBasedInterpretation(model, valuation=valuation, backend=backend)
    return interpretation, interpretation._prop_extension, interpretation.valuation.facts_at


def _assert_atoms_match_scan(model, backend, valuation=None):
    host, hook, facts_at = _host(model, backend, valuation)
    universe = host.engine.backend.universe
    names = {name for element in universe for name in facts_at(element)}
    assert names, "the scenario should have at least one atom"
    for name in sorted(names) + [UNKNOWN]:
        scan = frozenset(element for element in universe if name in facts_at(element))
        assert hook(name) == universe.mask_of(scan), name
        assert host.extension(Prop(name)) == scan, name
    assert hook(UNKNOWN) == 0
    assert host.extension(Prop(UNKNOWN)) == frozenset()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", _registered_models())
def test_registered_scenarios(model, backend):
    _assert_atoms_match_scan(model, backend)


def _custom_valuations(system):
    names = sorted(run.name for run in system.runs)
    return [
        pytest.param(
            CallableValuation(
                lambda run, time: {"even"} if time % 2 == 0 else {"odd", f"run_{run.name}"}
            ),
            id="callable",
        ),
        pytest.param(
            StaticValuation({(names[0], 0): {"start"}, (names[-1], 1): {"start", "late"}}),
            id="static",
        ),
    ]


SYSTEM = get_scenario("coordinated_attack").build().model


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("valuation", _custom_valuations(SYSTEM))
def test_system_with_custom_valuation(valuation, backend):
    _assert_atoms_match_scan(SYSTEM, backend, valuation)


# -- KripkeStructure.prop_mask: one pass against the per-name scan --------------


def _per_name_scan(structure, name):
    mask = 0
    for position, world in enumerate(structure.world_order()):
        if name in structure.facts_at(world):
            mask |= 1 << position
    return mask


def _assert_prop_masks_match_scan(structure, first):
    structure.prop_mask(first)
    for name in sorted(structure.propositions()) + [UNKNOWN, first]:
        assert structure.prop_mask(name) == _per_name_scan(structure, name), name


@pytest.mark.parametrize("seed", range(40))
def test_kripke_prop_masks_match_per_name_scan(seed):
    rng = random.Random(seed)
    structure = random_structure(
        seed, n_worlds=rng.randint(1, 16), n_agents=rng.randint(1, 3), n_props=rng.randint(1, 5)
    )
    names = sorted(structure.propositions()) + [UNKNOWN]
    structure.prop_mask(rng.choice(names))
    if structure.propositions():
        # The first query filled in every name the valuation mentions.
        assert set(structure._root.prop_masks) >= structure.propositions()
    _assert_prop_masks_match_scan(structure, rng.choice(names))
    kept = rng.sample(sorted(structure.worlds), rng.randint(1, len(structure)))
    restricted = structure.restrict(kept)
    _assert_prop_masks_match_scan(restricted, rng.choice(names))
    labels = {world: rng.randrange(2) for world in restricted.worlds}
    refined = restricted.refine_agents(restricted.agents, labels.__getitem__)
    _assert_prop_masks_match_scan(refined, rng.choice(names))
    fresh = random_structure(seed, n_worlds=len(structure), n_props=3)
    _assert_prop_masks_match_scan(fresh.restrict(sorted(fresh.worlds)[::2]), UNKNOWN)


def _kripke_model(scenario, params):
    """The scenario's Kripke model, or a system's Kripke export (a generic structure)."""
    spec = get_scenario(scenario)
    model = spec.build(spec.validate_params(params)).model
    if ScenarioSpec.kind_of(model) == KIND_KRIPKE:
        return model
    return ViewBasedInterpretation(model).to_kripke()


_CASES = [pytest.param(spec.name, {}, id=spec.name) for spec in all_scenarios()] + [
    pytest.param("muddy_children", {"n": 4, "k": 2, "announced": True}, id="muddy-announced")
]


@pytest.mark.parametrize("scenario,params", _CASES)
def test_kripke_scenario_prop_masks_match_per_name_scan(scenario, params):
    names = sorted(_kripke_model(scenario, params).propositions()) or [UNKNOWN]
    for first in [UNKNOWN, names[0], names[-1]]:
        _assert_prop_masks_match_scan(_kripke_model(scenario, params), first)
