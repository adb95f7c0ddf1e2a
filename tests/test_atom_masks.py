"""Differential tests for the engine's atom hook, which hands over masks.

Both hosts give :class:`~repro.engine.EvaluationEngine` a proposition's
extension (the valuation's ``pi``) as a bitmask over the engine's universe:
``ModelChecker`` passes ``KripkeStructure.prop_mask``, and
``ViewBasedInterpretation`` builds every fact's mask in one pass over the
points.  Here each mask, and the extension the engine reads off it on each
backend, is compared with the per-element scan of ``facts_at`` on every
registered scenario, on a system with a custom valuation, and for a
proposition no valuation mentions.
"""

from __future__ import annotations

import pytest

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
