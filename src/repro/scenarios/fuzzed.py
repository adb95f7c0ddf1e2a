"""The seeded random-protocol family, a catalogued scenario DSL recipe.

This is the fuzzer's front door: ``repro run random_protocol -p seed=7 -p
delivery=async`` builds the exact system :func:`repro.simulation.fuzz.random_system`
returns for those arguments, with the standard fuzz fact vocabulary and formula
suite attached.  As a registry scenario it gives the differential harness
everything hand-written scenarios get — in particular the parallel sweep path:
``repro sweep random_protocol --param seed=0..N --jobs 4`` rebuilds generated
protocols inside worker processes, which is precisely the cross-process
determinism the keyed-digest construction in :mod:`repro.simulation.fuzz`
exists to guarantee, and what ``tests/test_dsl_fuzz.py`` checks row-for-row
against the serial sweep.

Every ingredient is a parameter-dependent callable, so this module is also the
DSL's stress case: processors, protocol, initial states, delivery model and
formula suite all vary with the parameter assignment.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.logic.syntax import Formula
from repro.scenarios.dsl import ScenarioRecipe
from repro.simulation.fuzz import (
    delivery_models,
    fuzz_fact_rule,
    fuzz_formulas,
    fuzz_initial_states,
    fuzz_processors,
    random_protocol,
)

__all__ = ["RECIPE"]


def _formulas(params: Mapping[str, object]) -> Dict[str, Formula]:
    """The standard fuzz suite over this assignment's processor set."""
    return fuzz_formulas(fuzz_processors(params["n_agents"]))


RECIPE = ScenarioRecipe.catalogued(
    "random_protocol",
    processors=lambda params: fuzz_processors(params["n_agents"]),
    protocol=lambda params: random_protocol(
        params["seed"], n_agents=params["n_agents"], horizon=params["horizon"]
    ),
    horizon="horizon",
    delivery=lambda params: delivery_models(params["delivery"], params["horizon"]),
    initial_states=lambda params: fuzz_initial_states(
        params["seed"], params["n_agents"], params["horizon"]
    ),
    fact_rules=(fuzz_fact_rule,),
    formulas=_formulas,
    note="seed-derived protocol and initial states; no focus point",
    system_name=lambda params: (
        f"fuzz-s{params['seed']}-n{params['n_agents']}"
        f"-h{params['horizon']}-{params['delivery']}"
    ),
)

