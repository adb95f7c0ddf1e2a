"""The seeded random-protocol family: the fuzzer's registry entry.

``repro run random_protocol -p seed=7 -p delivery=async`` builds the exact
system :func:`repro.simulation.fuzz.random_system` returns for those
arguments, with the standard fuzz fact vocabulary and formula suite attached.
As a registry scenario it gives the differential harness everything
hand-written scenarios get — in particular the parallel sweep path:
``repro sweep random_protocol --param seed=0..N --jobs 4`` rebuilds generated
protocols inside worker processes, which is precisely the cross-process
determinism the keyed-digest construction in :mod:`repro.simulation.fuzz`
exists to guarantee, and what ``tests/test_dsl_fuzz.py`` checks row-for-row
against the serial sweep.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import Formula
from repro.simulation.fuzz import fuzz_formulas, fuzz_processors, random_system


def _formulas(params: Mapping[str, object]) -> Dict[str, Formula]:
    """The standard fuzz suite over this assignment's processor set."""
    return fuzz_formulas(fuzz_processors(params["n_agents"]))


def _registry_signature(params: Mapping[str, object]) -> ScenarioSignature:
    """Static signature: the generated processors, runs last ``horizon`` ticks."""
    return ScenarioSignature(
        agents=fuzz_processors(params["n_agents"]), horizon=params["horizon"]
    )


def build_random_protocol_scenario(
    seed: int, n_agents: int, horizon: int, delivery: str
) -> BuiltScenario:
    """Registry builder: :func:`~repro.simulation.fuzz.random_system` for these arguments."""
    return BuiltScenario(
        model=random_system(seed, n_agents=n_agents, horizon=horizon, delivery=delivery),
        note="seed-derived protocol and initial states; no focus point",
    )
