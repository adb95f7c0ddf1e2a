"""Scenario library (the Scenarios layer of ``docs/architecture.md``): the paper's
worked examples.

Each module builds the relevant model (a Kripke structure or a system of runs) through
the public API of :mod:`repro.kripke`, :mod:`repro.systems` and
:mod:`repro.simulation`, and exposes the quantities the paper reasons about so the
experiments in ``benchmarks/`` and the examples in ``examples/`` stay short.

Every module also registers itself with the scenario registry
(:mod:`repro.experiments.registry`) on import — name, paper section, typed
parameter schema, builder, default formula set — which is what makes the
scenarios enumerable and runnable from the ``python -m repro`` CLI and the
:class:`~repro.experiments.runner.ExperimentRunner`.
"""

from repro.scenarios import (
    broadcast,
    byzantine,
    cheating_husbands,
    commit,
    coordinated_attack,
    fuzzed,
    gossip,
    muddy_children,
    ok_protocol,
    phases,
    r2d2,
    sequence_transmission,
)
from repro.scenarios.dsl import ScenarioRecipe
from repro.scenarios.cheating_husbands import CheatingHusbands, run_cheating_husbands
from repro.scenarios.muddy_children import (
    MuddyChildren,
    MuddyChildrenResult,
    RoundOutcome,
    run_muddy_children,
)

__all__ = [
    "broadcast",
    "byzantine",
    "cheating_husbands",
    "commit",
    "coordinated_attack",
    "fuzzed",
    "gossip",
    "muddy_children",
    "ok_protocol",
    "phases",
    "r2d2",
    "sequence_transmission",
    "ScenarioRecipe",
    "CheatingHusbands",
    "run_cheating_husbands",
    "MuddyChildren",
    "MuddyChildrenResult",
    "RoundOutcome",
    "run_muddy_children",
]
