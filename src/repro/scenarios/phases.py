"""Phase-based protocols and timestamped common knowledge (Section 12).

Processors often reason about "the end of phase k" rather than about real time.  In a
system whose clocks are not perfectly synchronised the phases do not end
simultaneously at the different sites, so plain common knowledge of the decision value
is out of reach (Theorem 8); what the processors attain instead is *timestamped*
common knowledge ``C^T`` with the timestamp "end of phase k".

The scenario: two processors with clocks that may be skewed by at most ``skew`` ticks
each decide on a value when their own clock reads ``T``.  The fact ``decided`` is
stable from the moment the first processor decides.  Theorem 12's three statements are
then directly checkable on the resulting system:

(a) with identical clocks, ``C^T decided`` and ``C decided`` agree at the points where
    some clock reads ``T``;
(b) with clocks within ``skew`` of each other, ``C^T decided`` implies
    ``C^skew decided``;
(c) when every clock reads ``T`` at some time in the run, ``C^T decided`` implies
    ``C^<> decided``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.errors import ScenarioError
from repro.experiments.registry import (
    BuiltScenario,
    Parameter,
    ScenarioSignature,
    register_scenario,
)
from repro.logic.syntax import CDiamond, CEps, CT, Common, Formula, Prop
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.simulation.network import ReliableSynchronous
from repro.systems.clocks import offset_clock, perfect_clock
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "P1",
    "P2",
    "DECIDED",
    "PhaseProtocol",
    "build_phase_system",
    "timestamped_common_knowledge",
    "common_knowledge",
    "eps_common_knowledge",
    "eventual_common_knowledge",
]

P1 = "p1"
P2 = "p2"
GROUP = (P1, P2)
DECIDED = Prop("decided")
"""Stable ground fact: some processor has reached its end-of-phase decision."""


class PhaseProtocol(Protocol):
    """Decide (an internal action) when the local clock reads the phase-end time."""

    name = "phase"

    def __init__(self, phase_end: float):
        self.phase_end = phase_end

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        if not history.awake or history.clock_readings is None:
            return Action.nothing()
        reading = history.clock_readings[-1]
        already_decided = any(
            event.label == "decide" for event in history.internal_events()
        )
        if reading >= self.phase_end and not already_decided:
            return Action.act("decide", payload=self.phase_end)
        return Action.nothing()


def _decided_fact(run: Run) -> Mapping[int, frozenset]:
    first: Optional[int] = None
    for time in run.times():
        if any(
            run.performed(p, "decide", time) for p in run.processors
        ):
            first = time
            break
    if first is None:
        return {}
    return {t: frozenset({DECIDED.name}) for t in range(first, run.duration + 1)}


def build_phase_system(
    phase_end: int, skew: int, horizon: Optional[int] = None
) -> System:
    """Enumerate the runs of the phase protocol with clock skews ``0 .. skew``.

    Processor ``p1`` has a perfect clock; ``p2``'s clock may lag behind real time by
    any amount up to ``skew`` ticks (one run per lag).  With ``skew = 0`` the clocks
    are identical and the phases end simultaneously.
    """
    if phase_end < 0 or skew < 0:
        raise ScenarioError("phase_end and skew must be non-negative")
    duration = horizon if horizon is not None else phase_end + skew + 2
    p1_clock = perfect_clock(duration)
    p2_clocks = tuple(offset_clock(duration, -lag) for lag in range(skew + 1))
    return simulate(
        PhaseProtocol(phase_end),
        GROUP,
        duration=duration,
        delivery=ReliableSynchronous(delay=1),
        clocks={P1: (p1_clock,), P2: p2_clocks},
        fact_rules=[_decided_fact],
        system_name=f"phases-T{phase_end}-skew{skew}",
    )


# -- registry entry ----------------------------------------------------------

def _registry_formulas(params):
    """Default formula set: Theorem 12's comparison of the C variants."""
    phase_end, skew = params["phase_end"], params["skew"]
    return {
        "decided": DECIDED,
        f"C^T({phase_end}) decided": timestamped_common_knowledge(phase_end),
        "C decided": common_knowledge(),
        f"C^eps({skew}) decided": eps_common_knowledge(skew),
        "C^<> decided": eventual_common_knowledge(),
    }


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: p2's clock lags by up to ``skew`` (custom clocks)."""
    return ScenarioSignature(
        agents=GROUP,
        horizon=params["phase_end"] + params["skew"] + 2,
        custom_clocks=True,
    )


@register_scenario(
    name="phases",
    summary="phase-end decisions under clock skew: timestamped common knowledge (system of runs)",
    section="Section 12",
    parameters=(
        Parameter("phase_end", int, default=2, minimum=0, description="the clock reading T at which each processor decides"),
        Parameter(
            "skew", int, default=1, minimum=0, maximum=128,
            description="maximum clock skew in ticks (one run per lag)",
        ),
    ),
    formulas=_registry_formulas,
    signature=_registry_signature,
    details=(
        "With skewed clocks the phases do not end simultaneously, so plain C "
        "decided is out of reach (Theorem 8); the processors attain C^T decided "
        "with timestamp 'end of phase', which implies C^skew and C^<> (Theorem 12)."
    ),
)
def build_phases_scenario(phase_end: int, skew: int) -> BuiltScenario:
    """Registry builder: the phase protocol with clock skews 0..skew."""
    return BuiltScenario(
        model=build_phase_system(phase_end, skew),
        note="no focus point: Theorem 12 relates validity of the C variants",
    )


def timestamped_common_knowledge(phase_end: float) -> Formula:
    """``C^T decided`` with timestamp ``T = phase_end``."""
    return CT(GROUP, DECIDED, float(phase_end))


def common_knowledge() -> Formula:
    """Plain ``C decided``."""
    return Common(GROUP, DECIDED)


def eps_common_knowledge(eps: int) -> Formula:
    """``C^eps decided``."""
    return CEps(GROUP, DECIDED, eps)


def eventual_common_knowledge() -> Formula:
    """``C^<> decided``."""
    return CDiamond(GROUP, DECIDED)
