"""The "OK" protocol of Section 11.

R2 and D2 are connected by an unreliable two-way link and have perfectly synchronised
clocks.  Both run: *at time 0, send "OK"; for every k > 0, if you have received k "OK"
messages by time k on your clock, send "OK" at time k; otherwise send nothing.*

Let ``psi`` be "it is time k, for some k >= 1, and some message sent at or before time
k - 1 was not delivered within one time unit".  The paper shows ``psi -> E^1 psi`` is
valid in this system, so by the induction rule ``psi -> C^1 psi`` is valid too:
epsilon-common knowledge (with epsilon = 1) of ``psi`` is attained exactly when
communication is *unsuccessful* — successful communication prevents it.  This is the
paper's demonstration that the analogue of Theorem 5 fails for ``C^eps`` and ``C^<>``
(while Theorem 9 still gives a partial converse).

Experiment E7 uses this system; the same construction also exhibits the example after
Proposition 10, where ``(E^<>)^k phi`` holds for every k while ``C^<> phi`` fails.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import CEps, EveryoneEps, Formula, Prop
from repro.simulation.network import Unreliable
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.clocks import perfect_clock
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "LEFT",
    "RIGHT",
    "DELAYED",
    "OkProtocol",
    "build_ok_system",
    "psi_formula",
    "eps_common_knowledge_of_psi",
]

LEFT = "R2"
RIGHT = "D2"
DELAYED = Prop("late_or_lost")
"""The fact ``psi``: some message sent at or before time k-1 was not delivered within
one time unit (evaluated per point, so it is time-dependent)."""


class OkProtocol(Protocol):
    """Send "OK" at time 0; at time k, send "OK" iff k "OK"s have been received."""

    name = "ok-protocol"

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        other = RIGHT if processor == LEFT else LEFT
        if not history.awake:
            return Action.nothing()
        clock_time = int(history.clock_readings[-1]) if history.clock_readings else time
        received = len(history.received_messages())
        if clock_time == 0:
            return Action.send(other, "OK")
        if received >= clock_time:
            return Action.send(other, "OK")
        return Action.nothing()


def _delayed_fact(run: Run) -> Mapping[int, frozenset]:
    """``psi`` holds at time k >= 1 if some message sent at or before k-1 has not been
    delivered within one time unit of its sending (it is late or lost)."""
    sends = []
    delivered_at = {}
    for processor in run.processors:
        for time in run.times():
            for event in run.events_at(processor, time):
                kind = type(event).__name__
                if kind == "SendEvent":
                    sends.append((event.message, time))
                elif kind == "ReceiveEvent":
                    delivered_at[event.message] = time
    facts = {}
    for point_time in range(1, run.duration + 1):
        late = False
        for message, send_time in sends:
            if send_time > point_time - 1:
                continue
            delivery = delivered_at.get(message)
            if delivery is None or delivery > send_time + 1:
                # Not delivered within one time unit.  A message still in flight
                # counts once its deadline (send_time + 1) has passed.
                if delivery is not None or point_time >= send_time + 1:
                    late = True
                    break
        if late:
            facts[point_time] = frozenset({DELAYED.name})
    return facts


def build_ok_system(horizon: int) -> System:
    """All runs of the OK protocol over an unreliable link, up to ``horizon``."""
    if horizon < 1:
        raise ScenarioError("horizon must be at least 1")
    clock = perfect_clock(horizon)
    return simulate(
        OkProtocol(),
        (LEFT, RIGHT),
        duration=horizon,
        delivery=Unreliable(delay=1),
        clocks={LEFT: (clock,), RIGHT: (clock,)},
        fact_rules=[_delayed_fact],
        system_name=f"ok-protocol-h{horizon}",
        max_runs=100_000,
    )


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

def _registry_formulas(params):
    """Default formula set: psi and its epsilon-common-knowledge closure."""
    eps = params["eps"]
    group = (LEFT, RIGHT)
    return {
        "psi": DELAYED,
        f"E^eps({eps}) psi": EveryoneEps(group, DELAYED, eps),
        f"C^eps({eps}) psi": CEps(group, DELAYED, eps),
    }


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: R2 and D2, runs last ``horizon`` ticks.

    Both processors read a perfect clock, so a timestamp past the horizon is
    unreachable and the checker reports it as an error.
    """
    return ScenarioSignature(
        agents=(LEFT, RIGHT), horizon=params["horizon"], custom_clocks=False
    )


def build_ok_protocol_scenario(horizon: int, eps: int) -> BuiltScenario:
    """Registry builder: every run of the OK protocol (``eps`` sizes only the formulas)."""
    return BuiltScenario(
        model=build_ok_system(horizon),
        note="no focus point: the Section 11 claims are validity claims",
    )


def psi_formula() -> Formula:
    """The fact ``psi`` of the Section 11 example."""
    return DELAYED


def eps_common_knowledge_of_psi(eps: int = 1) -> Formula:
    """``C^eps psi`` for the two processors of the OK system."""
    return CEps((LEFT, RIGHT), DELAYED, eps)
