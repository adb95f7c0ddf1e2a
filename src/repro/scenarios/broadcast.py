"""Broadcast channels and the variants of common knowledge they attain (Section 11).

Two channel types are modelled:

* A *synchronous broadcast channel* with spread ``epsilon``: every message sent is
  received by every other processor within ``L .. L + epsilon`` time units.  When a
  processor receives the broadcast, ``sent(m)`` is epsilon-common knowledge
  (``C^eps``), but not common knowledge.
* An *asynchronous reliable broadcast channel*: every message is eventually received,
  but delivery can take arbitrarily long.  ``sent(m)`` becomes eventual common
  knowledge (``C^<>``) but, by Theorem 11, never epsilon-common knowledge for any
  fixed epsilon (when the uncertainty exceeds epsilon).

These systems drive experiment E7 together with the "OK" protocol of
:mod:`repro.scenarios.ok_protocol`.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import CDiamond, CEps, Common, EDiamond, Everyone, Formula, Prop
from repro.simulation.network import Asynchronous, BoundedUncertain
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.clocks import perfect_clock
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "SENDER",
    "RECEIVERS",
    "SENT",
    "build_synchronous_broadcast_system",
    "build_asynchronous_broadcast_system",
    "eps_common_knowledge",
    "eventual_common_knowledge",
]

SENDER = "p1"
RECEIVERS = ("p2", "p3")
SENT = Prop("sent_m")


class _BroadcastOnce(Protocol):
    """The sender broadcasts one message to every other processor at time 0.

    Whether the sender broadcasts at all is part of its initial state ("send" or
    "quiet"); without that uncertainty ``sent(m)`` would be valid in the system and
    every knowledge state about it would hold trivially.
    """

    name = "broadcast-once"

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        if processor != SENDER or history.sent_messages() or time != 0:
            return Action.nothing()
        if history.initial_state != "send":
            return Action.nothing()
        action = Action.nothing()
        for receiver in RECEIVERS:
            action = action.also_send(receiver, "m")
        return action


def _sent_fact(run: Run) -> Mapping[int, frozenset]:
    send_time: Optional[int] = None
    for time in run.times():
        if any(type(e).__name__ == "SendEvent" for e in run.events_at(SENDER, time)):
            send_time = time
            break
    if send_time is None:
        return {}
    return {t: frozenset({SENT.name}) for t in range(send_time, run.duration + 1)}


def build_synchronous_broadcast_system(
    latency: int, spread: int, horizon: Optional[int] = None
) -> System:
    """A broadcast delivered to every receiver within ``latency .. latency + spread``
    time units; everyone has a synchronised clock."""
    if latency < 0 or spread < 0:
        raise ScenarioError("latency and spread must be non-negative")
    duration = horizon if horizon is not None else latency + spread + 2
    processors = (SENDER,) + RECEIVERS
    clock = perfect_clock(duration)
    return simulate(
        _BroadcastOnce(),
        processors,
        duration=duration,
        delivery=BoundedUncertain(latency, latency + spread),
        initial_states={SENDER: ("send", "quiet")},
        clocks={p: (clock,) for p in processors},
        fact_rules=[_sent_fact],
        system_name=f"sync-broadcast-L{latency}-eps{spread}",
    )


def build_asynchronous_broadcast_system(horizon: int) -> System:
    """A reliable but asynchronous broadcast: delivery at any time up to the horizon,
    or still in flight when the run ends."""
    if horizon < 1:
        raise ScenarioError("horizon must be at least 1")
    processors = (SENDER,) + RECEIVERS
    return simulate(
        _BroadcastOnce(),
        processors,
        duration=horizon,
        delivery=Asynchronous(min_delay=1),
        initial_states={SENDER: ("send", "quiet")},
        fact_rules=[_sent_fact],
        system_name=f"async-broadcast-h{horizon}",
    )


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

def _registry_formulas(params):
    """Default formula set: which variant of common knowledge the channel attains."""
    group = (SENDER,) + RECEIVERS
    eps = params["spread"]
    return {
        "sent": SENT,
        "E sent": Everyone(group, SENT),
        f"C^eps({eps}) sent": eps_common_knowledge(eps),
        "E^<> sent": EDiamond(group, SENT),
        "C^<> sent": eventual_common_knowledge(),
        "C sent": Common(group, SENT),
    }


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: sender + receivers on perfect clocks, variant horizon."""
    if params["variant"] == "sync":
        horizon = params["latency"] + params["spread"] + 2
    else:
        horizon = params["horizon"]
    return ScenarioSignature(agents=(SENDER,) + RECEIVERS, horizon=horizon)


def build_broadcast_scenario(
    variant: str, latency: int, spread: int, horizon: int
) -> BuiltScenario:
    """Registry builder: one of the two broadcast channel types."""
    if variant == "sync":
        system = build_synchronous_broadcast_system(latency, spread)
    else:
        system = build_asynchronous_broadcast_system(horizon)
    return BuiltScenario(
        model=system,
        note="no focus point: the channel guarantees are validity claims",
    )


def eps_common_knowledge(eps: int) -> Formula:
    """``C^eps sent(m)`` among all processors of the broadcast system."""
    return CEps((SENDER,) + RECEIVERS, SENT, eps)


def eventual_common_knowledge() -> Formula:
    """``C^<> sent(m)`` among all processors of the broadcast system."""
    return CDiamond((SENDER,) + RECEIVERS, SENT)
