"""Gossip / rumor spreading on a ring of ``n`` processors.

``n`` processors sit on a ring; each starts with a private bit (its "secret").
At every time step each processor sends everything it has learned so far to its
clockwise neighbour.  Under reliable synchronous delivery the secrets propagate
one hop per two time steps (send, deliver), so the interesting knowledge
questions are *when* processor ``j`` comes to know processor ``i``'s secret,
when everyone knows every secret, and why common knowledge of the secrets is
still delayed by the ring's diameter.

The processor tuple, the protocol, the initial states and the formula suite
all depend on ``n``, so one builder covers a whole family of systems.

Facts: ``secret_i`` holds (at every time) in exactly the runs where processor
``i``'s bit is 1 — the valuation varies across the ``2^n`` initial
configurations, which is what makes knowing a secret non-trivial.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import Common, Everyone, Formula, Knows, Or, Prop
from repro.simulation.network import ReliableSynchronous
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.runs import LocalHistory, Run

__all__ = ["RingGossipProtocol", "knows_whether", "gossip_processors"]


def gossip_processors(n: int) -> Tuple[str, ...]:
    """The ring's processor names ``g0 .. g{n-1}``."""
    return tuple(f"g{i}" for i in range(n))


class RingGossipProtocol(Protocol):
    """Every step, forward everything you know to your clockwise neighbour.

    "Everything you know" is the set of ``(origin, bit)`` pairs the processor
    has learned: its own secret plus every pair it has received.  The content is
    a sorted tuple, so identical knowledge states send identical messages and
    the protocol stays a deterministic function of the history.
    """

    name = "ring-gossip"

    def __init__(self, ring: Tuple[str, ...]):
        self.ring = tuple(ring)
        self._next = {p: ring[(i + 1) % len(ring)] for i, p in enumerate(ring)}

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        """Forward the accumulated ``(origin, bit)`` set to the next processor."""
        if not history.awake:
            return Action.nothing()
        known = {(processor, history.initial_state)}
        for message in history.received_messages():
            for origin, bit in message.content:
                known.add((origin, bit))
        return Action.send(self._next[processor], tuple(sorted(known)))


def _secret_facts(run: Run) -> Mapping[int, frozenset]:
    """``secret_i`` holds everywhere in runs where processor ``i``'s bit is 1."""
    names = frozenset(
        f"secret_{i}"
        for i, processor in enumerate(run.processors)
        if run.initial_state(processor) == 1
    )
    if not names:
        return {}
    return {time: names for time in run.times()}


def knows_whether(agent: str, fact: Formula) -> Formula:
    """``K_a fact | K_a ~fact``: the agent knows *which way* the fact goes."""
    return Or((Knows(agent, fact), Knows(agent, ~fact)))


def _formulas(params: Mapping[str, object]) -> Dict[str, object]:
    """The suite: who knows the far secret, and does it ever become common."""
    n = params["n"]
    ring = gossip_processors(n)
    secret0 = Prop("secret_0")
    neighbour = ring[1 % n]
    far = ring[-1]
    return {
        "secret_0": secret0,
        f"K_{neighbour} whether secret_0": knows_whether(neighbour, secret0),
        f"K_{far} whether secret_0": knows_whether(far, secret0),
        "E whether secret_0": Everyone(ring, knows_whether(ring[0], secret0)),
        "C secret_0": Common(ring, secret0),
    }


def _registry_signature(params: Mapping[str, object]) -> ScenarioSignature:
    """Static signature: the ring's processors, runs last ``horizon`` ticks."""
    return ScenarioSignature(agents=gossip_processors(params["n"]), horizon=params["horizon"])


def build_gossip_scenario(n: int, horizon: int) -> BuiltScenario:
    """Registry builder: every run of ring gossip over ``2^n`` secret assignments."""
    ring = gossip_processors(n)
    system = simulate(
        RingGossipProtocol(ring),
        ring,
        duration=horizon,
        delivery=ReliableSynchronous(1),
        initial_states={p: (0, 1) for p in ring},
        fact_rules=(_secret_facts,),
        system_name=f"gossip-n{n}-h{horizon}",
    )
    return BuiltScenario(
        model=system,
        note="2^n runs, one per assignment of secret bits; no focus point",
    )
