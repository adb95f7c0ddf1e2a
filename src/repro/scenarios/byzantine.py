"""A byzantine-style faulty sender: an equivocating general and two receivers.

A general ``gen`` broadcasts a vote bit to two receivers.  In some runs the
general is *faulty* ("byzantine" in the traditional sense restricted to
equivocation): it tells ``r0`` the vote is 0 and ``r1`` the vote is 1.  The
receivers echo whatever they heard to each other, so in faulty runs each
receiver eventually holds a vote and a contradicting echo — the classical
detection pattern — while in honest runs vote and echo always agree.

The faulty behaviour is not a separate protocol: the general's initial state
(``"zero"``, ``"one"`` or ``"byz"``) selects it, so the system of runs contains
honest and faulty executions side by side and knowledge formulas can ask when a
receiver *knows* the general is faulty.  Because the receivers' echo channel is
reliable, detection does not stop at private knowledge: once both echoes land,
the faulty run's histories are unique and ``faulty`` becomes common knowledge
among the receivers — the reliable-channel escape hatch that the unreliable
coordinated-attack setting famously lacks.  An adversarial drop schedule
(``drop_first``) closes that hatch.

The ``drop_first`` parameter composes an
:class:`~repro.simulation.network.AdversarialDrops` schedule over the
reliable channel that silently discards the first ``k`` messages sent in the
run (message uids are the global send order), so sweeps can watch detection —
and the knowledge it creates — disappear as the adversary grows stronger.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import Common, Eventually, Everyone, Knows, Prop
from repro.simulation.network import AdversarialDrops, ReliableSynchronous
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.runs import LocalHistory, Run

__all__ = ["GENERAL", "RECEIVERS", "EquivocatingGeneralProtocol"]

GENERAL = "gen"
RECEIVERS = ("r0", "r1")


class EquivocatingGeneralProtocol(Protocol):
    """Broadcast a vote — honestly or equivocating — then let receivers echo.

    The general's initial state picks its behaviour: ``"zero"``/``"one"`` send
    that bit to both receivers, ``"byz"`` sends 0 to ``r0`` and 1 to ``r1``.
    Each receiver echoes the first vote it hears to the other receiver, once.
    """

    name = "equivocating-general"

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        """General: broadcast once at wake-up.  Receivers: echo the vote once."""
        if not history.awake:
            return Action.nothing()
        if processor == GENERAL:
            if history.sent_messages():
                return Action.nothing()
            state = history.initial_state
            if state == "byz":
                votes = {RECEIVERS[0]: 0, RECEIVERS[1]: 1}
            else:
                bit = 1 if state == "one" else 0
                votes = {receiver: bit for receiver in RECEIVERS}
            action = Action.nothing()
            for receiver in RECEIVERS:
                action = action.also_send(receiver, ("vote", votes[receiver]))
            return action
        if history.sent_messages():
            return Action.nothing()
        votes = [
            message.content[1]
            for message in history.received_messages()
            if message.content[0] == "vote"
        ]
        if votes:
            other = RECEIVERS[1] if processor == RECEIVERS[0] else RECEIVERS[0]
            return Action.send(other, ("echo", votes[0]))
        return Action.nothing()


def _byzantine_facts(run: Run) -> Mapping[int, frozenset]:
    """``faulty`` in equivocation runs; ``detect_r`` once ``r`` sees a mismatch."""
    facts: Dict[int, set] = {time: set() for time in run.times()}
    if run.initial_state(GENERAL) == "byz":
        for time in run.times():
            facts[time].add("faulty")
    for receiver in RECEIVERS:
        vote = None
        echo = None
        for time in run.times():
            for event in run.events_at(receiver, time):
                if type(event).__name__ != "ReceiveEvent":
                    continue
                kind, bit = event.message.content
                if kind == "vote" and vote is None:
                    vote = bit
                elif kind == "echo" and echo is None:
                    echo = bit
            if vote is not None and echo is not None and vote != echo:
                for later in range(time, run.duration + 1):
                    facts[later].add(f"detect_{receiver}")
                break
    return {time: frozenset(names) for time, names in facts.items() if names}


def _formulas(params: Mapping[str, object]) -> Dict[str, object]:
    """The suite: does detection turn private knowledge of faultiness on?"""
    faulty = Prop("faulty")
    detect0 = Prop(f"detect_{RECEIVERS[0]}")
    return {
        "faulty": faulty,
        f"detect_{RECEIVERS[0]}": detect0,
        f"<> detect_{RECEIVERS[0]}": Eventually(detect0),
        f"K_{RECEIVERS[0]} faulty": Knows(RECEIVERS[0], faulty),
        "E faulty": Everyone(RECEIVERS, faulty),
        "C faulty": Common(RECEIVERS, faulty),
    }


def _registry_signature(params: Mapping[str, object]) -> ScenarioSignature:
    """Static signature: the general and both receivers, runs last ``horizon`` ticks."""
    return ScenarioSignature(agents=(GENERAL,) + RECEIVERS, horizon=params["horizon"])


def build_byzantine_general_scenario(horizon: int, drop_first: int) -> BuiltScenario:
    """Registry builder: the honest and equivocating runs under the drop adversary."""
    system = simulate(
        EquivocatingGeneralProtocol(),
        (GENERAL,) + RECEIVERS,
        duration=horizon,
        delivery=AdversarialDrops(
            ReliableSynchronous(1), lambda message, time: message.uid < drop_first
        ),
        initial_states={GENERAL: ("zero", "one", "byz")},
        fact_rules=(_byzantine_facts,),
        system_name=f"byzantine-h{horizon}-d{drop_first}",
    )
    return BuiltScenario(
        model=system,
        note="three runs: honest-0, honest-1, and the equivocating general",
    )
