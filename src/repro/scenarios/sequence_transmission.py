"""The sequence transmission problem over a faulty line.

A sender ``S`` must transmit a sequence of bits to a receiver ``R`` over a
channel that may lose or arbitrarily delay messages — the data-link setting the
paper's Theorem 7/NG1' analysis speaks to: because the channel satisfies NG1',
the receiver can come to *know* each bit, but common knowledge of any bit is
unattainable, so the protocol has to work with plain knowledge gain.

The protocol is a stop-and-wait (alternating-bit-style) scheme:

* ``S`` repeatedly sends ``("bit", i, b_i)`` where ``i`` is the lowest index it
  has not yet seen acknowledged, until every bit is acknowledged.
* ``R`` replies ``("ack", i)`` whenever it holds bit ``i`` but has not yet
  acknowledged it.

Facts: ``bit_i`` holds at every time of runs where the transmitted sequence
has ``b_i = 1`` (the sequence is the sender's initial state and varies across
runs), and ``got_i`` holds from the moment ``R`` first receives bit ``i``.

The delivery model is a parameter (the fuzz matrix's four kinds), so one
scenario family sweeps the same protocol across every communication
assumption.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import Common, Eventually, Knows, Prop
from repro.scenarios.gossip import knows_whether
from repro.simulation.fuzz import delivery_models
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.runs import LocalHistory, Run

__all__ = ["SENDER", "RECEIVER", "StopAndWaitProtocol"]

SENDER = "S"
RECEIVER = "R"


class StopAndWaitProtocol(Protocol):
    """Stop-and-wait sequence transmission: resend until acknowledged.

    The sender's initial state is the bit tuple to transmit.  Both roles are
    deterministic functions of their histories: the sender's cursor is the
    number of distinct acknowledged indices, the receiver acknowledges each
    index exactly once.
    """

    name = "stop-and-wait"

    def __init__(self, n_bits: int):
        self.n_bits = n_bits

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        """Sender: (re)send the lowest unacknowledged bit.  Receiver: ack news."""
        if not history.awake:
            return Action.nothing()
        if processor == SENDER:
            bits = history.initial_state
            acked = {
                message.content[1]
                for message in history.received_messages()
                if message.content[0] == "ack"
            }
            cursor = 0
            while cursor in acked:
                cursor += 1
            if cursor >= len(bits):
                return Action.nothing()
            return Action.send(RECEIVER, ("bit", cursor, bits[cursor]))
        held = {
            message.content[1]
            for message in history.received_messages()
            if message.content[0] == "bit"
        }
        acked = {
            message.content[1]
            for message in history.sent_messages()
            if message.content[0] == "ack"
        }
        pending = sorted(held - acked)
        if pending:
            return Action.send(SENDER, ("ack", pending[0]))
        return Action.nothing()


def _sequence_facts(run: Run) -> Mapping[int, frozenset]:
    """``bit_i`` per the transmitted sequence; ``got_i`` once ``R`` holds it."""
    bits = run.initial_state(SENDER)
    stable = frozenset(f"bit_{i}" for i, bit in enumerate(bits) if bit == 1)
    facts: Dict[int, set] = {time: set(stable) for time in run.times()}
    held: set = set()
    for time in run.times():
        for event in run.events_at(RECEIVER, time):
            if type(event).__name__ == "ReceiveEvent" and event.message.content[0] == "bit":
                held.add(event.message.content[1])
        facts[time].update(f"got_{i}" for i in held)
    return {time: frozenset(names) for time, names in facts.items() if names}


def _all_sequences(n_bits: int) -> Tuple[Tuple[int, ...], ...]:
    """Every bit tuple of length ``n_bits`` (the sender's possible sequences)."""
    sequences = [()]
    for _ in range(n_bits):
        sequences = [seq + (bit,) for seq in sequences for bit in (0, 1)]
    return tuple(sequences)


def _formulas(params: Mapping[str, object]) -> Dict[str, object]:
    """The suite: the receiver's knowledge of bit 0, and its impossibility edge."""
    bit0 = Prop("bit_0")
    got0 = Prop("got_0")
    pair = (SENDER, RECEIVER)
    return {
        "bit_0": bit0,
        "got_0": got0,
        "K_R whether bit_0": knows_whether(RECEIVER, bit0),
        "K_S got_0": Knows(SENDER, got0),
        "<> got_0": Eventually(got0),
        "C whether bit_0": Common(pair, knows_whether(RECEIVER, bit0)),
    }


def _registry_signature(params: Mapping[str, object]) -> ScenarioSignature:
    """Static signature: sender and receiver, runs last ``horizon`` ticks."""
    return ScenarioSignature(agents=(SENDER, RECEIVER), horizon=params["horizon"])


def build_sequence_transmission_scenario(
    n_bits: int, horizon: int, delivery: str
) -> BuiltScenario:
    """Registry builder: stop-and-wait over every ``n_bits`` sequence."""
    system = simulate(
        StopAndWaitProtocol(n_bits),
        (SENDER, RECEIVER),
        duration=horizon,
        delivery=delivery_models(delivery, horizon),
        initial_states={SENDER: _all_sequences(n_bits)},
        fact_rules=(_sequence_facts,),
        max_runs=100_000,
        system_name=f"seqtx-b{n_bits}-h{horizon}-{delivery}",
    )
    return BuiltScenario(
        model=system,
        note="one branch per transmitted sequence and delivery choice; no focus point",
    )
