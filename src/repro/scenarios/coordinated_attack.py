"""The coordinated attack problem (Sections 4 and 7).

Two generals, ``A`` and ``B``, communicate through a messenger who may be lost or
captured (an unreliable channel).  General ``A`` may or may not want to attack (its
initial state); if it does, it starts a handshake: message, acknowledgement,
acknowledgement of the acknowledgement, ... up to a chosen depth.  Each general would
attack only if certain the other attacks with it.

Reproduced claims (experiments E3 and E8):

* Each delivered message adds exactly one level to the nested knowledge about A's
  intention: after the first delivery ``K_B intend`` holds, after the second
  ``K_A K_B intend``, and so on — but never common knowledge
  (:func:`knowledge_depth_after_deliveries`).
* Proposition 4: for any protocol in which the generals only ever attack together,
  whenever they attack, the attack is common knowledge
  (:func:`attack_implies_common_knowledge`).
* Corollary 6: no deterministic threshold policy built on a finite handshake is a
  correct coordinated-attack protocol — every policy either never attacks in any run
  or admits a run in which one general attacks alone
  (:func:`search_for_correct_policy`).
* Proposition 10: the same holds for *eventually* coordinated attack
  (checked through the C-diamond analysis in :mod:`repro.analysis.attainability`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import C, Common, Formula, K, Knows, Prop
from repro.simulation.network import DeliveryModel, Unreliable
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.clocks import perfect_clock
from repro.systems.events import ReceiveEvent, SendEvent
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "GENERAL_A",
    "GENERAL_B",
    "GENERALS",
    "INTEND",
    "BOTH_ATTACK",
    "HandshakeProtocol",
    "AttackPolicy",
    "build_handshake_system",
    "knowledge_depth_after_deliveries",
    "alternating_knowledge_formula",
    "attack_implies_common_knowledge",
    "PolicyOutcome",
    "evaluate_attack_policy",
    "search_for_correct_policy",
]

GENERAL_A = "A"
GENERAL_B = "B"
GENERALS = (GENERAL_A, GENERAL_B)

INTEND = Prop("intend_attack")
"""Ground fact: general A's initial state is "attack" (A wants to coordinate)."""

BOTH_ATTACK = Prop("both_attack")
"""Ground fact: both generals are attacking at the current time."""

ATTACK_STATE = "attack"
PEACE_STATE = "peace"


@dataclass(frozen=True)
class AttackPolicy:
    """A deterministic attack rule layered on top of the handshake.

    Each general attacks at ``attack_time`` exactly if it has received at least its
    threshold of handshake messages by then.  ``None`` thresholds mean "never attack".
    """

    threshold_a: Optional[int]
    threshold_b: Optional[int]
    attack_time: int


class HandshakeProtocol(Protocol):
    """The k-round handshake of Section 4, with an optional attack policy.

    General A, if its initial state is ``"attack"``, sends handshake message 1 at time
    0.  A general that has received handshake message ``i`` (and has not yet replied
    to it) replies with handshake message ``i + 1``, as long as ``i < depth``.
    """

    name = "handshake"

    def __init__(self, depth: int, policy: Optional[AttackPolicy] = None):
        if depth < 1:
            raise ScenarioError("the handshake needs depth >= 1")
        self.depth = depth
        self.policy = policy

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        action = Action.nothing()
        other = GENERAL_B if processor == GENERAL_A else GENERAL_A

        received_indices = [
            message.content[1]
            for message in history.received_messages()
            if isinstance(message.content, tuple) and message.content[0] == "handshake"
        ]
        sent_indices = [
            message.content[1]
            for message in history.sent_messages()
            if isinstance(message.content, tuple) and message.content[0] == "handshake"
        ]

        # Initiation: A starts the handshake if it wants to attack.
        if (
            processor == GENERAL_A
            and history.initial_state == ATTACK_STATE
            and time == 0
            and not sent_indices
        ):
            action = action.also_send(other, ("handshake", 1))

        # Replies: acknowledge the highest message received, if not yet acknowledged.
        if received_indices:
            highest = max(received_indices)
            reply_index = highest + 1
            if reply_index <= self.depth and reply_index not in sent_indices:
                action = action.also_send(other, ("handshake", reply_index))

        # Attack policy.
        if self.policy is not None and time == self.policy.attack_time:
            threshold = (
                self.policy.threshold_a if processor == GENERAL_A else self.policy.threshold_b
            )
            if threshold is not None and len(received_indices) >= threshold:
                # A general that never wanted to attack does not attack spontaneously.
                if processor != GENERAL_A or history.initial_state == ATTACK_STATE:
                    action = action.also_act("attack")
        return action


def _intend_fact(run: Run) -> Mapping[int, frozenset]:
    """INTEND holds at every time of a run in which A's initial state is "attack"."""
    if run.initial_state(GENERAL_A) != ATTACK_STATE:
        return {}
    return {time: frozenset({INTEND.name}) for time in run.times()}


def _attack_facts(run: Run) -> Mapping[int, frozenset]:
    """Per-time facts about who is attacking (attacks are instantaneous actions)."""
    facts: Dict[int, set] = {}
    for time in run.times():
        a_attacks = any(
            event.label == "attack"
            for event in run.events_at(GENERAL_A, time)
            if hasattr(event, "label")
        )
        b_attacks = any(
            event.label == "attack"
            for event in run.events_at(GENERAL_B, time)
            if hasattr(event, "label")
        )
        names = set()
        if a_attacks:
            names.add("a_attacks")
        if b_attacks:
            names.add("b_attacks")
        if a_attacks and b_attacks:
            names.add(BOTH_ATTACK.name)
        if a_attacks or b_attacks:
            names.add("some_attack")
        if names:
            facts[time] = frozenset(names)
    return facts


def build_handshake_system(
    depth: int,
    horizon: int,
    delivery: Optional[DeliveryModel] = None,
    policy: Optional[AttackPolicy] = None,
    include_peace_runs: bool = True,
) -> System:
    """Enumerate every run of the depth-``depth`` handshake up to ``horizon``.

    ``delivery`` defaults to the unreliable messenger (each message takes one hour or
    is lost).  With ``include_peace_runs`` the runs in which A never wanted to attack
    are part of the system, which is what makes ``INTEND`` a non-trivial fact.
    """
    initial_states = (
        {GENERAL_A: (ATTACK_STATE, PEACE_STATE) if include_peace_runs else (ATTACK_STATE,)}
    )
    # The generals follow the description in Section 7: their actions are a function
    # of their history and "the time on their clock", so both carry perfect clocks.
    clock = perfect_clock(horizon)
    return simulate(
        HandshakeProtocol(depth, policy),
        GENERALS,
        duration=horizon,
        delivery=delivery if delivery is not None else Unreliable(delay=1),
        initial_states=initial_states,
        clocks={GENERAL_A: (clock,), GENERAL_B: (clock,)},
        fact_rules=[_intend_fact, _attack_facts],
        system_name=f"coordinated-attack-depth{depth}",
    )


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

def _registry_formulas(params):
    """Default formula set: the knowledge ladder and the never-common claims."""
    return {
        "intend": INTEND,
        "K_B intend": alternating_knowledge_formula(1),
        "K_A K_B intend": alternating_knowledge_formula(2),
        "C intend": C(GENERALS, INTEND),
        "both_attack": BOTH_ATTACK,
        "C both_attack": C(GENERALS, BOTH_ATTACK),
    }


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: the two generals, runs last ``horizon`` ticks."""
    return ScenarioSignature(agents=GENERALS, horizon=params["horizon"])


def build_coordinated_attack_scenario(
    depth: int, horizon: int, include_peace_runs: bool
) -> BuiltScenario:
    """Registry builder: the handshake system over the unreliable messenger."""
    system = build_handshake_system(
        depth, horizon, include_peace_runs=include_peace_runs
    )
    return BuiltScenario(
        model=system,
        note="no focus point: the reports quantify over all (run, time) points",
    )


def alternating_knowledge_formula(levels: int) -> Formula:
    """The nested formula ``K_B intend``, ``K_A K_B intend``, ... with ``levels``
    alternating knowledge operators (starting with B, who is the first to learn)."""
    if levels < 1:
        raise ScenarioError("levels must be >= 1")
    formula: Formula = INTEND
    for level in range(levels):
        agent = GENERAL_B if level % 2 == 0 else GENERAL_A
        formula = K(agent, formula)
    return formula


def knowledge_depth_after_deliveries(
    system: System, run: Run, time: int, max_levels: Optional[int] = None
) -> int:
    """The deepest alternation ``K_B intend``, ``K_A K_B intend``, ... true at
    ``(run, time)``.

    The paper's informal analysis says this equals the number of messages delivered so
    far: "each message that the messenger delivers can add at most one level of
    knowledge about the desired attack, and no more".
    """
    interpretation = ViewBasedInterpretation(system)
    limit = max_levels if max_levels is not None else run.messages_received_before(time + 1) + 2
    depth = 0
    for levels in range(1, limit + 1):
        if interpretation.holds(alternating_knowledge_formula(levels), run, time):
            depth = levels
        else:
            break
    return depth


def attack_implies_common_knowledge(system: System) -> bool:
    """Proposition 4: at every point where both generals attack, the attack is common
    knowledge among them.

    The check uses the complete-history interpretation, exactly as the paper's proof
    does.  (For a *correct* protocol the claim is about all attacking points; for an
    incorrect one, the points where only one general attacks are simply not covered
    by the proposition.)
    """
    interpretation = ViewBasedInterpretation(system)
    claim = Common(GENERALS, BOTH_ATTACK)
    for run in system.runs:
        for time in run.times():
            if BOTH_ATTACK.name in run.facts_at(time):
                if not interpretation.holds(claim, run, time):
                    return False
    return True


@dataclass
class PolicyOutcome:
    """How a threshold policy behaves across all runs of the environment."""

    policy: AttackPolicy
    attacks_in_some_run: bool
    uncoordinated_run: Optional[str]
    """The name of a run in which exactly one general attacks, if any."""

    @property
    def is_correct(self) -> bool:
        """A correct coordinated-attack protocol: attacks are always joint, and the
        generals actually attack when communication succeeds."""
        return self.attacks_in_some_run and self.uncoordinated_run is None

    @property
    def never_attacks(self) -> bool:
        """Whether the policy guarantees that nobody ever attacks."""
        return not self.attacks_in_some_run


def evaluate_attack_policy(
    depth: int,
    horizon: int,
    policy: AttackPolicy,
    delivery: Optional[DeliveryModel] = None,
) -> PolicyOutcome:
    """Run the handshake with ``policy`` in every environment behaviour and classify
    the outcome (attacks somewhere?  ever uncoordinated?)."""
    system = build_handshake_system(depth, horizon, delivery=delivery, policy=policy)
    attacks = False
    uncoordinated: Optional[str] = None
    for run in system.runs:
        for time in run.times():
            facts = run.facts_at(time)
            if "some_attack" in facts:
                attacks = True
                if BOTH_ATTACK.name not in facts and uncoordinated is None:
                    uncoordinated = run.name
    return PolicyOutcome(policy=policy, attacks_in_some_run=attacks, uncoordinated_run=uncoordinated)


def search_for_correct_policy(
    depth: int,
    horizon: int,
    delivery: Optional[DeliveryModel] = None,
    attack_time: Optional[int] = None,
) -> List[PolicyOutcome]:
    """Corollary 6, made executable: try every threshold policy over the depth-``depth``
    handshake and report the outcomes.

    The paper's theorem predicts that no outcome is both "attacks in some run" and
    "never uncoordinated" — i.e. :attr:`PolicyOutcome.is_correct` is false for every
    policy (the only "correct" behaviours are the ones that never attack at all).
    """
    deadline = attack_time if attack_time is not None else horizon
    outcomes: List[PolicyOutcome] = []
    thresholds: List[Optional[int]] = [None] + list(range(0, depth + 1))
    for threshold_a, threshold_b in itertools.product(thresholds, thresholds):
        policy = AttackPolicy(threshold_a, threshold_b, deadline)
        outcomes.append(evaluate_attack_policy(depth, horizon, policy, delivery=delivery))
    return outcomes
