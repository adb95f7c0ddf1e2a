"""Distributed commit and internal knowledge consistency (Sections 8 and 13).

Committing a transaction "roughly corresponds to entering into an agreement that the
transaction has taken place".  In practice different sites commit at slightly
different times, so during a short window the sites' views of the database history are
inconsistent; once every site has committed, the histories agree again.

The scenario: a coordinator sends "commit" to a participant over a channel that takes
zero or one tick.  Both sites adopt the *eager* epistemic interpretation of Section 8:
each starts believing "the commit is common knowledge" as soon as it locally learns of
the commit (the coordinator when it sends, the participant when it receives).  That
interpretation is **not** knowledge consistent — during the delivery window the
coordinator's belief is false — but it **is** internally knowledge consistent: the
subsystem of runs with instantaneous delivery witnesses the definition of Section 13,
and no site ever observes anything contradicting the eager assumption.

Experiment E10 checks both halves of that claim.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import Common, Knows, Prop
from repro.simulation.network import BoundedUncertain
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.epistemic import EpistemicInterpretation, eager_belief_assignment
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "COORDINATOR",
    "PARTICIPANT",
    "COMMITTED",
    "build_commit_system",
    "eager_interpretation",
    "fastest_delivery_runs",
]

COORDINATOR = "coordinator"
PARTICIPANT = "participant"
GROUP = (COORDINATOR, PARTICIPANT)
COMMITTED = Prop("commit_initiated")
"""Stable ground fact: the coordinator has initiated the commit."""


class _CommitProtocol(Protocol):
    """The coordinator sends "commit" once, at time 0; the participant is passive."""

    name = "commit"

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        if processor == COORDINATOR and time == 0 and not history.sent_messages():
            return Action.send(PARTICIPANT, "commit")
        return Action.nothing()


def _committed_fact(run: Run) -> Mapping[int, frozenset]:
    send_time: Optional[int] = None
    for time in run.times():
        if any(
            type(event).__name__ == "SendEvent"
            for event in run.events_at(COORDINATOR, time)
        ):
            send_time = time
            break
    if send_time is None:
        return {}
    return {t: frozenset({COMMITTED.name}) for t in range(send_time, run.duration + 1)}


def build_commit_system(min_delay: int = 0, max_delay: int = 1, horizon: int = 3) -> System:
    """All runs of the one-message commit with delivery in ``min_delay .. max_delay``."""
    if not 0 <= min_delay <= max_delay:
        raise ScenarioError("need 0 <= min_delay <= max_delay")
    return simulate(
        _CommitProtocol(),
        GROUP,
        duration=horizon,
        delivery=BoundedUncertain(min_delay, max_delay),
        fact_rules=[_committed_fact],
        system_name=f"commit-{min_delay}-{max_delay}",
    )


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

def _registry_formulas(params):
    """Default formula set: who knows about the commit, and is it ever common."""
    return {
        "committed": COMMITTED,
        "K_coord committed": Knows(COORDINATOR, COMMITTED),
        "K_part committed": Knows(PARTICIPANT, COMMITTED),
        "C committed": Common(GROUP, COMMITTED),
    }


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: coordinator + participant, runs last ``horizon`` ticks."""
    return ScenarioSignature(agents=GROUP, horizon=params["horizon"])


def build_commit_scenario(min_delay: int, max_delay: int, horizon: int) -> BuiltScenario:
    """Registry builder: every run of the one-message commit."""
    system = build_commit_system(min_delay=min_delay, max_delay=max_delay, horizon=horizon)
    return BuiltScenario(
        model=system,
        note="no focus point: Section 13's claims compare whole interpretations",
    )


def _locally_learned(processor: str, history: LocalHistory) -> bool:
    """Whether the site has locally learned of the commit (sent or received it)."""
    if not history.awake:
        return False
    if processor == COORDINATOR:
        return bool(history.sent_messages())
    return bool(history.received_messages())


def eager_interpretation(system: System) -> EpistemicInterpretation:
    """The eager epistemic interpretation: believe ``C commit`` as soon as the commit
    is locally known."""
    assignment = eager_belief_assignment(COMMITTED, GROUP, _locally_learned)
    return EpistemicInterpretation(system, assignment)


def fastest_delivery_runs(system: System, delay: int = 0) -> Tuple[Run, ...]:
    """The subsystem candidate ``R'``: the runs in which the commit message is
    delivered exactly ``delay`` ticks after it was sent."""
    chosen = []
    for run in system.runs:
        send_time = None
        receive_time = None
        for time in run.times():
            if any(
                type(e).__name__ == "SendEvent" for e in run.events_at(COORDINATOR, time)
            ):
                send_time = time if send_time is None else send_time
            if any(
                type(e).__name__ == "ReceiveEvent"
                for e in run.events_at(PARTICIPANT, time)
            ):
                receive_time = time if receive_time is None else receive_time
        if send_time is not None and receive_time == send_time + delay:
            chosen.append(run)
    return tuple(chosen)
