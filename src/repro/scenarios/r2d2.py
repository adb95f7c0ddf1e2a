"""The R2–D2 message-delivery-uncertainty example (Section 8).

R2 sends D2 a message ``m``.  Any message from R2 to D2 arrives either immediately or
after exactly ``epsilon`` time units, and this is common knowledge.  The paper derives
the "knowledge staircase":

* ``K_D sent(m)`` holds as soon as D2 receives ``m``;
* ``K_R K_D sent(m)`` holds at ``t_S + epsilon`` and no earlier;
* ``(K_R K_D)^k sent(m)`` holds at ``t_S + k*epsilon`` and no earlier;
* ``C sent(m)`` never holds.

Removing the uncertainty removes the staircase: if every message takes *exactly*
``epsilon``, or if there is a global clock and the message carries a timestamp, then
``sent(m)`` becomes common knowledge at ``t_S + epsilon``.

The reproduction builds the finite analogue of the paper's system
``{r_i, r'_i : i >= -MIN}``: the send time ranges over a window of possible values
(carried in R2's initial state), each send is delivered after 0 or ``epsilon`` ticks,
and neither processor has a clock in the uncertain variant.  Experiment E5 sweeps the
staircase; boundary effects of the finite window are noted in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ScenarioError
from repro.experiments.registry import BuiltScenario
from repro.logic.check import ScenarioSignature
from repro.logic.syntax import C, Formula, K, Prop
from repro.simulation.network import DeliveryModel
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.clocks import perfect_clock
from repro.systems.events import Message
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "R2",
    "D2",
    "SENT",
    "ChoiceDelivery",
    "build_uncertain_system",
    "build_exact_delivery_system",
    "build_global_clock_system",
    "alternating_rd_formula",
    "first_time_formula_holds",
    "knowledge_staircase",
    "common_knowledge_ever_holds",
]

R2 = "R2"
D2 = "D2"
SENT = Prop("sent_m")
"""Ground fact: the message ``m`` has been sent."""


class ChoiceDelivery(DeliveryModel):
    """Delivery after one of a fixed set of delays (no losses).

    The R2–D2 example needs delays drawn from exactly ``{0, epsilon}``; this model
    also serves other "exact set of possible delays" situations.
    """

    name = "choice"

    def __init__(self, delays: Sequence[int]):
        if not delays or any(d < 0 for d in delays):
            raise ScenarioError("ChoiceDelivery needs a non-empty set of non-negative delays")
        self.delays: Tuple[int, ...] = tuple(sorted(set(delays)))

    def outcomes(self, message: Message, send_time: int, horizon: int):
        arrivals = tuple(
            send_time + delay for delay in self.delays if send_time + delay <= horizon
        )
        return arrivals if arrivals else (None,)


class _SendAtScheduledTime(Protocol):
    """R2 sends ``m`` once, at the send time recorded in its initial state."""

    name = "r2-sender"

    def __init__(self, content: str = "m"):
        self.content = content

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        if processor != R2:
            return Action.nothing()
        if history.sent_messages():
            return Action.nothing()
        if time == history.initial_state:
            return Action.send(D2, self.content)
        return Action.nothing()


def _sent_fact(run: Run) -> Mapping[int, frozenset]:
    """``sent_m`` is stable: true from the send time onward."""
    send_time: Optional[int] = None
    for time in run.times():
        if any(
            type(event).__name__ == "SendEvent" for event in run.events_at(R2, time)
        ):
            send_time = time
            break
    if send_time is None:
        return {}
    return {time: frozenset({SENT.name}) for time in range(send_time, run.duration + 1)}


def build_uncertain_system(
    epsilon: int, send_window: int, horizon: Optional[int] = None
) -> System:
    """The finite analogue of the paper's R2–D2 system.

    ``send_window`` is the number of possible send times (``0, epsilon, 2*epsilon,
    ...``); each message is delivered after 0 or ``epsilon`` ticks.  Both processors
    carry perfect clocks — as in the paper, the only uncertainty is the *relative*
    message delivery time, not the passage of time itself; the message carries no
    timestamp, so D2 cannot tell whether it was sent "now" or ``epsilon`` ago.
    """
    if epsilon < 1:
        raise ScenarioError("epsilon must be at least one tick")
    if send_window < 1:
        raise ScenarioError("send_window must be at least 1")
    duration = horizon if horizon is not None else epsilon * (send_window + 1)
    send_times = tuple(i * epsilon for i in range(send_window))
    clock = perfect_clock(duration)
    return simulate(
        _SendAtScheduledTime(),
        (R2, D2),
        duration=duration,
        delivery=ChoiceDelivery((0, epsilon)),
        initial_states={R2: send_times},
        clocks={R2: (clock,), D2: (clock,)},
        fact_rules=[_sent_fact],
        system_name=f"r2d2-uncertain-eps{epsilon}",
    )


def build_exact_delivery_system(
    epsilon: int, send_window: int = 3, horizon: Optional[int] = None
) -> System:
    """The variant where every message takes *exactly* ``epsilon`` time units.

    The paper: "If it were common knowledge that messages took exactly epsilon time
    units to arrive, then sent(m) would be common knowledge at time t_S + epsilon."
    The send time still ranges over a window (otherwise ``sent(m)`` would be valid in
    the system and trivially common knowledge); with exact delivery the uncertainty
    disappears as soon as D2 receives, so for the run with send time 0 the fact
    becomes common knowledge one observation step after ``t_S + epsilon``.
    """
    if epsilon < 1:
        raise ScenarioError("epsilon must be at least one tick")
    if send_window < 1:
        raise ScenarioError("send_window must be at least 1")
    duration = horizon if horizon is not None else epsilon * (send_window + 1)
    send_times = tuple(i * epsilon for i in range(send_window))
    clock = perfect_clock(duration)
    return simulate(
        _SendAtScheduledTime(),
        (R2, D2),
        duration=duration,
        delivery=ChoiceDelivery((epsilon,)),
        initial_states={R2: send_times},
        clocks={R2: (clock,), D2: (clock,)},
        fact_rules=[_sent_fact],
        system_name=f"r2d2-exact-eps{epsilon}",
    )


class _SendTimestampedAtScheduledTime(_SendAtScheduledTime):
    """R2 sends a message whose content announces the send time (the paper's m')."""

    name = "r2-timestamped-sender"

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        if processor != R2 or history.sent_messages():
            return Action.nothing()
        if time == history.initial_state:
            return Action.send(D2, f"sent at {time}; m")
        return Action.nothing()


def build_global_clock_system(
    epsilon: int, send_window: int = 3, horizon: Optional[int] = None
) -> System:
    """The variant with a global clock and a timestamped message.

    Both processors carry perfect (hence identical) clocks and the message content
    announces its send time, mirroring the paper's message
    "This message is being sent at time t_S; m".  Delivery still takes 0 or
    ``epsilon`` ticks, but because the timestamp (plus the clock) removes the relative
    uncertainty, ``sent(m)`` becomes common knowledge one observation step after
    ``t_S + epsilon`` in every run.
    """
    if epsilon < 1:
        raise ScenarioError("epsilon must be at least one tick")
    if send_window < 1:
        raise ScenarioError("send_window must be at least 1")
    duration = horizon if horizon is not None else epsilon * (send_window + 1)
    send_times = tuple(i * epsilon for i in range(send_window))
    clock = perfect_clock(duration)
    return simulate(
        _SendTimestampedAtScheduledTime(),
        (R2, D2),
        duration=duration,
        delivery=ChoiceDelivery((0, epsilon)),
        initial_states={R2: send_times},
        clocks={R2: (clock,), D2: (clock,)},
        fact_rules=[_sent_fact],
        system_name=f"r2d2-global-clock-eps{epsilon}",
    )


# -- catalogue callables (see repro.experiments.catalogue) ---------------------

_VARIANT_BUILDERS = {
    "uncertain": build_uncertain_system,
    "exact": build_exact_delivery_system,
    "global_clock": build_global_clock_system,
}


def _registry_formulas(params):
    """Default formula set: the knowledge staircase of Section 8."""
    return {
        "sent": SENT,
        "K_D2 sent": K(D2, SENT),
        "(K_R K_D) sent": alternating_rd_formula(1),
        "(K_R K_D)^2 sent": alternating_rd_formula(2),
        "C sent": C((R2, D2), SENT),
    }


def _registry_signature(params) -> ScenarioSignature:
    """Static signature: R2 and D2 on perfect clocks; every variant runs
    ``epsilon * (send_window + 1)`` ticks."""
    return ScenarioSignature(
        agents=(R2, D2),
        horizon=params["epsilon"] * (params["send_window"] + 1),
    )


def build_r2d2_scenario(epsilon: int, send_window: int, variant: str) -> BuiltScenario:
    """Registry builder: one of the three R2-D2 delivery regimes."""
    system = _VARIANT_BUILDERS[variant](epsilon, send_window)
    return BuiltScenario(
        model=system,
        note="no focus point: the staircase is read off per run with knowledge_staircase()",
    )


def alternating_rd_formula(k: int) -> Formula:
    """``(K_R K_D)^k sent(m)``: k alternations of "R2 knows that D2 knows"."""
    if k < 0:
        raise ScenarioError("k must be non-negative")
    formula: Formula = SENT
    for _ in range(k):
        formula = K(R2, K(D2, formula))
    return formula


def first_time_formula_holds(
    interpretation: ViewBasedInterpretation, run: Run, formula: Formula
) -> Optional[int]:
    """The earliest time at which ``formula`` holds in ``run``, or ``None``."""
    for time in run.times():
        if interpretation.holds(formula, run, time):
            return time
    return None


@dataclass
class StaircaseStep:
    """One level of the R2–D2 knowledge staircase."""

    level: int
    formula: Formula
    first_time: Optional[int]
    predicted_time: int


def knowledge_staircase(
    system: System, run: Run, epsilon: int, max_level: int, send_time: int = 0
) -> List[StaircaseStep]:
    """Measure when each level ``(K_R K_D)^k sent(m)`` first holds in ``run``.

    The paper predicts level ``k`` first holds at ``send_time + k * epsilon`` (in the
    run where the message actually took ``epsilon`` to arrive).
    """
    interpretation = ViewBasedInterpretation(system)
    steps: List[StaircaseStep] = []
    for level in range(1, max_level + 1):
        formula = alternating_rd_formula(level)
        first = first_time_formula_holds(interpretation, run, formula)
        steps.append(
            StaircaseStep(
                level=level,
                formula=formula,
                first_time=first,
                predicted_time=send_time + level * epsilon,
            )
        )
    return steps


def common_knowledge_ever_holds(
    system: System, run: Run, before_time: Optional[int] = None
) -> bool:
    """Whether ``C_{R2,D2} sent(m)`` holds at any point of ``run`` before
    ``before_time`` (default: anywhere in the run).

    In the uncertain system the paper predicts it never does; the finite send window
    truncates the construction, so the check should be restricted to times before the
    last possible send time (pass ``before_time``), as recorded in EXPERIMENTS.md.
    """
    interpretation = ViewBasedInterpretation(system)
    claim = C((R2, D2), SENT)
    limit = run.duration + 1 if before_time is None else min(before_time, run.duration + 1)
    return any(interpretation.holds(claim, run, time) for time in range(limit))
