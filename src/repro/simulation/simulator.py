"""Exhaustive run enumeration: protocol + environment  ==>  system of runs.

Section 5: "We shall often be interested in the set of runs generated by running a
particular protocol, under some assumptions on the communication medium."  The
simulator takes a joint protocol, an environment (delivery model, possible initial
states, possible wake-up times, possible clocks) and a time horizon, and enumerates
*every* run the environment admits.  The resulting :class:`~repro.systems.system.System`
is what the knowledge interpretations and the attainability analyses operate on.

The enumeration is exhaustive, not sampled: each nondeterministic choice (which
initial configuration, and when/whether each sent message is delivered) becomes a
branch.  For the small scenarios of the paper this is a few dozen to a few thousand
runs; the ``max_runs`` guard protects against accidental explosion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import SimulationError
from repro.logic.agents import Agent
from repro.simulation.network import DeliveryModel, ReliableSynchronous
from repro.simulation.protocol import Action, JointProtocol, Protocol, as_joint_protocol
from repro.systems.clocks import Clock, validate_clock
from repro.systems.events import Event, InternalEvent, Message, ReceiveEvent, SendEvent
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = ["FactRule", "Environment", "Simulator", "simulate"]

_State = Tuple[int, Dict[Agent, Dict[int, List[Event]]], Dict[int, List[Message]], List[str], int]
"""A partial run at the start of a tick: ``(time, events, pending deliveries,
delivery choices so far, next message uid)``."""

FactRule = Callable[[Run], Mapping[int, AbstractSet[str]]]
"""A fact rule inspects a finished run and returns the ground facts it makes true,
as a mapping from time to fact names.  Rules are applied after the run's events are
fixed, so they can express global facts like "both generals are attacking"."""


@dataclass
class Environment:
    """The environment half of a system: everything that is not the protocol.

    ``initial_states``, ``wake_times`` and ``clocks`` map each processor to the tuple
    of *possible* values; the simulator enumerates the full cross product.  Every
    field has a sensible default (wake at 0, no clock, initial state ``None``).
    """

    processors: Tuple[Agent, ...]
    duration: int
    delivery: DeliveryModel = field(default_factory=ReliableSynchronous)
    initial_states: Mapping[Agent, Sequence[Hashable]] = field(default_factory=dict)
    wake_times: Mapping[Agent, Sequence[int]] = field(default_factory=dict)
    clocks: Mapping[Agent, Sequence[Clock]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.processors:
            raise SimulationError("an environment needs at least one processor")
        if self.duration < 0:
            raise SimulationError("duration must be non-negative")
        for processor, clock_options in self.clocks.items():
            for clock in clock_options:
                validate_clock(clock, self.duration)

    def initial_configurations(
        self,
    ) -> List[Tuple[Dict[Agent, Hashable], Dict[Agent, int], Dict[Agent, Clock]]]:
        """Every combination of initial states, wake times and clocks."""
        state_options = [
            [(p, value) for value in (self.initial_states.get(p, (None,)) or (None,))]
            for p in self.processors
        ]
        wake_options = [
            [(p, value) for value in (self.wake_times.get(p, (0,)) or (0,))]
            for p in self.processors
        ]
        clock_options = [
            [(p, value) for value in (self.clocks.get(p, (None,)) or (None,))]
            for p in self.processors
        ]
        configurations = []
        for states in itertools.product(*state_options):
            for wakes in itertools.product(*wake_options):
                for clocks in itertools.product(*clock_options):
                    configurations.append((dict(states), dict(wakes), dict(clocks)))
        return configurations


class Simulator:
    """Enumerate all runs of a joint protocol in an environment."""

    def __init__(
        self,
        protocol: Union[Protocol, JointProtocol, Mapping[Agent, Protocol]],
        environment: Environment,
        fact_rules: Sequence[FactRule] = (),
        max_runs: int = 20_000,
        name_prefix: str = "r",
    ):
        self._environment = environment
        self._joint = as_joint_protocol(protocol, environment.processors)
        self._fact_rules = tuple(fact_rules)
        self._max_runs = max_runs
        self._name_prefix = name_prefix

    # -- public API ------------------------------------------------------------
    def runs(self) -> List[Run]:
        """All runs, one per combination of initial configuration and delivery choices."""
        finished: List[Run] = []
        for config_index, (states, wakes, clocks) in enumerate(
            self._environment.initial_configurations()
        ):
            self._enumerate_from_configuration(
                config_index, states, wakes, clocks, finished
            )
        return finished

    def system(self, name: str = "simulated") -> System:
        """All runs packaged as a :class:`~repro.systems.system.System`."""
        return System(self.runs(), name=name)

    # -- enumeration ---------------------------------------------------------------
    def _enumerate_from_configuration(
        self,
        config_index: int,
        initial_states: Dict[Agent, Hashable],
        wake_times: Dict[Agent, int],
        clocks: Dict[Agent, Clock],
        finished: List[Run],
    ) -> None:
        env = self._environment
        root = (0, {p: {} for p in env.processors}, {}, [], 0)
        # Depth first over the run tree, one tick per level, with an explicit
        # stack of child iterators instead of recursion, so the horizon is not
        # bounded by the interpreter's recursion limit.  Each level yields its
        # children lazily, one at a time, so runs come out in the order (and
        # with the names) of a recursive walk, with one branch copy per level.
        stack: List[Iterator[_State]] = [iter((root,))]
        while stack:
            state = next(stack[-1], None)
            if state is None:
                stack.pop()
                continue
            time, events, pending, choices, next_uid = state
            if time > env.duration:
                self._finish(
                    events, choices, config_index, initial_states, wake_times, clocks, finished
                )
            else:
                stack.append(
                    self._branches(
                        time, events, pending, choices, next_uid,
                        initial_states, wake_times, clocks,
                    )
                )

    def _branches(
        self,
        time: int,
        events: Dict[Agent, Dict[int, List[Event]]],
        pending: Dict[int, List[Message]],
        choices: List[str],
        next_uid: int,
        initial_states: Dict[Agent, Hashable],
        wake_times: Dict[Agent, int],
        clocks: Dict[Agent, Clock],
    ) -> Iterator[_State]:
        """Play tick ``time`` on one partial run and yield its children.

        One child per combination of delivery outcomes of the messages sent
        at this tick, as the state at ``time + 1``.
        """
        env = self._environment

        # 1. Deliver messages scheduled for this time.
        for message in pending.get(time, ()):  # deterministic order: scheduling order
            events[message.recipient].setdefault(time, []).append(ReceiveEvent(message))

        # 2. Ask every awake processor for its action, based on its history (which by
        #    definition excludes the events of the current time step).
        new_messages: List[Tuple[Message, int]] = []
        for processor in env.processors:
            if time < wake_times[processor]:
                continue
            history = LocalHistory.at(
                time,
                events[processor],
                initial_states[processor],
                wake_times[processor],
                clocks[processor],
            )
            action = self._joint.step(processor, history, time)
            if not isinstance(action, Action):
                raise SimulationError(
                    f"protocol for {processor!r} returned {action!r} instead of an Action"
                )
            for outgoing in action.sends:
                if outgoing.recipient not in env.processors:
                    raise SimulationError(
                        f"{processor!r} sent a message to unknown processor "
                        f"{outgoing.recipient!r}"
                    )
                message = Message(processor, outgoing.recipient, outgoing.content, uid=next_uid)
                next_uid += 1
                events[processor].setdefault(time, []).append(SendEvent(message))
                new_messages.append((message, time))
            for local in action.internal:
                events[processor].setdefault(time, []).append(
                    InternalEvent(local.label, local.payload)
                )

        # 3. Branch over the delivery outcomes of the newly sent messages.
        outcome_sets = [
            env.delivery.outcomes(message, send_time, env.duration)
            for message, send_time in new_messages
        ]
        for outcome_combination in itertools.product(*outcome_sets) if outcome_sets else [()]:
            branch_events = {
                p: {t: list(evs) for t, evs in per.items()} for p, per in events.items()
            }
            branch_pending = {t: list(msgs) for t, msgs in pending.items()}
            branch_choices = list(choices)
            for (message, send_time), outcome in zip(new_messages, outcome_combination):
                if outcome is None:
                    branch_choices.append(f"m{message.uid}:lost")
                    continue
                if outcome <= send_time:
                    # Same-step delivery is allowed (delay 0) but never earlier.
                    if outcome < send_time:
                        raise SimulationError(
                            "delivery model proposed delivery before the send time"
                        )
                if outcome < time:
                    raise SimulationError("delivery model proposed delivery in the past")
                branch_choices.append(f"m{message.uid}@{outcome}")
                if outcome == time:
                    branch_events[message.recipient].setdefault(time, []).append(
                        ReceiveEvent(message)
                    )
                else:
                    branch_pending.setdefault(outcome, []).append(message)
            yield (time + 1, branch_events, branch_pending, branch_choices, next_uid)

    def _finish(
        self,
        events: Dict[Agent, Dict[int, List[Event]]],
        choices: List[str],
        config_index: int,
        initial_states: Dict[Agent, Hashable],
        wake_times: Dict[Agent, int],
        clocks: Dict[Agent, Clock],
        finished: List[Run],
    ) -> None:
        if len(finished) >= self._max_runs:
            raise SimulationError(
                f"run enumeration exceeded max_runs={self._max_runs}; "
                "reduce the horizon or use a more restrictive delivery model"
            )
        env = self._environment
        suffix = ".".join(choices) if choices else "quiet"
        name = f"{self._name_prefix}{config_index}-{suffix}"
        run = Run(
            name=name,
            processors=env.processors,
            duration=env.duration,
            initial_states=initial_states,
            wake_times=wake_times,
            events=events,
            clocks=clocks,
        )
        # The rules read the finished run; their facts join it in one step.
        facts: Dict[int, set] = {}
        for rule in self._fact_rules:
            for time, names in rule(run).items():
                facts.setdefault(time, set()).update(names)
        run._attach_facts(facts)
        finished.append(run)


def simulate(
    protocol: Union[Protocol, JointProtocol, Mapping[Agent, Protocol]],
    processors: Sequence[Agent],
    duration: int,
    delivery: Optional[DeliveryModel] = None,
    initial_states: Optional[Mapping[Agent, Sequence[Hashable]]] = None,
    wake_times: Optional[Mapping[Agent, Sequence[int]]] = None,
    clocks: Optional[Mapping[Agent, Sequence[Clock]]] = None,
    fact_rules: Sequence[FactRule] = (),
    max_runs: int = 20_000,
    system_name: str = "simulated",
    name_prefix: str = "r",
) -> System:
    """Convenience wrapper: build the environment, enumerate all runs, return a system.

    See :class:`Simulator` for the semantics of the individual arguments.
    """
    environment = Environment(
        processors=tuple(processors),
        duration=duration,
        delivery=delivery if delivery is not None else ReliableSynchronous(),
        initial_states=initial_states or {},
        wake_times=wake_times or {},
        clocks=clocks or {},
    )
    simulator = Simulator(
        protocol,
        environment,
        fact_rules=fact_rules,
        max_runs=max_runs,
        name_prefix=name_prefix,
    )
    return simulator.system(name=system_name)
