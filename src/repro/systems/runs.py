"""Runs, points and local histories (Section 5 of the paper).

A *run* is a description of one complete execution of a distributed system over a
discrete time grid ``0 .. duration``.  A *point* is a pair ``(run, time)``.  Each
processor has, at every point, a *local history*: its initial state, the events
(message sends/receives, internal actions) it has observed before the current time,
and — when it has a clock — the readings its clock has shown.

The definitions follow the paper closely:

* ``h(p, r, t)`` is empty before the processor wakes up; afterwards it consists of the
  initial state and the sequence of events observed up to but **not including** time
  ``t``, plus the clock readings up to and **including** ``t``.
* A run ``r'`` *extends* a point ``(r, t)`` if every processor has the same history in
  both runs at every time ``t' <= t``.

Runs are immutable; scenario and simulator code builds them with
:class:`RunBuilder`, which performs the bookkeeping (sorting events, validating
clocks) and produces hashable structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ModelError, UnknownAgentError, UnknownPointError
from repro.logic.agents import Agent
from repro.systems.clocks import Clock, validate_clock
from repro.systems.events import Event, InternalEvent, Message, ReceiveEvent, SendEvent

__all__ = ["LocalHistory", "Run", "Point", "RunBuilder"]


@dataclass(frozen=True)
class LocalHistory:
    """Processor ``p``'s history at a point ``(r, t)``.

    ``events`` is a tuple of ``(clock mark, event)`` pairs in the order the events
    were observed, covering the events observed strictly before ``t``.  Following the
    paper, the *real* times of events are **not** part of the history — real time is
    an external quantity the processors cannot observe directly.  When the processor
    has a clock, each event is marked with the clock reading at the time it occurred;
    without a clock the mark is ``None``.  ``clock_readings`` covers the readings from
    the wake-up time through ``t`` when the processor has a clock, and is ``None``
    otherwise.  ``awake`` is ``False`` when the processor has not yet woken up, in
    which case the history is empty (the paper's ``h(p_i, r, t)`` is empty for
    ``t < t_init``).  Note that ``wake_time`` records the position of the wake-up in
    *clock* terms: it is ``None`` for clockless processors, so that a clockless
    processor cannot tell when it woke up.
    """

    awake: bool
    initial_state: Hashable
    wake_time: Optional[float]
    events: Tuple[Tuple[Optional[float], Event], ...]
    clock_readings: Optional[Tuple[float, ...]]

    @staticmethod
    def asleep() -> "LocalHistory":
        """The empty history of a processor that has not woken up yet."""
        return LocalHistory(
            awake=False,
            initial_state=None,
            wake_time=None,
            events=(),
            clock_readings=None,
        )

    @staticmethod
    def at(
        time: int,
        events_by_time: Mapping[int, Sequence[Event]],
        initial_state: Hashable,
        wake: int,
        clock: Optional[Clock],
    ) -> "LocalHistory":
        """``h(p, r, t)`` at ``time`` from what ``p`` observes at each time.

        ``events_by_time`` maps a time to the events ``p`` observes then;
        ``wake`` is ``p``'s real wake-up time and ``clock`` its clock, if any.
        Both :meth:`Run.history` and the simulator, which hands protocols
        their histories while the run is still being built, build through
        here, so a protocol sees exactly the history the finished run has.
        """
        if time < wake:
            return LocalHistory.asleep()
        observed: List[Tuple[Optional[float], Event]] = []
        for t in range(wake, time):
            marker = clock[t] if clock is not None else None
            for event in events_by_time.get(t, ()):
                observed.append((marker, event))
        return LocalHistory(
            awake=True,
            initial_state=initial_state,
            wake_time=clock[wake] if clock is not None else None,
            events=tuple(observed),
            clock_readings=(
                None if clock is None else tuple(clock[t] for t in range(wake, time + 1))
            ),
        )

    def received_messages(self) -> Tuple[Message, ...]:
        """The messages received, in the order they were received."""
        return tuple(
            event.message for _, event in self.events if isinstance(event, ReceiveEvent)
        )

    def sent_messages(self) -> Tuple[Message, ...]:
        """The messages sent, in the order they were sent."""
        return tuple(
            event.message for _, event in self.events if isinstance(event, SendEvent)
        )

    def internal_events(self) -> Tuple[InternalEvent, ...]:
        """The internal events of the history, in order."""
        return tuple(
            event for _, event in self.events if isinstance(event, InternalEvent)
        )

    def performed(self, label: str) -> bool:
        """Whether an internal event with the given label occurs in the history."""
        return any(event.label == label for event in self.internal_events())


class Point(NamedTuple):
    """A point ``(run, time)`` of a system."""

    run: "Run"
    time: int

    def __repr__(self) -> str:
        return f"({self.run.name}, {self.time})"


class Run:
    """One execution of the system over the discrete times ``0 .. duration``.

    Parameters
    ----------
    name:
        A label identifying the run (unique within a system).
    processors:
        The processors participating in the system.
    duration:
        The largest time index of the run.
    initial_states:
        Each processor's initial state (defaults to ``None``).
    wake_times:
        When each processor joins the system (defaults to time 0).
    events:
        ``events[p][t]`` is the tuple of events processor ``p`` observes at time ``t``.
    clocks:
        Optional clock-reading tuples per processor (see :mod:`repro.systems.clocks`).
    facts:
        ``facts[t]`` is the set of ground-fact names true at time ``t`` of this run;
        this is the run's slice of the valuation ``pi`` of Section 6.
    """

    def __init__(
        self,
        name: str,
        processors: Sequence[Agent],
        duration: int,
        initial_states: Optional[Mapping[Agent, Hashable]] = None,
        wake_times: Optional[Mapping[Agent, int]] = None,
        events: Optional[Mapping[Agent, Mapping[int, Sequence[Event]]]] = None,
        clocks: Optional[Mapping[Agent, Clock]] = None,
        facts: Optional[Mapping[int, AbstractSet[str]]] = None,
    ):
        if duration < 0:
            raise ModelError("a run's duration must be non-negative")
        if not processors:
            raise ModelError("a run needs at least one processor")
        self._name = name
        self._processors: Tuple[Agent, ...] = tuple(processors)
        self._processor_set = frozenset(self._processors)
        if len(self._processor_set) != len(self._processors):
            raise ModelError("processor names must be unique")
        self._duration = duration

        self._initial_states: Dict[Agent, Hashable] = {
            p: (initial_states or {}).get(p) for p in self._processors
        }
        self._wake_times: Dict[Agent, int] = {}
        for p in self._processors:
            wake = (wake_times or {}).get(p, 0)
            if wake < 0:
                raise ModelError(f"wake time of {p!r} must be non-negative")
            self._wake_times[p] = wake

        self._events: Dict[Agent, Dict[int, Tuple[Event, ...]]] = {}
        for p in self._processors:
            per_time: Dict[int, Tuple[Event, ...]] = {}
            for time, evs in ((events or {}).get(p) or {}).items():
                if not 0 <= time <= duration:
                    raise ModelError(
                        f"event for {p!r} at time {time} is outside 0..{duration}"
                    )
                if time < self._wake_times[p]:
                    raise ModelError(
                        f"processor {p!r} observes an event at {time} before waking up"
                    )
                per_time[time] = tuple(evs)
            self._events[p] = per_time
        unknown = set(events or {}) - self._processor_set
        if unknown:
            raise UnknownAgentError(f"events mention unknown processors {sorted(map(repr, unknown))}")

        self._clocks: Dict[Agent, Clock] = {}
        for p in self._processors:
            clock = (clocks or {}).get(p)
            validate_clock(clock, duration)
            self._clocks[p] = clock

        self._facts: Dict[int, FrozenSet[str]] = {}
        self._attach_facts(facts or {})

        self._history_cache: Dict[Tuple[Agent, int], LocalHistory] = {}

    def _attach_facts(self, facts: Mapping[int, AbstractSet[str]]) -> None:
        """Record ``facts[t]`` as true at time ``t``, checking ``0 <= t <= duration``.

        Part of construction: the simulator attaches the facts its fact rules
        read off the finished run before it hands the run out.
        """
        for time, names in facts.items():
            if not 0 <= time <= self._duration:
                raise ModelError(f"facts at time {time} are outside 0..{self._duration}")
            self._facts[time] = frozenset(names)

    # -- basic accessors --------------------------------------------------------
    @property
    def name(self) -> str:
        """The run's label."""
        return self._name

    @property
    def processors(self) -> Tuple[Agent, ...]:
        """The processors of the run, in declaration order."""
        return self._processors

    @property
    def duration(self) -> int:
        """The largest time index of the run."""
        return self._duration

    def times(self) -> range:
        """All time indices ``0 .. duration``."""
        return range(self._duration + 1)

    def points(self) -> Iterator[Point]:
        """All points of this run."""
        for time in self.times():
            yield Point(self, time)

    def point(self, time: int) -> Point:
        """The point of this run at ``time``."""
        self._require_time(time)
        return Point(self, time)

    def wake_time(self, processor: Agent) -> int:
        """When ``processor`` joins the system in this run."""
        self._require_processor(processor)
        return self._wake_times[processor]

    def initial_state(self, processor: Agent) -> Hashable:
        """``processor``'s initial state in this run."""
        self._require_processor(processor)
        return self._initial_states[processor]

    def clock(self, processor: Agent) -> Clock:
        """``processor``'s clock-reading tuple, or ``None`` if it has no clock."""
        self._require_processor(processor)
        return self._clocks[processor]

    def clock_reading(self, processor: Agent, time: int) -> Optional[float]:
        """``tau(p, r, t)``: the clock reading of ``processor`` at ``time``.

        Returns ``None`` when the processor has no clock or has not woken up yet.
        """
        self._require_processor(processor)
        self._require_time(time)
        clock = self._clocks[processor]
        if clock is None or time < self._wake_times[processor]:
            return None
        return clock[time]

    def events_at(self, processor: Agent, time: int) -> Tuple[Event, ...]:
        """The events ``processor`` observes at exactly ``time``."""
        self._require_processor(processor)
        self._require_time(time)
        return self._events[processor].get(time, ())

    def events_by_time(self, processor: Agent) -> Mapping[int, Tuple[Event, ...]]:
        """A read-only ``time -> events`` map of what ``processor`` observes;
        times at which it observes nothing are absent."""
        self._require_processor(processor)
        return MappingProxyType(self._events[processor])

    def facts_at(self, time: int) -> FrozenSet[str]:
        """The ground facts recorded as true at ``(self, time)``."""
        self._require_time(time)
        return self._facts.get(time, frozenset())

    # -- histories ---------------------------------------------------------------
    def history(self, processor: Agent, time: int) -> LocalHistory:
        """``h(p, r, t)``: the processor's local history at time ``time``.

        Empty when the processor has not woken up; otherwise includes the initial
        state, every event observed strictly before ``time``, and (for processors
        with clocks) the clock readings from the wake-up time through ``time``.
        """
        self._require_processor(processor)
        self._require_time(time)
        key = (processor, time)
        cached = self._history_cache.get(key)
        if cached is not None:
            return cached

        history = LocalHistory.at(
            time,
            self._events[processor],
            self._initial_states[processor],
            self._wake_times[processor],
            self._clocks[processor],
        )
        self._history_cache[key] = history
        return history

    def extends(self, point: Point) -> bool:
        """Whether this run extends the point ``point`` (Section 5).

        ``r'`` extends ``(r, t)`` iff ``h(p, r, t') == h(p, r', t')`` for every
        processor ``p`` and every ``t' <= t``.  Because histories are cumulative it
        suffices to compare them at ``t`` itself.
        """
        other, time = point
        if frozenset(other.processors) != self._processor_set:
            return False
        if time > self._duration:
            return False
        return all(
            self.history(p, time) == other.history(p, time) for p in self._processors
        )

    # -- whole-run properties ------------------------------------------------------
    def same_initial_configuration(self, other: "Run") -> bool:
        """Same initial states and same wake-up times for every processor."""
        if frozenset(other.processors) != self._processor_set:
            return False
        return all(
            self._initial_states[p] == other._initial_states[p]
            and self._wake_times[p] == other._wake_times[p]
            for p in self._processors
        )

    def same_clock_readings(self, other: "Run") -> bool:
        """Same clock readings for every processor at every time.

        Following Section 5, runs in a system without clocks trivially have the same
        clock readings.
        """
        if frozenset(other.processors) != self._processor_set:
            return False
        horizon = min(self._duration, other._duration)
        for p in self._processors:
            mine, theirs = self._clocks[p], other._clocks[p]
            if mine is None and theirs is None:
                continue
            if (mine is None) != (theirs is None):
                return False
            assert mine is not None and theirs is not None
            if mine[: horizon + 1] != theirs[: horizon + 1]:
                return False
        return True

    def messages_received_before(self, time: int) -> int:
        """``d(r)``-style count: messages received strictly before ``time`` (all
        processors combined), as used in the proofs of Theorems 5 and 9.

        ``time`` may exceed the run's duration, in which case every received message
        is counted.
        """
        if time < 0:
            raise UnknownPointError("time must be non-negative")
        count = 0
        for p in self._processors:
            for t, events in self._events[p].items():
                if t < time:
                    count += sum(1 for e in events if isinstance(e, ReceiveEvent))
        return count

    def receive_times(self) -> Tuple[int, ...]:
        """The times at which some processor receives a message, sorted ascending."""
        times = set()
        for p in self._processors:
            for t, events in self._events[p].items():
                if any(isinstance(e, ReceiveEvent) for e in events):
                    times.add(t)
        return tuple(sorted(times))

    def no_messages_received(self) -> bool:
        """Whether no message is received anywhere in the run."""
        return not self.receive_times()

    def performed(self, processor: Agent, label: str, time: Optional[int] = None) -> bool:
        """Whether ``processor`` performs the internal action ``label`` by ``time``
        (by the end of the run when ``time`` is omitted)."""
        limit = self._duration if time is None else time
        self._require_time(limit)
        self._require_processor(processor)
        for t in range(0, limit + 1):
            for event in self._events[processor].get(t, ()):
                if isinstance(event, InternalEvent) and event.label == label:
                    return True
        return False

    def action_time(self, processor: Agent, label: str) -> Optional[int]:
        """The first time at which ``processor`` performs ``label``, or ``None``."""
        self._require_processor(processor)
        for t in self.times():
            for event in self._events[processor].get(t, ()):
                if isinstance(event, InternalEvent) and event.label == label:
                    return t
        return None

    # -- dunder / validation ----------------------------------------------------------
    def __repr__(self) -> str:
        return f"Run({self._name!r}, duration={self._duration})"

    def __hash__(self) -> int:
        return hash((self._name, self._duration, self._processors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Run):
            return NotImplemented
        return (
            self._name == other._name
            and self._duration == other._duration
            and self._processors == other._processors
            and self._initial_states == other._initial_states
            and self._wake_times == other._wake_times
            and self._events == other._events
            and self._clocks == other._clocks
            and self._facts == other._facts
        )

    def _require_processor(self, processor: Agent) -> None:
        if processor not in self._processor_set:
            raise UnknownAgentError(f"unknown processor {processor!r}")

    def _require_time(self, time: int) -> None:
        if not 0 <= time <= self._duration:
            raise UnknownPointError(
                f"time {time} is outside this run's range 0..{self._duration}"
            )


class RunBuilder:
    """Incrementally construct a :class:`Run`.

    The simulator and the scenario modules use this builder to accumulate events and
    facts time step by time step and then freeze the result.

    Examples
    --------
    >>> builder = RunBuilder("r0", ["A", "B"], duration=3)
    >>> msg = builder.send("A", "B", "attack at dawn", time=0)
    >>> builder.deliver(msg, time=1)
    >>> builder.add_fact(1, "delivered")
    >>> run = builder.build()
    >>> run.history("B", 2).received_messages()[0].content
    'attack at dawn'
    """

    def __init__(
        self,
        name: str,
        processors: Sequence[Agent],
        duration: int,
        initial_states: Optional[Mapping[Agent, Hashable]] = None,
        wake_times: Optional[Mapping[Agent, int]] = None,
        clocks: Optional[Mapping[Agent, Clock]] = None,
    ):
        self.name = name
        self.processors = tuple(processors)
        self.duration = duration
        self.initial_states = dict(initial_states or {})
        self.wake_times = dict(wake_times or {})
        self.clocks = dict(clocks or {})
        self._events: Dict[Agent, Dict[int, List[Event]]] = {p: {} for p in self.processors}
        self._facts: Dict[int, set] = {}
        self._next_uid = 0

    def add_event(self, processor: Agent, time: int, event: Event) -> None:
        """Record that ``processor`` observes ``event`` at ``time``."""
        if processor not in self._events:
            raise UnknownAgentError(f"unknown processor {processor!r}")
        self._events[processor].setdefault(time, []).append(event)

    def send(
        self, sender: Agent, recipient: Agent, content: Hashable, time: int
    ) -> Message:
        """Record a send event and return the message (so it can later be delivered)."""
        message = Message(sender, recipient, content, uid=self._next_uid)
        self._next_uid += 1
        self.add_event(sender, time, SendEvent(message))
        return message

    def deliver(self, message: Message, time: int) -> None:
        """Record that ``message`` is received by its recipient at ``time``."""
        self.add_event(message.recipient, time, ReceiveEvent(message))

    def act(self, processor: Agent, label: str, time: int, payload: Hashable = None) -> None:
        """Record an internal action (e.g. ``attack`` or ``decide``)."""
        self.add_event(processor, time, InternalEvent(label, payload))

    def add_fact(self, time: int, fact: str) -> None:
        """Mark the ground fact ``fact`` as true at ``(run, time)``."""
        self._facts.setdefault(time, set()).add(fact)

    def add_fact_from(self, start_time: int, fact: str) -> None:
        """Mark ``fact`` as true from ``start_time`` through the end of the run
        (convenient for the paper's *stable* facts)."""
        for time in range(start_time, self.duration + 1):
            self.add_fact(time, fact)

    def build(self) -> Run:
        """Freeze the builder into an immutable :class:`Run`."""
        return Run(
            name=self.name,
            processors=self.processors,
            duration=self.duration,
            initial_states=self.initial_states,
            wake_times=self.wake_times,
            events={p: {t: tuple(evs) for t, evs in per.items()} for p, per in self._events.items()},
            clocks=self.clocks,
            facts={t: frozenset(names) for t, names in self._facts.items()},
        )
