"""View functions (Section 6).

A *view function* ``v`` assigns to every processor at every point a view; a processor
knows a fact at a point exactly if the fact holds at all points of the system at which
the processor has the same view.  The paper requires a processor's view to be a
function of its local history; every view function here derives its view from the
local history, so that requirement holds by construction.

An interpretation only needs to know which points share a view, so it asks
:meth:`ViewFunction.class_ids` for one small int per point instead of the views
themselves.  The default numbers the ``view()`` values in order of first
appearance.  :class:`CompleteHistoryView` computes the same numbers without
building any history: a history is the initial state plus two growing sequences
(the marked events and the clock readings, from the wake-up reading on), so it
interns each sequence as a path in a trie and a history as the initial state and
the two path ids.

The view functions provided:

* :class:`CompleteHistoryView` — ``v(p, r, t) = h(p, r, t)``; the finest view,
  best suited for impossibility arguments (the paper's *complete-history
  interpretation*).
* :class:`LocalStateView` — the view is a user-supplied *state function* of the
  history, modelling processors that may "forget" (the state-machine interpretation
  mentioned in Section 6).
* :class:`ClockOnlyView` — the processor observes only its clock reading (useful for
  the "global clock" discussions of Sections 8 and 12).
* :class:`TrivialView` — the single-view interpretation: nobody distinguishes
  anything, so exactly the facts valid in the system are (common) knowledge.
* :class:`RecentEventsView` — remembers only the last ``k`` events, a simple concrete
  forgetting view used in tests and the view-comparison benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.logic.agents import Agent
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "ViewFunction",
    "CompleteHistoryView",
    "LocalStateView",
    "ClockOnlyView",
    "TrivialView",
    "RecentEventsView",
]

_ASLEEP = object()
"""The key every asleep point shares: no awake history's key equals it."""


class ViewFunction:
    """Base class: a view is any hashable value derived from the local history."""

    name = "view"

    def view(self, processor: Agent, run: Run, time: int) -> Hashable:
        """The view of ``processor`` at the point ``(run, time)``."""
        history = run.history(processor, time)
        return self.view_of_history(processor, history)

    def view_of_history(self, processor: Agent, history: LocalHistory) -> Hashable:
        """Derive the view from the local history (override in subclasses)."""
        raise NotImplementedError

    def class_ids(self, system: System, processor: Agent) -> List[int]:
        """One int per point of ``system``, in ``system.points()`` order, equal
        exactly where ``processor``'s views are equal.

        Ids are numbered by first appearance, so any two implementations that
        agree on which views are equal return identical lists.
        """
        view = self.view
        ids: Dict[Hashable, int] = {}
        intern = ids.setdefault
        return [intern(view(processor, run, time), len(ids)) for run, time in system.points()]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CompleteHistoryView(ViewFunction):
    """The complete-history interpretation: the view *is* the local history.

    This makes the finest possible distinctions among histories, so it ascribes at
    least as much knowledge as any other view-based interpretation; the paper uses it
    for lower bounds and impossibility results.
    """

    name = "complete-history"

    def view_of_history(self, processor: Agent, history: LocalHistory) -> Hashable:
        return history

    def class_ids(self, system: System, processor: Agent) -> List[int]:
        """First-appearance ids of ``h(processor, r, t)``, without building a history.

        Equal histories have equal flat sequences of ``(clock mark, event)``
        pairs and of clock readings, so each sequence is interned as a trie
        path: a node id is the id of ``(parent id, next element)``, with 0 for
        the empty sequence.  Keys per time step, such as ``(parent, events at
        t - 1, reading)``, would not do: clocks may repeat a reading and
        clockless histories drop step boundaries, so one history can be cut
        into steps in more than one way.  A history's key is ``(initial state,
        event-sequence id, reading-sequence id)``.  The wake-up reading is the
        first element of the reading sequence, so a clocked history's reading
        id is never that of the empty sequence, which every clockless history
        has.  Every asleep point shares one key.
        """
        event_nodes: Dict[Tuple, int] = {}
        reading_nodes: Dict[Tuple, int] = {}
        step_event = event_nodes.setdefault
        step_reading = reading_nodes.setdefault
        ids: Dict[Hashable, int] = {}
        intern = ids.setdefault
        class_ids: List[int] = []
        append = class_ids.append
        for run in system.runs:
            wake, duration = run.wake_time(processor), run.duration
            if wake:
                class_ids.extend([intern(_ASLEEP, len(ids))] * min(wake, duration + 1))
            if wake > duration:
                continue
            clock = run.clock(processor)
            initial_state = run.initial_state(processor)
            events_at = run.events_by_time(processor).get
            event_id = reading_id = 0
            for time in range(wake, duration + 1):
                marker = None
                if clock is not None:
                    marker = clock[time]
                    reading_id = step_reading((reading_id, marker), len(reading_nodes) + 1)
                append(intern((initial_state, event_id, reading_id), len(ids)))
                for event in events_at(time, ()):
                    event_id = step_event((event_id, marker, event), len(event_nodes) + 1)
        return class_ids


class LocalStateView(ViewFunction):
    """A view given by an arbitrary state function of the history.

    ``state_function(processor, history)`` must return a hashable local state.  If a
    processor can reach the same state via two different histories it "forgets" the
    difference, exactly as discussed for the state-machine interpretation in
    Section 6.
    """

    name = "local-state"

    def __init__(self, state_function: Callable[[Agent, LocalHistory], Hashable]):
        self._state_function = state_function

    def view_of_history(self, processor: Agent, history: LocalHistory) -> Hashable:
        return self._state_function(processor, history)


class ClockOnlyView(ViewFunction):
    """The processor observes only whether it is awake and its current clock reading."""

    name = "clock-only"

    def view_of_history(self, processor: Agent, history: LocalHistory) -> Hashable:
        if not history.awake:
            return ("asleep",)
        reading = history.clock_readings[-1] if history.clock_readings else None
        return ("awake", reading)


class TrivialView(ViewFunction):
    """The single-view interpretation of Section 6: every point looks the same.

    Under this view the knowledge hierarchy collapses and every fact valid in the
    system is common knowledge among all processors.
    """

    name = "trivial"

    def view_of_history(self, processor: Agent, history: LocalHistory) -> Hashable:
        return None


class RecentEventsView(ViewFunction):
    """Remember the initial state and only the most recent ``window`` events.

    A concrete "forgetting" view used to illustrate how coarser views ascribe less
    knowledge than the complete-history view.
    """

    name = "recent-events"

    def __init__(self, window: int = 1):
        if window < 0:
            raise ValueError("window must be non-negative")
        self._window = window

    def view_of_history(self, processor: Agent, history: LocalHistory) -> Hashable:
        if not history.awake:
            return ("asleep",)
        recent: Tuple = history.events[-self._window:] if self._window else ()
        reading = history.clock_readings[-1] if history.clock_readings else None
        return ("awake", history.initial_state, recent, reading)
