"""Runs-and-systems substrate (the Systems layer of ``docs/architecture.md``).

Implements the paper's general model of a distributed system (Section 5), view-based
and general epistemic knowledge interpretations (Sections 6 and 13), the temporal
variants of common knowledge (Sections 11 and 12), and the communication-property
conditions used by the attainability theorems (Section 8 and Appendix B).
"""

from repro.systems.clocks import (
    Clock,
    clocks_within,
    offset_clock,
    perfect_clock,
    scaled_clock,
    validate_clock,
)
from repro.systems.conditions import (
    ConditionReport,
    communication_not_guaranteed,
    has_temporal_imprecision,
    satisfies_ng1,
    satisfies_ng2,
    satisfies_unbounded_delivery,
    shifted_run_exists,
    uncertain_start_times,
)
from repro.systems.epistemic import (
    BeliefAssignment,
    EpistemicInterpretation,
    eager_belief_assignment,
)
from repro.systems.events import Event, InternalEvent, Message, ReceiveEvent, SendEvent
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.runs import LocalHistory, Point, Run, RunBuilder
from repro.systems.system import (
    CallableValuation,
    RunFactsValuation,
    StaticValuation,
    System,
    Valuation,
)
from repro.systems.views import (
    ClockOnlyView,
    CompleteHistoryView,
    LocalStateView,
    RecentEventsView,
    TrivialView,
    ViewFunction,
)

__all__ = [
    "Clock",
    "clocks_within",
    "offset_clock",
    "perfect_clock",
    "scaled_clock",
    "validate_clock",
    "ConditionReport",
    "communication_not_guaranteed",
    "has_temporal_imprecision",
    "satisfies_ng1",
    "satisfies_ng2",
    "satisfies_unbounded_delivery",
    "shifted_run_exists",
    "uncertain_start_times",
    "BeliefAssignment",
    "EpistemicInterpretation",
    "eager_belief_assignment",
    "Event",
    "InternalEvent",
    "Message",
    "ReceiveEvent",
    "SendEvent",
    "ViewBasedInterpretation",
    "LocalHistory",
    "Point",
    "Run",
    "RunBuilder",
    "CallableValuation",
    "RunFactsValuation",
    "StaticValuation",
    "System",
    "Valuation",
    "ClockOnlyView",
    "CompleteHistoryView",
    "LocalStateView",
    "RecentEventsView",
    "TrivialView",
    "ViewFunction",
]
