"""Analysis layer (see the layer map in ``docs/architecture.md``).

Executable forms of the paper's theorems and analyses: the knowledge hierarchy of
Section 3, the attainability results of Section 8 / Appendix B, the coordination ↔
knowledge correspondences of Sections 7, 11 and 12, and the clock-synchronisation
helpers used by Theorem 12 and Proposition 15.  The structured diagnostics the
static formula checker emits (:mod:`repro.analysis.diagnostics`) live here too.
"""

from repro.analysis.diagnostics import (
    CODE_TABLE,
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    has_errors,
    render_diagnostic,
    render_diagnostics,
    summarize,
    worst_severity,
)
from repro.analysis.attainability import (
    TheoremReport,
    initial_point_reachable,
    matching_silent_run,
    verify_proposition13,
    verify_theorem11,
    verify_theorem5,
    verify_theorem8,
    verify_theorem9,
)
from repro.analysis.clock_sync import (
    Theorem12Report,
    clocks_identical,
    every_clock_reads,
    maximum_clock_skew,
    uncertainty_gives_imprecision,
    verify_theorem12,
)
from repro.analysis.coordination import (
    ActionCoordination,
    action_coordination,
    coordination_spread,
    knowledge_when_acting,
    simultaneous_action_implies_common_knowledge,
)
from repro.analysis.hierarchy import (
    HierarchyLevel,
    HierarchyReport,
    check_hierarchy,
    hierarchy_collapses,
    hierarchy_formulas,
    separation_profile,
)

__all__ = [
    "CODE_TABLE",
    "Diagnostic",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "has_errors",
    "render_diagnostic",
    "render_diagnostics",
    "summarize",
    "worst_severity",
    "TheoremReport",
    "initial_point_reachable",
    "matching_silent_run",
    "verify_proposition13",
    "verify_theorem11",
    "verify_theorem5",
    "verify_theorem8",
    "verify_theorem9",
    "Theorem12Report",
    "clocks_identical",
    "every_clock_reads",
    "maximum_clock_skew",
    "uncertainty_gives_imprecision",
    "verify_theorem12",
    "ActionCoordination",
    "action_coordination",
    "coordination_spread",
    "knowledge_when_acting",
    "simultaneous_action_implies_common_knowledge",
    "HierarchyLevel",
    "HierarchyReport",
    "check_hierarchy",
    "hierarchy_collapses",
    "hierarchy_formulas",
    "separation_profile",
]
