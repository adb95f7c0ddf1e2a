"""Analysis layer (see the layer map in ``docs/architecture.md``).

Executable forms of the paper's theorems and analyses: the knowledge hierarchy of
Section 3, the attainability results of Section 8 / Appendix B, the coordination ↔
knowledge correspondences of Sections 7, 11 and 12, and the clock-synchronisation
helpers used by Theorem 12 and Proposition 15.  The structured diagnostics the
static formula checker emits (:mod:`repro.analysis.diagnostics`) live here too.

The names below are re-exported lazily (PEP 562): importing the package, or
:mod:`repro.analysis.diagnostics` alone (as the static checker does), imports
none of the theorem modules and so none of :mod:`repro.systems`.
"""

import importlib

_EXPORTS = {
    "CODE_TABLE": "diagnostics",
    "Diagnostic": "diagnostics",
    "SEVERITY_ERROR": "diagnostics",
    "SEVERITY_WARNING": "diagnostics",
    "has_errors": "diagnostics",
    "render_diagnostic": "diagnostics",
    "render_diagnostics": "diagnostics",
    "summarize": "diagnostics",
    "worst_severity": "diagnostics",
    "TheoremReport": "attainability",
    "initial_point_reachable": "attainability",
    "matching_silent_run": "attainability",
    "verify_proposition13": "attainability",
    "verify_theorem11": "attainability",
    "verify_theorem5": "attainability",
    "verify_theorem8": "attainability",
    "verify_theorem9": "attainability",
    "Theorem12Report": "clock_sync",
    "clocks_identical": "clock_sync",
    "every_clock_reads": "clock_sync",
    "maximum_clock_skew": "clock_sync",
    "uncertainty_gives_imprecision": "clock_sync",
    "verify_theorem12": "clock_sync",
    "ActionCoordination": "coordination",
    "action_coordination": "coordination",
    "coordination_spread": "coordination",
    "knowledge_when_acting": "coordination",
    "simultaneous_action_implies_common_knowledge": "coordination",
    "HierarchyLevel": "hierarchy",
    "HierarchyReport": "hierarchy",
    "check_hierarchy": "hierarchy",
    "hierarchy_collapses": "hierarchy",
    "hierarchy_formulas": "hierarchy",
    "separation_profile": "hierarchy",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
