"""Structured diagnostics for the static formula checker.

The static analyzer in :mod:`repro.logic.check` reports its findings as
:class:`Diagnostic` records — stable machine-readable codes (``REP001`` …),
a severity (``error`` / ``warning``), the path of the offending node inside
the formula tree, a human-readable message and a fix hint.  This module owns
the record type, the code table and the rendering/aggregation helpers shared
by every surface (the ``repro check`` CLI verb and the runner pre-flight).

Severity semantics:

* ``error`` — the formula will misevaluate or raise at evaluation time
  (unbound variable, positivity violation, unknown agent, …).  Pre-flight
  refuses to run such a batch.
* ``warning`` — the formula is evaluable but suspicious (shadowed fixpoint
  variable, trivially-false over-horizon timestamp under drifting clocks,
  an expensive fixpoint nest).  ``repro check --strict`` promotes warnings
  to failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Diagnostic",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "CODE_TABLE",
    "has_errors",
    "worst_severity",
    "render_diagnostic",
    "render_diagnostics",
    "summarize",
]

SEVERITY_ERROR = "error"
"""Severity for findings that make a formula unevaluable or unsound."""

SEVERITY_WARNING = "warning"
"""Severity for suspicious-but-evaluable findings."""

CODE_TABLE: Dict[str, str] = {
    "REP001": "formula text does not parse",
    "REP002": "unbound fixpoint variable",
    "REP003": "fixpoint positivity violation (variable under an odd number of negations)",
    "REP004": "shadowed fixpoint variable (inner binder rebinds an outer name)",
    "REP101": "unknown agent for this scenario",
    "REP102": "group mentions no agent of this scenario",
    "REP103": "timestamp beyond the scenario horizon",
    "REP104": "fractional epsilon on an E^eps/C^eps operator",
    "REP105": "temporal-epistemic operator against a bare Kripke scenario",
    "REP201": "costly fixpoint nesting for the scenario's universe size",
}
"""Stable code → short description, rendered into docs/architecture.md."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static checker.

    Attributes
    ----------
    code:
        Stable machine-readable code (``REP001`` …); see :data:`CODE_TABLE`.
    severity:
        :data:`SEVERITY_ERROR` or :data:`SEVERITY_WARNING`.
    message:
        Human-readable description of the finding.
    path:
        Dotted path of the offending node inside the formula tree, e.g.
        ``"GreatestFixpoint.body.Not.operand.Var"``.  Empty for whole-formula
        findings (parse errors).
    hint:
        A concrete suggestion for fixing the finding; may be empty.
    label:
        The label of the formula inside a batch (empty when checking a single
        anonymous formula).
    """

    code: str
    severity: str
    message: str
    path: str = ""
    hint: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.severity not in (SEVERITY_ERROR, SEVERITY_WARNING):
            raise ValueError(f"unknown diagnostic severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        """Whether this finding has error severity."""
        return self.severity == SEVERITY_ERROR

    def to_dict(self) -> Dict[str, str]:
        """A JSON-ready representation (used by ``repro check --json``)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "path": self.path,
            "hint": self.hint,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "Diagnostic":
        """Rebuild a diagnostic from :meth:`to_dict` output."""
        return cls(
            code=payload["code"],
            severity=payload["severity"],
            message=payload["message"],
            path=payload.get("path", ""),
            hint=payload.get("hint", ""),
            label=payload.get("label", ""),
        )


def has_errors(diagnostics: Iterable[Diagnostic], strict: bool = False) -> bool:
    """Whether any diagnostic should fail a check.

    With ``strict=True`` warnings count as failures too (the ``--strict``
    contract of ``repro check``).
    """
    for diagnostic in diagnostics:
        if strict or diagnostic.is_error:
            return True
    return False


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Optional[str]:
    """The most severe level present, or ``None`` for a clean result."""
    worst: Optional[str] = None
    for diagnostic in diagnostics:
        if diagnostic.is_error:
            return SEVERITY_ERROR
        worst = SEVERITY_WARNING
    return worst


def render_diagnostic(diagnostic: Diagnostic) -> str:
    """One-line human rendering: ``CODE severity [label] path: message (hint)``."""
    parts = [diagnostic.code, diagnostic.severity]
    if diagnostic.label:
        parts.append(f"[{diagnostic.label}]")
    if diagnostic.path:
        parts.append(f"at {diagnostic.path}")
    head = " ".join(parts)
    line = f"{head}: {diagnostic.message}"
    if diagnostic.hint:
        line += f" (hint: {diagnostic.hint})"
    return line


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[str]:
    """Render a list of diagnostics, errors first, stable within severity."""
    ordered = sorted(
        diagnostics, key=lambda d: (0 if d.is_error else 1, d.code, d.label, d.path)
    )
    return [render_diagnostic(d) for d in ordered]


def summarize(diagnostics: Sequence[Diagnostic]) -> str:
    """A one-line count summary, e.g. ``2 errors, 1 warning``."""
    errors = sum(1 for d in diagnostics if d.is_error)
    warnings = len(diagnostics) - errors
    error_part = f"{errors} error{'s' if errors != 1 else ''}"
    warning_part = f"{warnings} warning{'s' if warnings != 1 else ''}"
    return f"{error_part}, {warning_part}"
