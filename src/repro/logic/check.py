"""Static semantic analysis of formulas (the ``repro check`` engine).

Appendix A's fixpoint semantics and the runs-and-systems operators impose
side conditions — positivity of ``nu``/``mu`` variables, agents drawn from
the scenario's processor set, integral ``eps`` windows, timestamps within a
run's horizon — that the evaluator only discovers *during* evaluation, deep
inside a sweep.  This module checks them statically: :func:`check_formula`
walks a built :class:`~repro.logic.syntax.Formula` (polarity- and
scope-tracking), :func:`check_text` additionally folds parse/construction
failures into the same diagnostic stream, and :class:`ScenarioSignature`
carries the static shape of a scenario (agents, horizon, Kripke-vs-system
capability) that the signature-dependent checks run against.

Every finding is a :class:`~repro.analysis.diagnostics.Diagnostic` with a
stable ``REPxxx`` code; the CLI verb and the runner pre-flight consume the
same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
)
from repro.errors import FormulaError, ParseError, PositivityError
from repro.logic.agents import Agent
from repro.logic.syntax import (
    Always,
    CommonAt,
    CommonDiamond,
    CommonEps,
    Eventually,
    EveryoneAt,
    EveryoneDiamond,
    EveryoneEps,
    Formula,
    Iff,
    Implies,
    Knows,
    KnowsAt,
    Not,
    Var,
    _Fixpoint,
    _GroupModal,
)

__all__ = [
    "ScenarioSignature",
    "TEMPORAL_NODES",
    "KIND_KRIPKE",
    "KIND_SYSTEM",
    "check_formula",
    "check_formulas",
    "check_text",
]

KIND_KRIPKE = "kripke"
"""Signature ``kind`` for scenarios that build a bare Kripke structure."""

KIND_SYSTEM = "system"
"""Signature ``kind`` for scenarios that build a system of runs."""

TEMPORAL_NODES = (
    EveryoneEps,
    CommonEps,
    EveryoneDiamond,
    CommonDiamond,
    KnowsAt,
    EveryoneAt,
    CommonAt,
    Eventually,
    Always,
)
"""Node types that require runs-and-systems semantics (time / clocks)."""

_COSTLY_UNIVERSE = 256
"""Universe size above which a doubly-nested fixpoint draws a cost warning."""


@dataclass(frozen=True)
class ScenarioSignature:
    """The statically-known shape of a scenario, for signature checks.

    A signature is computable from the registry's parameter schema alone —
    no model is built and no protocol is simulated — which is what lets the
    pre-flight reject a bad batch before instance build or pool spin-up.

    Attributes
    ----------
    agents:
        The scenario's agent/processor labels.
    kind:
        :data:`KIND_KRIPKE` or :data:`KIND_SYSTEM` — whether temporal
        operators are meaningful at all.
    horizon:
        Upper bound on clock readings/timestamps, or ``None`` when unknown.
    custom_clocks:
        ``True`` when the scenario assigns non-perfect clocks, in which case
        over-horizon timestamps are degraded to warnings (drifting clocks can
        legitimately read values a perfect clock never would).
    universe_size:
        Estimated number of worlds/points, or ``None``; feeds the fixpoint
        cost warning.
    name:
        The scenario name, used in messages; may be empty.
    """

    agents: Tuple[Agent, ...]
    kind: str = KIND_SYSTEM
    horizon: Optional[int] = None
    custom_clocks: bool = False
    universe_size: Optional[int] = None
    name: str = ""

    def describe_agents(self) -> str:
        """The agent set rendered deterministically for messages."""
        return "{" + ", ".join(str(a) for a in sorted(self.agents, key=repr)) + "}"


FormulaBatch = Union[
    Mapping[str, Formula], Sequence[Tuple[str, Formula]], Iterable[Formula]
]


def check_formula(
    formula: Formula,
    signature: Optional[ScenarioSignature] = None,
    label: str = "",
) -> List[Diagnostic]:
    """Statically check one built formula; returns its diagnostics.

    Always runs the structural checks (unbound/shadowed fixpoint variables,
    positivity, fixpoint-nesting cost); when ``signature`` is given, also runs
    the scenario-signature checks (unknown agents, over-horizon timestamps,
    fractional ``eps``, temporal operators against a Kripke scenario).
    """
    walker = _Walker(signature, label)
    walker.walk(formula, type(formula).__name__, positive=True, binders={})
    walker.cost_check()
    return walker.diagnostics


def check_formulas(
    formulas: FormulaBatch,
    signature: Optional[ScenarioSignature] = None,
) -> List[Diagnostic]:
    """Check a labelled formula batch; diagnostics carry the formula label.

    Accepts a mapping ``label -> Formula``, a sequence of ``(label, Formula)``
    pairs (the runner's normalised batch shape), or bare formulas.
    """
    diagnostics: List[Diagnostic] = []
    for label, formula in _iter_batch(formulas):
        diagnostics.extend(check_formula(formula, signature, label=label))
    return diagnostics


def check_text(
    text: str,
    signature: Optional[ScenarioSignature] = None,
    label: str = "",
) -> Tuple[Optional[Formula], List[Diagnostic]]:
    """Parse ``text`` and check it, folding parse failures into diagnostics.

    Returns ``(formula, diagnostics)``; ``formula`` is ``None`` when the text
    does not even build (``REP001`` for parse errors, ``REP003`` when the
    parser's constructors reject a positivity violation).
    """
    from repro.logic.parser import parse

    try:
        formula = parse(text)
    except PositivityError as exc:
        return None, [
            Diagnostic(
                code="REP003",
                severity=SEVERITY_ERROR,
                message=str(exc),
                path=f"Var({exc.variable!r})" if exc.variable else "",
                hint="rewrite the body so the fixpoint variable sits under an "
                "even number of negations",
                label=label or text,
            )
        ]
    except ParseError as exc:
        return None, [
            Diagnostic(
                code="REP001",
                severity=SEVERITY_ERROR,
                message=str(exc),
                hint="see the grammar in repro.logic.parser",
                label=label or text,
            )
        ]
    except FormulaError as exc:
        return None, [
            Diagnostic(
                code="REP001",
                severity=SEVERITY_ERROR,
                message=str(exc),
                label=label or text,
            )
        ]
    return formula, check_formula(formula, signature, label=label or text)


def _iter_batch(formulas: FormulaBatch) -> Iterable[Tuple[str, Formula]]:
    """Normalise the accepted batch shapes into ``(label, formula)`` pairs."""
    if isinstance(formulas, Mapping):
        return list(formulas.items())
    pairs: List[Tuple[str, Formula]] = []
    for entry in formulas:
        if isinstance(entry, tuple):
            label, formula = entry
            pairs.append((str(label), formula))
        else:
            pairs.append((str(entry), entry))
    return pairs


class _Walker:
    """One polarity- and scope-tracking traversal of a formula tree."""

    def __init__(self, signature: Optional[ScenarioSignature], label: str):
        self.signature = signature
        self.label = label
        self.diagnostics: List[Diagnostic] = []
        self.max_fixpoint_nesting = 0

    # -- reporting ---------------------------------------------------------
    def report(
        self, code: str, severity: str, message: str, path: str, hint: str = ""
    ) -> None:
        """Append one diagnostic for this walk's formula."""
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                path=path,
                hint=hint,
                label=self.label,
            )
        )

    # -- the walk ----------------------------------------------------------
    def walk(
        self,
        formula: Formula,
        path: str,
        positive: bool,
        binders: Dict[str, Optional[bool]],
        fixpoint_depth: int = 0,
    ) -> None:
        """Visit ``formula``; ``binders`` maps bound names to binder polarity."""
        if isinstance(formula, Var):
            self._visit_var(formula, path, positive, binders)
            return
        if isinstance(formula, _Fixpoint):
            self._visit_fixpoint(formula, path, positive, binders, fixpoint_depth)
            return
        if isinstance(formula, Iff):
            self._visit_iff(formula, path, positive, binders, fixpoint_depth)
            return
        self._signature_checks(formula, path)
        if isinstance(formula, Not):
            self.walk(
                formula.operand,
                self._child(path, "operand", formula.operand),
                not positive,
                binders,
                fixpoint_depth,
            )
            return
        if isinstance(formula, Implies):
            self.walk(
                formula.antecedent,
                self._child(path, "antecedent", formula.antecedent),
                not positive,
                binders,
                fixpoint_depth,
            )
            self.walk(
                formula.consequent,
                self._child(path, "consequent", formula.consequent),
                positive,
                binders,
                fixpoint_depth,
            )
            return
        for index, child in enumerate(formula.children()):
            edge = "operand" if len(formula.children()) == 1 else f"operands[{index}]"
            self.walk(
                child,
                self._child(path, edge, child),
                positive,
                binders,
                fixpoint_depth,
            )

    @staticmethod
    def _child(path: str, edge: str, child: Formula) -> str:
        """Extend a node path with an edge and the child's type name."""
        return f"{path}.{edge}.{type(child).__name__}"

    # -- node-specific visits ----------------------------------------------
    def _visit_var(
        self, formula: Var, path: str, positive: bool, binders: Dict[str, Optional[bool]]
    ) -> None:
        """Unbound-variable and positivity checks at a ``Var`` occurrence."""
        if formula.name not in binders:
            self.report(
                "REP002",
                SEVERITY_ERROR,
                f"fixpoint variable {formula.name!r} is free and unbound",
                f"{path}({formula.name!r})",
                hint=f"bind it with 'nu {formula.name}. ...' or "
                f"'mu {formula.name}. ...'",
            )
            return
        binder_polarity = binders[formula.name]
        if binder_polarity is not None and positive != binder_polarity:
            self.report(
                "REP003",
                SEVERITY_ERROR,
                f"fixpoint variable {formula.name!r} occurs under an odd number "
                "of negations relative to its binder; the induced transformer "
                "is not monotone",
                f"{path}({formula.name!r})",
                hint="rewrite the body so the variable sits under an even "
                "number of negations",
            )

    def _visit_fixpoint(
        self,
        formula: _Fixpoint,
        path: str,
        positive: bool,
        binders: Dict[str, Optional[bool]],
        fixpoint_depth: int,
    ) -> None:
        """Shadowing bookkeeping and nesting-depth tracking at a binder."""
        if formula.variable in binders:
            self.report(
                "REP004",
                SEVERITY_WARNING,
                f"fixpoint variable {formula.variable!r} shadows an outer "
                "binder of the same name; inner occurrences refer to the "
                "inner binder only",
                path,
                hint="rename one of the binders to keep the scopes readable",
            )
        depth = fixpoint_depth + 1
        self.max_fixpoint_nesting = max(self.max_fixpoint_nesting, depth)
        inner = dict(binders)
        inner[formula.variable] = positive
        self.walk(
            formula.body,
            self._child(path, "body", formula.body),
            positive,
            inner,
            depth,
        )

    def _visit_iff(
        self,
        formula: Iff,
        path: str,
        positive: bool,
        binders: Dict[str, Optional[bool]],
        fixpoint_depth: int,
    ) -> None:
        """An ``<->`` uses both polarities: bound variables may not occur."""
        free = formula.free_variables()
        for name in sorted(binders):
            if name in free:
                self.report(
                    "REP003",
                    SEVERITY_ERROR,
                    f"fixpoint variable {name!r} occurs inside an '<->', which "
                    "uses it both positively and negatively",
                    path,
                    hint="expand the '<->' into two implications and keep the "
                    "variable out of the negative one",
                )
        # Occurrences of bound variables inside are already reported above;
        # keep the names in scope (so they are not re-reported as unbound)
        # but suppress their polarity checks with a None marker.
        inner: Dict[str, Optional[bool]] = {name: None for name in binders}
        for edge, child in (("left", formula.left), ("right", formula.right)):
            self.walk(
                child,
                self._child(path, edge, child),
                positive,
                inner,
                fixpoint_depth,
            )

    # -- signature-dependent checks ------------------------------------------
    def _signature_checks(self, formula: Formula, path: str) -> None:
        """Agent-set, horizon, eps and capability checks at one node."""
        signature = self.signature
        if signature is None:
            return
        scenario = f" in scenario {signature.name!r}" if signature.name else ""
        if signature.kind == KIND_KRIPKE and isinstance(formula, TEMPORAL_NODES):
            self.report(
                "REP105",
                SEVERITY_ERROR,
                f"{type(formula).__name__} needs runs-and-systems semantics, "
                f"but{scenario or ' this scenario'} builds a bare Kripke "
                "structure with no notion of time",
                path,
                hint="use the static operators (K/E/C/D), or a system-of-runs "
                "scenario",
            )
            return
        if isinstance(formula, (Knows, KnowsAt)):
            if formula.agent not in signature.agents:
                self.report(
                    "REP101",
                    SEVERITY_ERROR,
                    f"unknown agent {formula.agent!r}{scenario}; "
                    f"known agents are {signature.describe_agents()}",
                    path,
                    hint="pick an agent from the scenario's agent set",
                )
        if isinstance(formula, _GroupModal):
            members = tuple(formula.group.members)
            known = [m for m in members if m in signature.agents]
            if not known:
                self.report(
                    "REP102",
                    SEVERITY_ERROR,
                    f"group {formula.group!r} mentions no agent of"
                    f"{scenario or ' this scenario'}; known agents are "
                    f"{signature.describe_agents()}",
                    path,
                    hint="build the group from the scenario's agent set",
                )
            else:
                for member in sorted(members, key=repr):
                    if member not in signature.agents:
                        self.report(
                            "REP101",
                            SEVERITY_ERROR,
                            f"unknown agent {member!r}{scenario}; known agents "
                            f"are {signature.describe_agents()}",
                            path,
                            hint="pick agents from the scenario's agent set",
                        )
        if isinstance(formula, (EveryoneEps, CommonEps)):
            eps = formula.eps
            if float(eps) != int(eps):
                self.report(
                    "REP104",
                    SEVERITY_ERROR,
                    f"E^eps/C^eps windows advance in whole time steps; got "
                    f"eps={eps!r}",
                    path,
                    hint="use an integer number of steps",
                )
        timestamp = getattr(formula, "timestamp", None)
        if (
            timestamp is not None
            and signature.horizon is not None
            and timestamp > signature.horizon
        ):
            severity = (
                SEVERITY_WARNING if signature.custom_clocks else SEVERITY_ERROR
            )
            qualifier = (
                "a drifting clock might still reach it"
                if signature.custom_clocks
                else "no clock ever reads it, so the operator is trivially empty"
            )
            self.report(
                "REP103",
                severity,
                f"timestamp {timestamp!r} is beyond the scenario horizon "
                f"{signature.horizon!r}{scenario}; {qualifier}",
                path,
                hint=f"use a timestamp within 0..{signature.horizon}",
            )

    # -- cost ---------------------------------------------------------------
    def cost_check(self) -> None:
        """Emit the fixpoint-nesting cost warning after the walk finishes."""
        nesting = self.max_fixpoint_nesting
        if nesting < 2:
            return
        universe = self.signature.universe_size if self.signature else None
        if universe is not None and universe >= _COSTLY_UNIVERSE:
            self.report(
                "REP201",
                SEVERITY_WARNING,
                f"{nesting} nested fixpoint binders over an estimated universe "
                f"of {universe} points; each unfolding of the outer binder "
                "re-runs the inner iteration from scratch",
                "",
                hint="restructure the formula, shrink the parameters, or use "
                "the bitset backend",
            )
        elif nesting >= 3:
            self.report(
                "REP201",
                SEVERITY_WARNING,
                f"{nesting} nested fixpoint binders; iteration cost grows "
                "multiplicatively with nesting depth",
                "",
                hint="restructure the formula to flatten the fixpoint nest",
            )
