"""Formula syntax for the epistemic language of Halpern & Moses.

The language starts from *ground facts* (primitive propositions about the state of the
system) and is closed under Boolean connectives and the knowledge operators of the
paper:

========================  =====================================================
Operator                  Reading
========================  =====================================================
``K(i, p)``               agent *i* knows *p*                      (Section 3)
``S(G, p)``               someone in *G* knows *p*                 (Section 3)
``E(G, p)``               everyone in *G* knows *p*                (Section 3)
``E(G, p, k)``            E^k: everyone knows that ... (k times)   (Section 3)
``D(G, p)``               *p* is distributed knowledge in *G*      (Section 3)
``C(G, p)``               *p* is common knowledge in *G*           (Section 3)
``EEps(G, p, eps)``       within an eps interval everyone knows p  (Section 11)
``CEps(G, p, eps)``       eps-common knowledge                     (Section 11)
``EDiamond(G, p)``        everyone will eventually have known p    (Section 11)
``CDiamond(G, p)``        eventual (diamond) common knowledge      (Section 11)
``KT(i, p, T)``           at time T on i's clock, i knows p        (Section 12)
``ET(G, p, T)``           timestamped "everyone knows"             (Section 12)
``CT(G, p, T)``           timestamped common knowledge             (Section 12)
``Nu(X, p)`` / ``Mu``     greatest / least fixed point             (Appendix A)
``Var(X)``                fixpoint variable                        (Appendix A)
``Eventually(p)``         p holds now or at some later time in the run
``Always(p)``             p holds now and at all later times in the run
========================  =====================================================

Formulas are immutable and hashable; two formulas are equal exactly when they have the
same structure.  The Boolean connectives can be written with Python operators::

    m = Prop("muddy_a")
    phi = ~m | K("a", m)          # (not m) or K_a m
    psi = (m & phi) >> C(["a", "b"], m)

Nothing in this module evaluates formulas; evaluation lives in
:mod:`repro.kripke.checker` (static Kripke structures) and
:mod:`repro.systems.interpretation` (runs-and-systems models).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Tuple

from repro.errors import FormulaError, PositivityError
from repro.logic.agents import Agent, Group, GroupLike, as_agent, as_group

__all__ = [
    "Formula",
    "TrueFormula",
    "FalseFormula",
    "TRUE",
    "FALSE",
    "Prop",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Knows",
    "Someone",
    "Everyone",
    "Distributed",
    "Common",
    "EveryoneEps",
    "CommonEps",
    "EveryoneDiamond",
    "CommonDiamond",
    "KnowsAt",
    "EveryoneAt",
    "CommonAt",
    "Eventually",
    "Always",
    "GreatestFixpoint",
    "LeastFixpoint",
    "K",
    "S",
    "E",
    "D",
    "C",
    "EEps",
    "CEps",
    "EDiamond",
    "CDiamond",
    "KT",
    "ET",
    "CT",
    "Nu",
    "Mu",
    "prop",
    "props",
    "conjunction",
    "disjunction",
]


class Formula:
    """Base class of all formulas.

    Subclasses are immutable; the Boolean operators ``~``, ``&``, ``|``, ``>>`` build
    :class:`Not`, :class:`And`, :class:`Or` and :class:`Implies` nodes respectively.
    """

    __slots__ = ()

    # -- construction helpers -------------------------------------------------
    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, _check_formula(other)))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, _check_formula(other)))

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, _check_formula(other))

    def iff(self, other: "Formula") -> "Formula":
        """Build the biconditional ``self <-> other``."""
        return Iff(self, _check_formula(other))

    def implies(self, other: "Formula") -> "Formula":
        """Build the implication ``self -> other`` (alias of ``>>``)."""
        return Implies(self, _check_formula(other))

    # -- structure ------------------------------------------------------------
    def children(self) -> Tuple["Formula", ...]:
        """The immediate subformulas of this formula."""
        raise NotImplementedError

    def with_children(self, children: Tuple["Formula", ...]) -> "Formula":
        """Rebuild this node with new children (used by generic traversals)."""
        raise NotImplementedError

    def subformulas(self) -> Iterator["Formula"]:
        """Yield this formula and all of its subformulas (pre-order, may repeat)."""
        yield self
        for child in self.children():
            yield from child.subformulas()

    def atoms(self) -> FrozenSet[str]:
        """The names of all primitive propositions occurring in the formula."""
        return frozenset(
            f.name for f in self.subformulas() if isinstance(f, Prop)
        )

    def free_variables(self) -> FrozenSet[str]:
        """The names of fixpoint variables occurring free in the formula."""
        return frozenset(self._free_variables(frozenset()))

    def _free_variables(self, bound: FrozenSet[str]) -> Iterator[str]:
        for child in self.children():
            yield from child._free_variables(bound)

    def agents(self) -> FrozenSet[Agent]:
        """Every agent mentioned by a knowledge operator in the formula."""
        found = set()
        for f in self.subformulas():
            if isinstance(f, Knows):
                found.add(f.agent)
            elif isinstance(f, KnowsAt):
                found.add(f.agent)
            elif isinstance(f, _GroupModal):
                found.update(f.group.members)
        return frozenset(found)

    def depth(self) -> int:
        """The height of the formula's syntax tree (atoms have depth 0)."""
        kids = self.children()
        if not kids:
            return 0
        return 1 + max(child.depth() for child in kids)

    def size(self) -> int:
        """The number of nodes in the formula's syntax tree."""
        return 1 + sum(child.size() for child in self.children())

    # -- equality / hashing ---------------------------------------------------
    def _key(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[union-attr]

    # -- pickling -------------------------------------------------------------
    # Formulas are slotted and freeze themselves with a raising __setattr__, so
    # the default unpickling path (setattr per slot) would die with "formulas
    # are immutable".  Snapshot the slots explicitly and restore them through
    # object.__setattr__; validation is safely skipped because a pickled
    # formula already satisfied its constructor's invariants.  This is what
    # lets formula batches cross the parallel-sweep process-pool boundary.
    def __getstate__(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                state[name] = getattr(self, name)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:
        raise NotImplementedError

    def __bool__(self) -> bool:
        raise FormulaError(
            "formulas have no truth value by themselves; evaluate them with a model "
            "checker (did you mean to use `&`/`|` instead of `and`/`or`?)"
        )


def _check_formula(value: Any) -> Formula:
    if not isinstance(value, Formula):
        raise FormulaError(f"expected a Formula, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


class TrueFormula(Formula):
    """The constant ``true``."""

    __slots__ = ()

    def children(self) -> Tuple[Formula, ...]:
        return ()

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        return self

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def __repr__(self) -> str:
        return "true"


class FalseFormula(Formula):
    """The constant ``false``."""

    __slots__ = ()

    def children(self) -> Tuple[Formula, ...]:
        return ()

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        return self

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def __repr__(self) -> str:
        return "false"


TRUE = TrueFormula()
FALSE = FalseFormula()


class Prop(Formula):
    """A primitive proposition (a "ground fact" in the paper's terminology)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise FormulaError("proposition names must be non-empty strings")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return ()

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        return self

    def _key(self) -> Tuple[Any, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class Var(Formula):
    """A fixpoint variable, bound by :class:`GreatestFixpoint` or :class:`LeastFixpoint`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise FormulaError("variable names must be non-empty strings")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return ()

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        return self

    def _free_variables(self, bound: FrozenSet[str]) -> Iterator[str]:
        if self.name not in bound:
            yield self.name

    def _key(self) -> Tuple[Any, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


class Not(Formula):
    """Negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", _check_formula(operand))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return Not(operand)

    def _key(self) -> Tuple[Any, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"~{_wrap(self.operand)}"


class _Nary(Formula):
    """Shared behaviour of :class:`And` and :class:`Or` (n-ary, order preserving)."""

    __slots__ = ("operands",)
    _symbol = "?"

    def __init__(self, operands: Iterable[Formula]):
        ops = tuple(_check_formula(op) for op in operands)
        if len(ops) < 1:
            raise FormulaError(f"{type(self).__name__} needs at least one operand")
        object.__setattr__(self, "operands", ops)

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        return type(self)(children)

    def _key(self) -> Tuple[Any, ...]:
        return (self.operands,)

    def __repr__(self) -> str:
        joined = f" {self._symbol} ".join(_wrap(op) for op in self.operands)
        return f"({joined})"


class And(_Nary):
    """Conjunction of one or more formulas."""

    __slots__ = ()
    _symbol = "&"


class Or(_Nary):
    """Disjunction of one or more formulas."""

    __slots__ = ()
    _symbol = "|"


class Implies(Formula):
    """Material implication ``antecedent -> consequent``."""

    __slots__ = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        object.__setattr__(self, "antecedent", _check_formula(antecedent))
        object.__setattr__(self, "consequent", _check_formula(consequent))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.antecedent, self.consequent)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        antecedent, consequent = children
        return Implies(antecedent, consequent)

    def _key(self) -> Tuple[Any, ...]:
        return (self.antecedent, self.consequent)

    def __repr__(self) -> str:
        return f"({_wrap(self.antecedent)} -> {_wrap(self.consequent)})"


class Iff(Formula):
    """Biconditional ``left <-> right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", _check_formula(left))
        object.__setattr__(self, "right", _check_formula(right))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        left, right = children
        return Iff(left, right)

    def _key(self) -> Tuple[Any, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({_wrap(self.left)} <-> {_wrap(self.right)})"


# ---------------------------------------------------------------------------
# Knowledge operators
# ---------------------------------------------------------------------------


class Knows(Formula):
    """``K_i phi`` — agent *i* knows ``phi``."""

    __slots__ = ("agent", "operand")

    def __init__(self, agent: Agent, operand: Formula):
        object.__setattr__(self, "agent", as_agent(agent))
        object.__setattr__(self, "operand", _check_formula(operand))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return Knows(self.agent, operand)

    def _key(self) -> Tuple[Any, ...]:
        return (self.agent, self.operand)

    def __repr__(self) -> str:
        return f"K_{self.agent}[{self.operand!r}]"


class _GroupModal(Formula):
    """Shared behaviour of the group-knowledge operators."""

    __slots__ = ("group", "operand")
    _name = "?"

    def __init__(self, group: GroupLike, operand: Formula):
        object.__setattr__(self, "group", as_group(group))
        object.__setattr__(self, "operand", _check_formula(operand))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return type(self)(self.group, operand)

    def _key(self) -> Tuple[Any, ...]:
        return (self.group, self.operand)

    def __repr__(self) -> str:
        return f"{self._name}_{self.group!r}[{self.operand!r}]"


class Someone(_GroupModal):
    """``S_G phi`` — someone in *G* knows ``phi`` (disjunction of K_i)."""

    __slots__ = ()
    _name = "S"


class Everyone(_GroupModal):
    """``E_G phi`` — everyone in *G* knows ``phi`` (conjunction of K_i)."""

    __slots__ = ()
    _name = "E"


class Distributed(_GroupModal):
    """``D_G phi`` — ``phi`` is distributed knowledge in *G*."""

    __slots__ = ()
    _name = "D"


class Common(_GroupModal):
    """``C_G phi`` — ``phi`` is common knowledge in *G*.

    Semantically this is the greatest fixed point of ``X == E_G(phi & X)``
    (equivalently, on finite models, the infinite conjunction of ``E^k_G phi``).
    """

    __slots__ = ()
    _name = "C"


class EveryoneEps(_GroupModal):
    """``E^eps_G phi`` — within an ``eps`` interval containing now, each member of *G*
    knows ``phi`` at some time in that interval (Section 11)."""

    __slots__ = ("eps",)
    _name = "Eeps"

    def __init__(self, group: GroupLike, operand: Formula, eps: float):
        super().__init__(group, operand)
        if eps < 0:
            raise FormulaError("eps must be non-negative")
        object.__setattr__(self, "eps", eps)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return EveryoneEps(self.group, operand, self.eps)

    def _key(self) -> Tuple[Any, ...]:
        return (self.group, self.operand, self.eps)

    def __repr__(self) -> str:
        return f"E^{self.eps}_{self.group!r}[{self.operand!r}]"


class CommonEps(_GroupModal):
    """``C^eps_G phi`` — eps-common knowledge: greatest fixed point of
    ``X == E^eps_G(phi & X)`` (Section 11)."""

    __slots__ = ("eps",)
    _name = "Ceps"

    def __init__(self, group: GroupLike, operand: Formula, eps: float):
        super().__init__(group, operand)
        if eps < 0:
            raise FormulaError("eps must be non-negative")
        object.__setattr__(self, "eps", eps)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return CommonEps(self.group, operand, self.eps)

    def _key(self) -> Tuple[Any, ...]:
        return (self.group, self.operand, self.eps)

    def __repr__(self) -> str:
        return f"C^{self.eps}_{self.group!r}[{self.operand!r}]"


class EveryoneDiamond(_GroupModal):
    """``E^<>_G phi`` — every member of *G* knows ``phi`` at some time in the run
    (Section 11: "everyone will eventually have known phi")."""

    __slots__ = ()
    _name = "E<>"


class CommonDiamond(_GroupModal):
    """``C^<>_G phi`` — eventual common knowledge: greatest fixed point of
    ``X == E^<>_G(phi & X)`` (Section 11)."""

    __slots__ = ()
    _name = "C<>"


class KnowsAt(Formula):
    """``K^T_i phi`` — at time ``T`` on its clock, agent *i* knows ``phi`` (Section 12)."""

    __slots__ = ("agent", "operand", "timestamp")

    def __init__(self, agent: Agent, operand: Formula, timestamp: float):
        object.__setattr__(self, "agent", as_agent(agent))
        object.__setattr__(self, "operand", _check_formula(operand))
        object.__setattr__(self, "timestamp", timestamp)

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return KnowsAt(self.agent, operand, self.timestamp)

    def _key(self) -> Tuple[Any, ...]:
        return (self.agent, self.operand, self.timestamp)

    def __repr__(self) -> str:
        return f"K^{self.timestamp}_{self.agent}[{self.operand!r}]"


class EveryoneAt(_GroupModal):
    """``E^T_G phi`` — each member of *G* knows ``phi`` at time ``T`` on its own clock
    (Section 12)."""

    __slots__ = ("timestamp",)
    _name = "ET"

    def __init__(self, group: GroupLike, operand: Formula, timestamp: float):
        super().__init__(group, operand)
        object.__setattr__(self, "timestamp", timestamp)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return EveryoneAt(self.group, operand, self.timestamp)

    def _key(self) -> Tuple[Any, ...]:
        return (self.group, self.operand, self.timestamp)

    def __repr__(self) -> str:
        return f"E^{self.timestamp}_{self.group!r}[{self.operand!r}]"


class CommonAt(_GroupModal):
    """``C^T_G phi`` — timestamped common knowledge: greatest fixed point of
    ``X == E^T_G(phi & X)`` (Section 12)."""

    __slots__ = ("timestamp",)
    _name = "CT"

    def __init__(self, group: GroupLike, operand: Formula, timestamp: float):
        super().__init__(group, operand)
        object.__setattr__(self, "timestamp", timestamp)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return CommonAt(self.group, operand, self.timestamp)

    def _key(self) -> Tuple[Any, ...]:
        return (self.group, self.operand, self.timestamp)

    def __repr__(self) -> str:
        return f"C^{self.timestamp}_{self.group!r}[{self.operand!r}]"


# ---------------------------------------------------------------------------
# Temporal operators (future fragment, over points of a run)
# ---------------------------------------------------------------------------


class Eventually(Formula):
    """``<> phi`` — ``phi`` holds at the current point or at some later point of the
    same run (footnote 7 of the paper)."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", _check_formula(operand))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return Eventually(operand)

    def _key(self) -> Tuple[Any, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"<>[{self.operand!r}]"


class Always(Formula):
    """``[] phi`` — ``phi`` holds at the current point and at every later point of the
    same run."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        object.__setattr__(self, "operand", _check_formula(operand))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (operand,) = children
        return Always(operand)

    def _key(self) -> Tuple[Any, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"[][{self.operand!r}]"


# ---------------------------------------------------------------------------
# Fixpoint operators (Appendix A)
# ---------------------------------------------------------------------------


class _Fixpoint(Formula):
    """Shared behaviour of the fixpoint binders ``nu X. phi`` and ``mu X. phi``.

    Following Appendix A, every free occurrence of the bound variable in the body must
    be *positive* (under an even number of negations) so that the associated set
    function is monotone increasing and the fixed point exists.
    """

    __slots__ = ("variable", "body")
    _name = "?"

    def __init__(self, variable: str, body: Formula):
        if not isinstance(variable, str) or not variable:
            raise FormulaError("fixpoint variable names must be non-empty strings")
        body = _check_formula(body)
        if not _occurrences_positive(body, variable, positive=True):
            raise PositivityError(
                f"all free occurrences of {variable!r} in the body of a fixpoint "
                "formula must be positive (under an even number of negations)",
                variable=variable,
            )
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "body", body)

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("formulas are immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.body,)

    def with_children(self, children: Tuple[Formula, ...]) -> Formula:
        (body,) = children
        return type(self)(self.variable, body)

    def _free_variables(self, bound: FrozenSet[str]) -> Iterator[str]:
        yield from self.body._free_variables(bound | {self.variable})

    def _key(self) -> Tuple[Any, ...]:
        return (self.variable, self.body)

    def __repr__(self) -> str:
        return f"{self._name} {self.variable}.[{self.body!r}]"


class GreatestFixpoint(_Fixpoint):
    """``nu X. phi`` — the greatest fixed point of ``phi`` with respect to ``X``."""

    __slots__ = ()
    _name = "nu"


class LeastFixpoint(_Fixpoint):
    """``mu X. phi`` — the least fixed point of ``phi`` with respect to ``X``."""

    __slots__ = ()
    _name = "mu"


def _occurrences_positive(formula: Formula, variable: str, positive: bool) -> bool:
    """Check that every free occurrence of ``variable`` appears under an even number
    of negations when ``positive`` is True."""
    if isinstance(formula, Var):
        return positive if formula.name == variable else True
    if isinstance(formula, Not):
        return _occurrences_positive(formula.operand, variable, not positive)
    if isinstance(formula, Implies):
        return _occurrences_positive(
            formula.antecedent, variable, not positive
        ) and _occurrences_positive(formula.consequent, variable, positive)
    if isinstance(formula, Iff):
        # The variable occurs both positively and negatively in an <->; only allow it
        # when the variable does not occur at all.
        return variable not in formula.free_variables()
    if isinstance(formula, _Fixpoint) and formula.variable == variable:
        return True  # re-bound, occurrences inside are not free
    return all(
        _occurrences_positive(child, variable, positive) for child in formula.children()
    )


# ---------------------------------------------------------------------------
# Convenience constructors (the names used throughout the paper)
# ---------------------------------------------------------------------------


def K(agent: Agent, formula: Formula) -> Formula:
    """``K_i phi``: agent ``agent`` knows ``formula``."""
    return Knows(agent, formula)


def S(group: GroupLike, formula: Formula) -> Formula:
    """``S_G phi``: someone in ``group`` knows ``formula``."""
    return Someone(group, formula)


def E(group: GroupLike, formula: Formula, k: int = 1) -> Formula:
    """``E^k_G phi``: everyone in ``group`` knows ... (nested ``k`` times).

    ``E(G, phi)`` is plain "everyone knows"; ``E(G, phi, k)`` builds the k-fold
    nesting ``E_G E_G ... E_G phi`` used in Section 3 and in the muddy-children
    analysis.
    """
    if k < 1:
        raise FormulaError("E^k requires k >= 1")
    result = formula
    for _ in range(k):
        result = Everyone(group, result)
    return result


def D(group: GroupLike, formula: Formula) -> Formula:
    """``D_G phi``: ``formula`` is distributed knowledge in ``group``."""
    return Distributed(group, formula)


def C(group: GroupLike, formula: Formula) -> Formula:
    """``C_G phi``: ``formula`` is common knowledge in ``group``."""
    return Common(group, formula)


def EEps(group: GroupLike, formula: Formula, eps: float) -> Formula:
    """``E^eps_G phi`` (Section 11)."""
    return EveryoneEps(group, formula, eps)


def CEps(group: GroupLike, formula: Formula, eps: float) -> Formula:
    """``C^eps_G phi``: eps-common knowledge (Section 11)."""
    return CommonEps(group, formula, eps)


def EDiamond(group: GroupLike, formula: Formula) -> Formula:
    """``E^<>_G phi`` (Section 11)."""
    return EveryoneDiamond(group, formula)


def CDiamond(group: GroupLike, formula: Formula) -> Formula:
    """``C^<>_G phi``: eventual common knowledge (Section 11)."""
    return CommonDiamond(group, formula)


def KT(agent: Agent, formula: Formula, timestamp: float) -> Formula:
    """``K^T_i phi``: at time ``timestamp`` on its clock, ``agent`` knows ``formula``."""
    return KnowsAt(agent, formula, timestamp)


def ET(group: GroupLike, formula: Formula, timestamp: float) -> Formula:
    """``E^T_G phi`` (Section 12)."""
    return EveryoneAt(group, formula, timestamp)


def CT(group: GroupLike, formula: Formula, timestamp: float) -> Formula:
    """``C^T_G phi``: timestamped common knowledge (Section 12)."""
    return CommonAt(group, formula, timestamp)


def Nu(variable: str, body: Formula) -> Formula:
    """``nu X. phi``: greatest fixed point (Appendix A)."""
    return GreatestFixpoint(variable, body)


def Mu(variable: str, body: Formula) -> Formula:
    """``mu X. phi``: least fixed point (Appendix A)."""
    return LeastFixpoint(variable, body)


def prop(name: str) -> Prop:
    """Build a primitive proposition."""
    return Prop(name)


def props(*names: str) -> Tuple[Prop, ...]:
    """Build several primitive propositions at once.

    >>> p, q = props("p", "q")
    """
    return tuple(Prop(name) for name in names)


def conjunction(formulas: Iterable[Formula]) -> Formula:
    """The conjunction of ``formulas`` (``true`` if the iterable is empty)."""
    items = tuple(formulas)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disjunction(formulas: Iterable[Formula]) -> Formula:
    """The disjunction of ``formulas`` (``false`` if the iterable is empty)."""
    items = tuple(formulas)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


def _wrap(formula: Formula) -> str:
    text = repr(formula)
    return text
