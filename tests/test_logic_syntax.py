"""Unit tests for the formula AST (repro.logic.syntax)."""

import pytest

from repro.errors import FormulaError
from repro.logic.agents import Group, as_group
from repro.logic.syntax import (
    FALSE,
    TRUE,
    And,
    C,
    CDiamond,
    CEps,
    CT,
    Common,
    D,
    E,
    EDiamond,
    EEps,
    ET,
    Everyone,
    Implies,
    K,
    KT,
    Knows,
    Mu,
    Not,
    Nu,
    Or,
    Prop,
    S,
    Var,
    conjunction,
    disjunction,
    prop,
    props,
)


class TestGroups:
    def test_group_is_order_insensitive(self):
        assert Group(["a", "b"]) == Group(["b", "a"])

    def test_group_rejects_empty(self):
        with pytest.raises(FormulaError):
            Group([])

    def test_as_group_treats_string_as_single_agent(self):
        assert as_group("alice").members == frozenset({"alice"})

    def test_as_group_accepts_iterables(self):
        assert as_group(["a", "b"]).members == frozenset({"a", "b"})

    def test_group_set_operations(self):
        g = Group(["a", "b"])
        assert g.union(["c"]).members == frozenset({"a", "b", "c"})
        assert g.without("a").members == frozenset({"b"})
        assert g.issubset(["a", "b", "c"])


class TestConstruction:
    def test_structural_equality(self):
        p = prop("p")
        assert K("a", p) == K("a", p)
        assert K("a", p) != K("b", p)
        assert C(["a", "b"], p) == C(["b", "a"], p)

    def test_formulas_are_hashable(self):
        p, q = props("p", "q")
        formulas = {K("a", p), K("a", p), K("a", q)}
        assert len(formulas) == 2

    def test_operator_overloads(self):
        p, q = props("p", "q")
        assert isinstance(~p, Not)
        assert isinstance(p & q, And)
        assert isinstance(p | q, Or)
        assert isinstance(p >> q, Implies)

    def test_e_power_builds_nested_everyone(self):
        p = prop("p")
        nested = E(["a", "b"], p, 3)
        assert isinstance(nested, Everyone)
        assert isinstance(nested.operand, Everyone)
        assert isinstance(nested.operand.operand, Everyone)
        assert nested.operand.operand.operand == p

    def test_e_power_rejects_zero(self):
        with pytest.raises(FormulaError):
            E(["a"], prop("p"), 0)

    def test_prop_requires_nonempty_name(self):
        with pytest.raises(FormulaError):
            Prop("")

    def test_bool_conversion_is_an_error(self):
        with pytest.raises(FormulaError):
            bool(prop("p"))

    def test_formulas_are_immutable(self):
        p = prop("p")
        with pytest.raises(AttributeError):
            p.name = "q"

    def test_conjunction_and_disjunction_of_empty(self):
        assert conjunction([]) == TRUE
        assert disjunction([]) == FALSE

    def test_conjunction_of_single_formula_is_identity(self):
        p = prop("p")
        assert conjunction([p]) == p
        assert disjunction([p]) == p


class TestStructure:
    def test_atoms(self):
        p, q = props("p", "q")
        formula = K("a", p) & C(["a", "b"], q)
        assert formula.atoms() == frozenset({"p", "q"})

    def test_agents(self):
        p = prop("p")
        formula = K("a", p) & D(["b", "c"], p) & KT("d", p, 3.0)
        assert formula.agents() == frozenset({"a", "b", "c", "d"})

    def test_size_and_depth(self):
        p = prop("p")
        formula = K("a", K("b", p))
        assert formula.size() == 3
        assert formula.depth() == 2
        assert p.depth() == 0

    def test_free_variables(self):
        p = prop("p")
        open_formula = Var("X") & p
        assert open_formula.free_variables() == frozenset({"X"})
        closed = Nu("X", Everyone(["a"], p & Var("X")))
        assert closed.free_variables() == frozenset()


class TestFixpointSyntax:
    def test_negative_occurrence_is_rejected(self):
        p = prop("p")
        with pytest.raises(FormulaError):
            Nu("X", ~Var("X"))

    def test_positive_occurrence_under_double_negation_is_accepted(self):
        formula = Nu("X", ~~Var("X"))
        assert formula.variable == "X"

    def test_occurrence_in_antecedent_is_negative(self):
        p = prop("p")
        with pytest.raises(FormulaError):
            Mu("X", Var("X") >> p)

    def test_rebinding_shadows_outer_variable(self):
        inner = Nu("X", Var("X"))
        outer = Nu("X", Everyone(["a"], inner))
        assert outer.free_variables() == frozenset()


class TestTemporalOperators:
    def test_eps_operators_record_eps(self):
        p = prop("p")
        assert CEps(["a", "b"], p, 2).eps == 2
        assert EEps(["a", "b"], p, 0).eps == 0
        with pytest.raises(FormulaError):
            CEps(["a"], p, -1)

    def test_timestamped_operators_record_timestamp(self):
        p = prop("p")
        assert CT(["a", "b"], p, 5.0).timestamp == 5.0
        assert ET(["a"], p, 1.5).timestamp == 1.5
        assert KT("a", p, 2.0).timestamp == 2.0

    def test_diamond_operators_have_groups(self):
        p = prop("p")
        assert CDiamond(["a", "b"], p).group == as_group(["a", "b"])
        assert EDiamond(["a"], p).group == as_group("a")

    def test_distinct_eps_values_distinct_formulas(self):
        p = prop("p")
        assert CEps(["a"], p, 1) != CEps(["a"], p, 2)


class TestRepr:
    def test_repr_round_trips_basic_shapes(self):
        p = prop("p")
        assert "K_a" in repr(K("a", p))
        assert "C_" in repr(C(["a", "b"], p))
        assert "nu" in repr(Nu("X", Var("X")))
