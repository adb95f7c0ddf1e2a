"""Unit tests for Kripke structures, the model checker, announcements, bisimulation."""

import pytest

from repro.errors import EvaluationError, ModelError, UnknownAgentError, UnknownWorldError
from repro.kripke.announcement import (
    announce_sequence,
    private_announce,
    public_announce,
    simultaneous_answers,
)
from repro.kripke.bisimulation import are_bisimilar, bisimulation_classes, minimize
from repro.kripke.builders import (
    blind_model,
    from_worlds,
    muddy_children_worlds,
    observed_variable_model,
    others_attribute_model,
    shared_memory_model,
)
from repro.kripke.checker import ModelChecker
from repro.kripke.structure import KripkeStructure
from repro.logic.syntax import (
    C,
    CDiamond,
    CEps,
    D,
    E,
    Eventually,
    K,
    Not,
    Nu,
    S,
    Var,
    prop,
)

CHILDREN = ("a", "b", "c")
M = prop("at_least_one")


@pytest.fixture(scope="module")
def model():
    return others_attribute_model(CHILDREN)


@pytest.fixture
def checker(model, engine_backend):
    # Function-scoped (unlike `model`): a checker captures the engine backend at
    # construction, and a module-scoped one would be built before the autouse
    # engine_backend fixture sets the --engine-backend default.
    return ModelChecker(model)


class TestStructure:
    def test_worlds_and_propositions(self, model):
        assert len(model.worlds) == 8
        assert "muddy_a" in model.propositions()

    def test_unmentioned_worlds_become_singletons(self):
        structure = KripkeStructure(
            worlds={"w0", "w1", "w2"},
            agents={"a"},
            valuation={"w1": {"p"}},
            partitions={"a": [{"w0", "w1"}]},
        )
        assert structure.equivalence_class("a", "w2") == frozenset({"w2"})

    def test_overlapping_partition_is_rejected(self):
        with pytest.raises(ModelError):
            KripkeStructure(
                worlds={"w0", "w1"},
                agents={"a"},
                valuation={},
                partitions={"a": [{"w0", "w1"}, {"w1"}]},
            )

    def test_unknown_world_in_partition_is_rejected(self):
        with pytest.raises(UnknownWorldError):
            KripkeStructure(
                worlds={"w0"},
                agents={"a"},
                valuation={},
                partitions={"a": [{"w0", "missing"}]},
            )

    def test_unknown_agent_queries_raise(self, model):
        with pytest.raises(UnknownAgentError):
            model.equivalence_class("zebra", (True, True, True))

    def test_indistinguishability_ignores_own_forehead(self, model):
        assert model.indistinguishable("a", (True, False, False), (False, False, False))
        assert not model.indistinguishable("b", (True, False, False), (False, False, False))

    def test_joint_class_is_intersection(self, model):
        world = (True, True, False)
        joint = model.joint_class(CHILDREN, world)
        assert joint == frozenset({world})

    def test_reachability_covers_whole_component(self, model):
        reachable = model.reachable(CHILDREN, (False, False, False))
        assert reachable == model.worlds

    def test_reachable_within_grows_one_step_at_a_time(self, model):
        world = (True, True, True)
        step1 = model.reachable_within(CHILDREN, world, 1)
        step2 = model.reachable_within(CHILDREN, world, 2)
        assert len(step1) == 4
        assert step1 < step2

    def test_restrict_drops_worlds(self, model):
        restricted = model.restrict({w for w in model.worlds if any(w)})
        assert len(restricted.worlds) == 7

    def test_restrict_to_empty_is_rejected(self, model):
        with pytest.raises(ModelError):
            model.restrict(set())


class TestBuilders:
    def test_muddy_children_worlds_count(self):
        assert len(muddy_children_worlds(4)) == 16

    def test_observed_variable_model(self):
        model = observed_variable_model(
            ["a", "b"],
            variables={"x": [0, 1], "y": [0, 1]},
            observes={"a": {"x"}, "b": {"y"}},
        )
        checker = ModelChecker(model)
        x_is_1 = prop("x=1")
        worlds_with_x1 = [w for w in model.worlds if ("x", 1) in w]
        assert all(checker.holds(K("a", x_is_1), w) for w in worlds_with_x1)
        assert not any(checker.holds(K("b", x_is_1), w) for w in worlds_with_x1)

    def test_shared_memory_model_collapses_hierarchy(self):
        worlds = ["w0", "w1"]
        model = shared_memory_model(
            ["a", "b"], worlds, lambda w: {"p"} if w == "w1" else set()
        )
        checker = ModelChecker(model)
        p = prop("p")
        assert checker.extension(C(["a", "b"], p)) == checker.extension(D(["a", "b"], p))

    def test_blind_model_makes_valid_facts_common_knowledge(self):
        worlds = ["w0", "w1"]
        model = blind_model(["a", "b"], worlds, lambda w: {"p"})
        checker = ModelChecker(model)
        assert checker.is_valid(C(["a", "b"], prop("p")))

    def test_docstring_examples_run(self):
        """Every ``repro`` module with docstring examples runs them cleanly."""
        import doctest
        import importlib

        for name in (
            "repro.kripke.builders",
            "repro.kripke.checker",
            "repro.kripke.structure",
            "repro.logic.agents",
            "repro.logic.parser",
            "repro.logic.pretty",
            "repro.logic.syntax",
            "repro.logic.transform",
            "repro.scenarios.muddy_children",
            "repro.systems.runs",
        ):
            module = importlib.import_module(name)
            failed, _ = doctest.testmod(module)
            assert not failed, name


class TestChecker:
    def test_muddy_children_everyone_levels(self, checker):
        world = (True, True, False)  # two muddy children
        assert checker.holds(E(CHILDREN, M), world)
        assert not checker.holds(E(CHILDREN, M, 2), world)

    def test_three_muddy_children_levels(self, checker):
        world = (True, True, True)
        assert checker.holds(E(CHILDREN, M, 2), world)
        assert not checker.holds(E(CHILDREN, M, 3), world)

    def test_someone_versus_everyone(self, checker):
        world = (True, False, False)  # only a muddy: b and c see it, a does not
        assert checker.holds(S(CHILDREN, M), world)
        assert not checker.holds(E(CHILDREN, M), world)

    def test_distributed_knowledge_of_exact_world(self, checker):
        world = (True, False, True)
        exact = prop("muddy_a") & Not(prop("muddy_b")) & prop("muddy_c")
        assert checker.holds(D(CHILDREN, exact), world)
        assert not checker.holds(S(CHILDREN, exact), world)

    def test_common_knowledge_fails_before_announcement(self, checker):
        assert checker.extension(C(CHILDREN, M)) == frozenset()

    def test_reachability_and_fixpoint_strategies_agree(self, model):
        # Section 6's G-reachability (C_G) and Appendix A's greatest fixed
        # point written as a formula, nu X. E_G(phi & X), before and after the
        # father's announcement.
        announced = public_announce(model, M)
        for structure in (model, announced):
            checker = ModelChecker(structure)
            for phi in (M, prop("muddy_a")):
                fixpoint = Nu("X", E(CHILDREN, phi & Var("X")))
                assert checker.extension(fixpoint) == checker.extension(C(CHILDREN, phi))
        assert ModelChecker(announced).extension(C(CHILDREN, M)) == announced.worlds

    def test_explicit_fixpoint_formula_matches_common(self, model):
        checker = ModelChecker(model)
        explicit = Nu("X", E(CHILDREN, M) & E(CHILDREN, Var("X")))
        # nu X. (E m & E X) == C m on finite S5 models.
        assert checker.extension(explicit) == checker.extension(C(CHILDREN, M))

    def test_knowledge_axiom_holds(self, checker):
        assert checker.is_valid(K("a", M) >> M)

    def test_unknown_agent_raises(self, checker):
        with pytest.raises(UnknownAgentError):
            checker.extension(K("zebra", M))

    def test_temporal_operators_rejected_on_kripke_models(self, checker):
        with pytest.raises(EvaluationError):
            checker.extension(CEps(CHILDREN, M, 1))
        with pytest.raises(EvaluationError):
            checker.extension(CDiamond(CHILDREN, M))
        with pytest.raises(EvaluationError):
            checker.extension(Eventually(M))

    def test_free_variable_is_an_error(self, checker):
        with pytest.raises(EvaluationError):
            checker.extension(Var("X"))

    def test_environment_binds_variables(self, checker, model):
        some_worlds = frozenset([(True, True, True)])
        assert checker.extension(Var("X"), {"X": some_worlds}) == some_worlds


class TestAnnouncements:
    def test_public_announcement_gives_common_knowledge(self, model):
        announced = public_announce(model, M)
        checker = ModelChecker(announced)
        assert checker.is_valid(C(CHILDREN, M))

    def test_cannot_announce_a_contradiction(self, model):
        with pytest.raises(ModelError):
            public_announce(model, prop("muddy_a") & Not(prop("muddy_a")))

    def test_private_announcement_does_not_give_common_knowledge(self, model):
        told = model
        world = (True, True, False)
        for child in CHILDREN:
            told = private_announce(told, child, M)
            world = (world, "told")  # the actual world after each private telling
        checker = ModelChecker(told)
        assert checker.holds(E(CHILDREN, M), world)
        assert not checker.holds(C(CHILDREN, M), world)

    def test_private_announcement_informs_only_the_addressee(self, model):
        told = private_announce(model, "a", prop("muddy_a"))
        checker = ModelChecker(told)
        world = ((True, False, False), "told")
        assert checker.holds(K("a", prop("muddy_a")), world)
        assert not checker.holds(K("b", K("a", prop("muddy_a"))), world)
        # The other children do not even know that the telling happened, so their own
        # knowledge is unchanged.
        assert not checker.holds(K("b", prop("muddy_b")), world)

    def test_announce_sequence_returns_intermediate_models(self, model):
        models = announce_sequence(model, [M, prop("muddy_a")])
        assert len(models) == 2
        assert len(models[0].worlds) == 7
        assert len(models[1].worlds) == 4

    def test_simultaneous_answers_refines_all_agents(self, model):
        updated = simultaneous_answers(
            model, [(child, prop(f"muddy_{child}")) for child in CHILDREN]
        )
        # No worlds are removed, but partitions are refined.
        assert updated.worlds == model.worlds
        world = (True, False, False)
        before = model.equivalence_class("a", world)
        after = updated.equivalence_class("a", world)
        assert after <= before


class TestBisimulation:
    def test_bisimilar_worlds_share_valuation(self, model):
        for block in bisimulation_classes(model):
            facts = {model.facts_at(w) for w in block}
            assert len(facts) == 1

    def test_muddy_model_is_already_minimal(self, model):
        assert len(minimize(model)) == len(model.worlds)

    def test_duplicated_worlds_are_merged(self):
        model = from_worlds(
            worlds=["w0", "w0_copy", "w1"],
            agents=["a"],
            valuation=lambda w: {"p"} if w == "w1" else set(),
            observation=lambda agent, w: w == "w1",
        )
        assert are_bisimilar(model, "w0", "w0_copy")
        reduced = minimize(model)
        assert len(reduced) == 2

    def test_minimization_preserves_formula_extensions(self):
        model = from_worlds(
            worlds=["w0", "w0_copy", "w1"],
            agents=["a", "b"],
            valuation=lambda w: {"p"} if w == "w1" else set(),
            observation=lambda agent, w: (agent, w == "w1"),
        )
        reduced = minimize(model)
        checker = ModelChecker(model)
        reduced_checker = ModelChecker(reduced)
        formula = C(["a", "b"], prop("p"))
        assert checker.is_valid(formula) == reduced_checker.is_valid(formula)
