"""E11 + ablations — S5/C1/C2 axiom checking, common knowledge as Section 6's
reachability (``C_G M``) vs. Appendix A's greatest fixed point written as a formula
(``nu X. E_G(M & X)``), bisimulation minimisation, and view comparison (DESIGN.md §5).

Also the engine-backend comparison: the same common-knowledge queries on the
``frozenset`` reference backend vs. the ``bitset`` backend (see ``repro.engine``),
including the 256-world fixpoint query that headlines the bitset speedup."""

import pytest

from repro.kripke.bisimulation import minimize
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.logic.axioms import check_common_knowledge_axioms, check_s5
from repro.logic.syntax import C, D, E, K, Nu, Var, prop
from repro.scenarios.coordinated_attack import build_handshake_system
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.views import CompleteHistoryView, RecentEventsView, TrivialView

M = prop("at_least_one")
CHILDREN = ("a", "b", "c", "d")


def common_knowledge(form, group, phi):
    """``C_G phi`` (``"reachability"``) or ``nu X. E_G(phi & X)`` (``"fixpoint"``)."""
    if form == "reachability":
        return C(group, phi)
    return Nu("X", E(group, phi & Var("X")))


def test_s5_axioms_for_knowledge_and_common_knowledge(benchmark):
    checker = ModelChecker(others_attribute_model(CHILDREN))
    formulas = [M, prop("muddy_a"), K("a", M), E(CHILDREN, M)]

    def check():
        k_report = check_s5(checker, lambda phi: K("a", phi), formulas, "K_a")
        d_report = check_s5(checker, lambda phi: D(CHILDREN, phi), formulas, "D")
        c_report = check_s5(checker, lambda phi: C(CHILDREN, phi), formulas, "C")
        fp_report = check_common_knowledge_axioms(checker, CHILDREN, formulas[:2])
        return all(r.satisfied for r in (k_report, d_report, c_report, fp_report))

    assert benchmark(check)


@pytest.mark.parametrize("backend", ["frozenset", "bitset"])
@pytest.mark.parametrize("form", ["reachability", "fixpoint"])
def test_common_knowledge_evaluation_strategies(benchmark, form, backend):
    """Ablation: reachability (``C_G M``) vs. fixpoint (``nu X. E_G(M & X)``,
    App. A) evaluation of common knowledge, per backend."""
    model = others_attribute_model(tuple(f"c{i}" for i in range(6)))
    formula = common_knowledge(form, tuple(f"c{i}" for i in range(6)), M)

    def evaluate():
        checker = ModelChecker(model, backend=backend)
        return checker.extension(formula)

    extension = benchmark(evaluate)
    assert extension == frozenset()


@pytest.mark.parametrize("backend", ["frozenset", "bitset"])
@pytest.mark.parametrize("form", ["reachability", "fixpoint"])
def test_common_knowledge_fixpoint_large_structure(benchmark, form, backend):
    """Backend comparison on the headline query: common knowledge on a
    256-world muddy-children structure, as ``C_G M`` and as the
    greatest-fixpoint iteration ``nu X. E_G(M & X)`` of Appendix A.

    The acceptance bar for the bitset engine is >= 3x over the frozenset
    reference on the fixpoint query; CHANGES.md records the measured ratio."""
    agents = tuple(f"c{i}" for i in range(8))  # 2^8 = 256 worlds
    model = others_attribute_model(agents)
    formula = common_knowledge(form, agents, M)
    checker = ModelChecker(model, backend=backend)

    def evaluate():
        checker.clear_cache()
        return checker.extension(formula)

    extension = benchmark(evaluate)
    assert extension == frozenset()


def test_bisimulation_minimisation(benchmark):
    """Ablation: the muddy-children model is already bisimulation-minimal."""
    model = others_attribute_model(CHILDREN)
    reduced = benchmark(minimize, model)
    assert len(reduced) == len(model)


@pytest.mark.parametrize(
    "view",
    [CompleteHistoryView(), RecentEventsView(window=1), TrivialView()],
    ids=["complete-history", "recent-events", "trivial"],
)
def test_view_comparison(benchmark, view):
    """Ablation: coarser views ascribe no more knowledge than the complete history."""
    system = build_handshake_system(depth=2, horizon=5)
    fine = ViewBasedInterpretation(system, view=CompleteHistoryView())
    fact = prop("intend_attack")
    fine_extension = fine.extension(K("B", fact))

    def evaluate():
        interp = ViewBasedInterpretation(system, view=view)
        return interp.extension(K("B", fact))

    coarse_extension = benchmark(evaluate)
    assert coarse_extension <= fine_extension
