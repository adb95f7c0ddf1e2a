"""Tests for the static formula checker, its CLI verb and the pre-flight wiring.

Covers the diagnostic framework (stable ``REP`` codes, severities, rendering),
the structural and scenario-signature checks of :mod:`repro.logic.check`, the
``repro check`` CLI verb's exit-code contract, the runner/sweep pre-flight
(including the no-worker-spawn pin), the eval-time positivity enforcement, and
a checker-vs-evaluator differential over the seeded random formula corpus.
"""

from __future__ import annotations

import json

import pytest

from _engine_gen import formula_suite, random_structure
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
from repro.cli import main
from repro.errors import (
    CheckError,
    EvaluationError,
    PositivityError,
    UnknownAgentError,
)
from repro.experiments import ExperimentRunner
from repro.experiments.registry import all_scenarios, get_scenario
from repro.experiments.supervise import FaultPolicy
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.logic.check import (
    KIND_KRIPKE,
    ScenarioSignature,
    check_formula,
    check_formulas,
    check_text,
)
from repro.logic.fixpoint import greatest_fixpoint, least_fixpoint
from repro.logic.syntax import (
    CommonEps,
    Eventually,
    Everyone,
    GreatestFixpoint,
    Iff,
    Knows,
    KnowsAt,
    Not,
    Prop,
    Var,
)

P = Prop("p")


def _forged(cls, variable, body):
    """A fixpoint node built without the constructor's positivity check.

    This is exactly what unpickling does, so the evaluator cannot rely on
    construction-time validation alone.
    """
    forged = object.__new__(cls)
    object.__setattr__(forged, "variable", variable)
    object.__setattr__(forged, "body", body)
    return forged


def run_cli(capsys, *argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def codes(diagnostics):
    return [d.code for d in diagnostics]


SIG = ScenarioSignature(agents=("a", "b"), horizon=3, name="sigtest")
KRIPKE_SIG = ScenarioSignature(agents=("a", "b"), kind=KIND_KRIPKE, name="sigtest")


# -- the Diagnostic dataclass and rendering ------------------------------------

def test_diagnostic_round_trips_through_dict():
    diag = Diagnostic(
        code="REP101",
        severity=SEVERITY_ERROR,
        message="unknown agent",
        path="Knows",
        hint="pick another",
        label="f1",
    )
    assert Diagnostic.from_dict(diag.to_dict()) == diag
    assert diag.is_error


def test_diagnostic_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Diagnostic(code="REP101", severity="fatal", message="nope")


def test_render_carries_code_severity_label_and_hint():
    diag = Diagnostic(
        code="REP103",
        severity=SEVERITY_WARNING,
        message="late",
        path="KnowsAt",
        hint="earlier",
        label="f2",
    )
    line = render_diagnostic(diag)
    for fragment in ("REP103", "warning", "f2", "KnowsAt", "late", "earlier"):
        assert fragment in line


def test_render_diagnostics_orders_errors_first():
    warning = Diagnostic(code="REP201", severity=SEVERITY_WARNING, message="w")
    error = Diagnostic(code="REP002", severity=SEVERITY_ERROR, message="e")
    lines = render_diagnostics([warning, error])
    assert lines[0].startswith("REP002")


def test_severity_helpers():
    warning = Diagnostic(code="REP201", severity=SEVERITY_WARNING, message="w")
    error = Diagnostic(code="REP002", severity=SEVERITY_ERROR, message="e")
    assert not has_errors([warning])
    assert has_errors([warning], strict=True)
    assert has_errors([warning, error])
    assert worst_severity([warning, error]) == SEVERITY_ERROR
    assert worst_severity([]) is None
    assert summarize([warning, error]) == "1 error, 1 warning"


def test_every_emitted_code_is_in_the_table():
    for code in ("REP001", "REP002", "REP003", "REP004", "REP101", "REP102",
                 "REP103", "REP104", "REP105", "REP201"):
        assert code in CODE_TABLE


# -- structural checks ---------------------------------------------------------

def test_unbound_var_is_rep002():
    diagnostics = check_formula(Var("X"))
    assert codes(diagnostics) == ["REP002"]
    assert diagnostics[0].is_error
    assert "X" in diagnostics[0].message


def test_forged_nonpositive_fixpoint_is_rep003():
    bad = _forged(GreatestFixpoint, "X", Not(Var("X")))
    diagnostics = check_formula(bad)
    assert "REP003" in codes(diagnostics)


def test_constructor_still_rejects_nonpositive_fixpoint():
    with pytest.raises(PositivityError) as info:
        GreatestFixpoint("X", Not(Var("X")))
    assert info.value.variable == "X"


def test_parse_time_positivity_violation_is_rep003():
    formula, diagnostics = check_text("nu X. !X")
    assert formula is None
    assert codes(diagnostics) == ["REP003"]


def test_parse_error_is_rep001():
    formula, diagnostics = check_text("((")
    assert formula is None
    assert codes(diagnostics) == ["REP001"]


def test_shadowed_fixpoint_variable_is_rep004_warning():
    _formula, diagnostics = check_text("nu X. mu X. X")
    assert codes(diagnostics) == ["REP004"]
    assert not diagnostics[0].is_error


def test_fixpoint_variable_inside_iff_is_rep003():
    bad = _forged(GreatestFixpoint, "X", Iff(Var("X"), P))
    diagnostics = check_formula(bad)
    assert "REP003" in codes(diagnostics)


def test_clean_formula_has_no_diagnostics():
    formula, diagnostics = check_text("nu X. (p & E_{a,b} X)", SIG)
    assert formula is not None
    assert diagnostics == []


def test_deep_fixpoint_nesting_is_rep201_warning():
    _formula, diagnostics = check_text("nu A. mu B. nu C. (A & B & C)")
    assert "REP201" in codes(diagnostics)
    assert all(not d.is_error for d in diagnostics)


def test_double_nesting_warns_only_on_large_universes():
    text = "nu A. mu B. (A & B)"
    small = ScenarioSignature(agents=("a",), universe_size=8)
    large = ScenarioSignature(agents=("a",), universe_size=4096)
    assert "REP201" not in codes(check_text(text, small)[1])
    assert "REP201" in codes(check_text(text, large)[1])


# -- scenario-signature checks -------------------------------------------------

def test_unknown_agent_is_rep101():
    diagnostics = check_formula(Knows("z", P), SIG)
    assert codes(diagnostics) == ["REP101"]
    assert "{a, b}" in diagnostics[0].message


def test_unknown_group_member_is_rep101():
    diagnostics = check_formula(Everyone(("a", "z"), P), SIG)
    assert codes(diagnostics) == ["REP101"]


def test_fully_unknown_group_is_rep102():
    diagnostics = check_formula(Everyone(("x", "y"), P), SIG)
    assert "REP102" in codes(diagnostics)


def test_over_horizon_timestamp_is_rep103_error():
    diagnostics = check_formula(KnowsAt("a", P, 9), SIG)
    assert codes(diagnostics) == ["REP103"]
    assert diagnostics[0].is_error


def test_over_horizon_is_warning_under_custom_clocks():
    skewed = ScenarioSignature(agents=("a", "b"), horizon=3, custom_clocks=True)
    diagnostics = check_formula(KnowsAt("a", P, 9), skewed)
    assert codes(diagnostics) == ["REP103"]
    assert not diagnostics[0].is_error


def test_fractional_eps_is_rep104():
    diagnostics = check_formula(CommonEps(("a", "b"), P, 1.5), SIG)
    assert "REP104" in codes(diagnostics)


def test_temporal_operator_on_kripke_scenario_is_rep105():
    diagnostics = check_formula(Eventually(P), KRIPKE_SIG)
    assert codes(diagnostics) == ["REP105"]


def test_no_signature_skips_signature_checks():
    assert check_formula(Knows("z", P)) == []
    assert check_formula(Eventually(P)) == []


def test_check_formulas_accepts_all_batch_shapes():
    bad = Knows("z", P)
    for batch in ({"f": bad}, [("f", bad)], [bad]):
        assert codes(check_formulas(batch, SIG)) == ["REP101"]


# -- registered scenarios ------------------------------------------------------

def test_every_registered_scenario_suite_checks_clean():
    """The acceptance pin: every registered default suite is diagnostics-free."""
    specs = all_scenarios()
    assert len(specs) >= 12
    for spec in specs:
        signature = spec.signature_for(None)
        assert signature is not None, spec.name
        assert signature.name == spec.name
        diagnostics = check_formulas(spec.default_formulas(None), signature)
        assert diagnostics == [], (spec.name, render_diagnostics(diagnostics))


def test_muddy_children_signature_shape():
    signature = get_scenario("muddy_children").signature_for({"n": 4})
    assert signature.kind == KIND_KRIPKE
    assert signature.universe_size == 16
    assert signature.agents == tuple(f"child_{i}" for i in range(4))


# -- runner pre-flight ---------------------------------------------------------

def test_run_rejects_unknown_agent_pre_flight():
    with pytest.raises(CheckError, match="child_0") as info:
        ExperimentRunner().run(
            "muddy_children", {"n": 3}, formulas=["K_z at_least_one"]
        )
    assert any(d.code == "REP101" for d in info.value.diagnostics)


def test_run_rejects_over_horizon_timestamp_pre_flight():
    with pytest.raises(CheckError, match="REP103"):
        ExperimentRunner().run(
            "commit", {"horizon": 3}, formulas=["K@99_coordinator commit"]
        )


def test_invalid_sweep_batch_rejected_before_any_worker_spawns(monkeypatch):
    """The acceptance pin: pre-flight fires before the pool machinery."""
    import repro.experiments.supervise as supervise

    def boom(*args, **kwargs):
        raise AssertionError("worker pool was spawned for an invalid batch")

    monkeypatch.setattr(supervise, "SweepSupervisor", boom)
    with pytest.raises(CheckError, match="REP101"):
        ExperimentRunner().sweep(
            "muddy_children",
            {"n": [2, 3]},
            formulas=["K_z at_least_one"],
            jobs=2,
        )


def test_supervised_skip_sweep_keeps_per_point_quarantine():
    """Under --on-error skip the pre-flight steps aside: a batch can be invalid
    for only some grid points, so the quarantine machinery owns the failure."""
    reports = ExperimentRunner().sweep(
        "muddy_children",
        {"n": [2, 3]},
        formulas=["K_child_2 at_least_one"],  # exists for n=3, unknown for n=2
        policy=FaultPolicy(on_error="skip"),
    )
    by_n = {report.params["n"]: report for report in reports}
    assert by_n[2].error is not None
    assert by_n[3].error is None


# -- eval-time positivity enforcement ------------------------------------------

def test_engine_rejects_forged_nonpositive_fixpoint():
    model = others_attribute_model(("a", "b"))
    bad = _forged(GreatestFixpoint, "X", Not(Var("X")))
    with pytest.raises(EvaluationError, match="cannot iterate nu X"):
        ModelChecker(model).extension(bad)


def test_greatest_fixpoint_guards_against_nonmonotone_chains():
    universe = frozenset({1, 2, 3})

    def flapping(current):
        return frozenset({1}) if len(current) != 1 else frozenset({1, 2})

    with pytest.raises(EvaluationError, match="not monotone"):
        greatest_fixpoint(flapping, universe)


def test_least_fixpoint_guards_against_nonmonotone_chains():
    universe = frozenset({1, 2, 3})

    def shrinking(current):
        return frozenset() if current else frozenset({1})

    with pytest.raises(EvaluationError, match="not monotone"):
        least_fixpoint(shrinking, universe)


# -- the repro check CLI verb --------------------------------------------------

def test_check_default_suite_clean(capsys):
    code, out, _ = run_cli(capsys, "check", "muddy_children")
    assert code == 0
    assert "clean" in out


def test_check_all_scenarios(capsys):
    code, out, _ = run_cli(capsys, "check", "--all")
    assert code == 0
    for spec in all_scenarios():
        assert spec.name in out


def test_check_acceptance_distinct_codes_and_exit_one(capsys):
    """The acceptance pin: positivity, unknown agent and over-horizon all exit
    1 from the CLI with distinct stable codes; unbound Var gets its own code
    through the API (the parser reads unbound identifiers as propositions, so
    a textual formula cannot produce a free ``Var``)."""
    cases = [
        ("muddy_children", "nu X. !(E_{child_0,child_1} X)", "REP003"),
        ("muddy_children", "K_z at_least_one", "REP101"),
        ("commit", "K@99_coordinator commit", "REP103"),
        ("ok_protocol", "K@9_R2 delayed", "REP103"),
    ]
    seen = set()
    for scenario, text, expected in cases:
        code, out, _ = run_cli(capsys, "check", scenario, "-f", text)
        assert code == 1, (scenario, text)
        assert expected in out
        seen.add(expected)
    seen.update(codes(check_formula(Var("X"))))
    assert seen == {"REP002", "REP003", "REP101", "REP103"}


def test_check_bare_formula_without_scenario(capsys):
    code, out, _ = run_cli(capsys, "check", "-f", "nu X. (p & K_a X)")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "-f", "nu X. !X")
    assert code == 1
    assert "REP003" in out


def test_check_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "check", "muddy_children", "-f", "K_z at_least_one", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    diagnostics = payload["results"][0]["diagnostics"]
    assert diagnostics[0]["code"] == "REP101"
    assert diagnostics[0]["severity"] == "error"


def test_check_strict_promotes_warnings(capsys):
    # phases has custom clocks, so an over-horizon timestamp is a warning:
    # clean exit normally, exit 1 under --strict.
    argv = ("check", "phases", "-f", "K@99_p1 decided")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "REP103" in out
    code, out, _ = run_cli(capsys, *argv, "--strict")
    assert code == 1


def test_check_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "check")[0] == 2
    assert run_cli(capsys, "check", "no_such_scenario")[0] == 2
    assert run_cli(capsys, "check", "muddy_children", "--all")[0] == 2
    assert run_cli(capsys, "check", "-f", "p", "-p", "n=3")[0] == 2


# -- checker-vs-evaluator differential over the random corpus ------------------

def _corpus(seed, count=40):
    structure = random_structure(seed, n_worlds=10, n_agents=3, n_props=4)
    agents = sorted(structure.agents, key=repr)
    props = sorted(structure.propositions())
    signature = ScenarioSignature(
        agents=tuple(agents),
        kind=KIND_KRIPKE,
        universe_size=10,
        name=f"random-{seed}",
    )
    return structure, signature, formula_suite(seed, props, agents, count)


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_checker_passed_formulas_evaluate_cleanly(seed):
    """No false positives: a checker-clean formula evaluates on both backends."""
    structure, signature, suite = _corpus(seed)
    checkers = [
        ModelChecker(structure, backend=backend)
        for backend in ("frozenset", "bitset")
    ]
    for formula in suite:
        diagnostics = check_formula(formula, signature)
        assert not any(d.is_error for d in diagnostics), (
            formula,
            render_diagnostics(diagnostics),
        )
        for checker in checkers:
            checker.extension(formula)  # must not raise


@pytest.mark.parametrize("seed", [11, 22])
def test_semantic_evaluation_errors_are_flagged(seed):
    """No false negatives: mutations that make evaluation raise a semantic
    error are all flagged by the checker with an error diagnostic."""
    structure, signature, suite = _corpus(seed, count=6)
    mutations = [
        (Knows("nobody", suite[0]), "REP101"),
        # Not the And((suite[1], Var(...))) shape: the engine may short-circuit
        # an empty conjunct and legitimately never evaluate the free Var.
        (Not(Var("FREE")), "REP002"),
        (Eventually(suite[2]), "REP105"),
        (KnowsAt("a0", suite[3], 2), "REP105"),
        (_forged(GreatestFixpoint, "Z", Not(Var("Z"))), "REP003"),
    ]
    checkers = [
        ModelChecker(structure, backend=backend)
        for backend in ("frozenset", "bitset")
    ]
    for formula, expected in mutations:
        diagnostics = check_formula(formula, signature)
        assert any(d.code == expected and d.is_error for d in diagnostics), (
            formula,
            expected,
            render_diagnostics(diagnostics),
        )
        for checker in checkers:
            with pytest.raises((EvaluationError, UnknownAgentError)):
                checker.extension(formula)
