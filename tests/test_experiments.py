"""Tests for the scenario registry and the experiment runner."""

from __future__ import annotations

import json

import pytest

from repro.engine import BACKENDS, set_default_backend
from repro.errors import ScenarioError
from repro.experiments import (
    DEFAULT_MAX_CACHED_INSTANCES,
    BuiltScenario,
    ExperimentRunner,
    Parameter,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.kripke.builders import others_attribute_model
from repro.logic.parser import parse
from repro.systems.interpretation import ViewBasedInterpretation

ALL_SCENARIOS = (
    "broadcast",
    "byzantine_general",
    "cheating_husbands",
    "commit",
    "coordinated_attack",
    "gossip",
    "muddy_children",
    "ok_protocol",
    "phases",
    "r2d2",
    "random_protocol",
    "sequence_transmission",
)


# -- registry contents ---------------------------------------------------------

def test_every_paper_scenario_is_registered():
    assert scenario_names() == ALL_SCENARIOS


def test_specs_carry_schema_and_formulas():
    for name in ALL_SCENARIOS:
        spec = get_scenario(name)
        assert spec.summary and spec.section
        assert spec.parameters, name
        # Every registered scenario has defaults for every parameter and a
        # non-empty default formula set (the CLI relies on both).
        params = spec.validate_params({})
        assert spec.default_formulas(params), name


# -- registration rules --------------------------------------------------------

@pytest.fixture
def scratch_registration():
    """Register-and-clean helper so tests never leak registry state."""
    registered = []

    def register(name, **kwargs):
        kwargs.setdefault("summary", "scratch")
        kwargs.setdefault("section", "nowhere")
        decorator = register_scenario(name, **kwargs)

        def apply(builder):
            result = decorator(builder)
            registered.append(name)
            return result

        return apply

    yield register
    for name in registered:
        unregister_scenario(name)


def _tiny_builder(**_params):
    return others_attribute_model(("a", "b"))


def test_duplicate_registration_rejected(scratch_registration):
    scratch_registration("scratch_dup")(_tiny_builder)
    with pytest.raises(ScenarioError, match="already registered"):
        register_scenario("scratch_dup", summary="again", section="nowhere")(_tiny_builder)


def test_duplicate_parameter_names_rejected():
    with pytest.raises(ScenarioError, match="twice"):
        register_scenario(
            "scratch_params",
            summary="s",
            section="s",
            parameters=(Parameter("n"), Parameter("n")),
        )


def test_unknown_scenario():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        get_scenario("does_not_exist")


def test_builder_return_type_checked(scratch_registration):
    scratch_registration("scratch_bad_return")(lambda: 42)
    with pytest.raises(ScenarioError, match="expected a KripkeStructure"):
        get_scenario("scratch_bad_return").build({})


# -- parameter validation ------------------------------------------------------

def test_unknown_parameter_rejected():
    spec = get_scenario("muddy_children")
    with pytest.raises(ScenarioError, match="unknown parameter"):
        spec.validate_params({"nn": 3})


def test_missing_required_parameter(scratch_registration):
    scratch_registration("scratch_required", parameters=(Parameter("n", int),))(
        _tiny_builder
    )
    with pytest.raises(ScenarioError, match="requires parameter 'n'"):
        get_scenario("scratch_required").validate_params({})


def test_type_coercion_from_strings():
    spec = get_scenario("muddy_children")
    params = spec.validate_params({"n": "4", "k": "2", "announced": "true"})
    assert params == {"n": 4, "k": 2, "announced": True}


def test_integral_float_coerces_to_int():
    # JSON has one number type, so HTTP clients routinely send 4.0 for an
    # int parameter; it must canonicalise to the same value (and the same
    # store key) as the CLI's "4"
    spec = get_scenario("muddy_children")
    params = spec.validate_params({"n": 4.0, "k": 2.0})
    assert params == {"n": 4, "k": 2, "announced": False}
    assert type(params["n"]) is int and type(params["k"]) is int


def test_type_mismatch_rejected():
    spec = get_scenario("muddy_children")
    with pytest.raises(ScenarioError, match="expects int"):
        spec.validate_params({"n": "four"})
    with pytest.raises(ScenarioError, match="expects int"):
        spec.validate_params({"n": 2.5})
    with pytest.raises(ScenarioError, match="boolean"):
        spec.validate_params({"announced": "maybe"})


def test_range_validation():
    spec = get_scenario("muddy_children")
    with pytest.raises(ScenarioError, match=">= 1"):
        spec.validate_params({"n": 0})


def test_choices_validation():
    spec = get_scenario("r2d2")
    with pytest.raises(ScenarioError, match="one of"):
        spec.validate_params({"variant": "psychic"})


def test_cross_parameter_validation_happens_in_builder():
    with pytest.raises(ScenarioError, match="between 0 and n"):
        get_scenario("muddy_children").build({"n": 2, "k": 5})


# -- runner behaviour ----------------------------------------------------------

def test_runner_caches_instances_by_parameter_key():
    runner = ExperimentRunner()
    first = runner.instance("muddy_children", {"n": 3, "k": 2})
    again = runner.instance("muddy_children", {"k": 2, "n": 3})  # order-insensitive
    other = runner.instance("muddy_children", {"n": 4, "k": 2})
    assert first is again
    assert first is not other
    assert runner.cached_instances == 2


def test_instance_cache_default_bound_is_generous_and_documented():
    runner = ExperimentRunner()
    assert runner.max_cached_instances == DEFAULT_MAX_CACHED_INSTANCES
    assert DEFAULT_MAX_CACHED_INSTANCES >= 64  # "generous": real sweeps fit


def test_instance_cache_bound_must_be_positive():
    with pytest.raises(ScenarioError, match=">= 1"):
        ExperimentRunner(max_cached_instances=0)


def test_instance_cache_is_bounded_on_huge_grids(scratch_registration):
    """Regression for the unbounded cache: a 1000-point grid stays under the bound."""
    scratch_registration(
        "scratch_lru_grid", parameters=(Parameter("n", int, default=0),)
    )(_tiny_builder)
    runner = ExperimentRunner(max_cached_instances=8)
    for i in range(1000):
        runner.instance("scratch_lru_grid", {"n": i})
        assert runner.cached_instances <= 8
    assert runner.cached_instances == 8


def test_instance_cache_evicts_least_recently_used(scratch_registration):
    scratch_registration(
        "scratch_lru_order", parameters=(Parameter("n", int, default=0),)
    )(_tiny_builder)
    runner = ExperimentRunner(max_cached_instances=2)
    first = runner.instance("scratch_lru_order", {"n": 1})
    runner.instance("scratch_lru_order", {"n": 2})
    assert runner.instance("scratch_lru_order", {"n": 1}) is first  # refresh recency
    runner.instance("scratch_lru_order", {"n": 3})  # evicts n=2, not n=1
    assert runner.instance("scratch_lru_order", {"n": 1}) is first
    assert runner.cached_instances == 2


def test_sweep_on_large_grid_stays_under_bound(scratch_registration):
    scratch_registration(
        "scratch_lru_sweep", parameters=(Parameter("n", int, default=0),)
    )(_tiny_builder)
    runner = ExperimentRunner(max_cached_instances=16)
    reports = runner.sweep(
        "scratch_lru_sweep", {"n": range(120)}, formulas=["at_least_one"]
    )
    assert len(reports) == 120
    assert runner.cached_instances <= 16


def test_runner_caches_evaluators_per_backend(engine_backend):
    # Evaluators no longer take a backend argument: each instance caches one
    # evaluator, built on the process-wide default backend.
    runner = ExperimentRunner()
    instance = runner.instance("muddy_children", {})
    evaluator = instance.evaluator()
    assert evaluator is instance.evaluator()
    assert evaluator.backend == engine_backend


def test_run_is_thread_safe_under_concurrent_hammering():
    # The evaluation service shares one runner across executor threads.
    # Before the cache locks, this hammer corrupted the instance OrderedDict
    # (lost evictions, "dictionary changed size during iteration") and raced
    # the engine's memo caches; now every run must complete and the
    # counters must balance exactly.
    import threading

    runner = ExperimentRunner(max_cached_instances=2)
    points = [{"n": 2, "k": 1}, {"n": 3, "k": 1}, {"n": 4, "k": 1}]
    rounds = 6
    errors = []
    barrier = threading.Barrier(8)

    def hammer(index):
        try:
            barrier.wait(timeout=30)
            for round_number in range(rounds):
                report = runner.run(
                    "muddy_children", points[(index + round_number) % len(points)]
                )
                assert report.rows and report.error is None
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert runner.eval_count == 8 * rounds
    assert runner.cached_instances <= 2


def test_run_reproduces_the_muddy_children_claims(engine_backend):
    runner = ExperimentRunner()
    report = runner.run("muddy_children", {"n": 4, "k": 3})
    rows = {row.label: row for row in report.rows}
    assert rows["E^2 m"].holds_at_focus is True   # E^{k-1} m holds initially
    assert rows["E^3 m"].holds_at_focus is False  # E^k m does not
    assert rows["C m"].count == 0                 # C m holds nowhere
    assert report.universe == 16
    assert report.kind == "kripke"


def test_run_after_announcement(engine_backend):
    runner = ExperimentRunner()
    report = runner.run("muddy_children", {"n": 4, "k": 3, "announced": True})
    rows = {row.label: row for row in report.rows}
    assert rows["C m"].holds_at_focus is True     # the father's announcement
    assert rows["m"].valid is True                # m worlds only survive


def test_run_with_explicit_formula_strings():
    runner = ExperimentRunner()
    report = runner.run(
        "muddy_children",
        {"n": 3, "k": 2},
        formulas=["K_child_0 at_least_one", ("labelled", "C_{child_0,child_1,child_2} at_least_one")],
    )
    assert [row.label for row in report.rows] == ["K_child_0 at_least_one", "labelled"]
    assert report.rows[1].count == 0


def test_run_system_scenario(engine_backend):
    runner = ExperimentRunner()
    report = runner.run("coordinated_attack", {"depth": 2, "horizon": 4})
    rows = {row.label: row for row in report.rows}
    # The knowledge ladder strictly shrinks and C intend is never attained.
    assert rows["intend"].count > rows["K_B intend"].count
    assert rows["K_B intend"].count > rows["K_A K_B intend"].count
    assert rows["C intend"].count == 0
    assert report.kind == "system"


def test_sweep_backends_agree():
    # The runner follows the engine's default backend; the autouse
    # ``engine_backend`` fixture restores the suite's default afterwards.
    by_backend = {}
    for backend in BACKENDS:
        set_default_backend(backend)
        reports = ExperimentRunner().sweep("muddy_children", {"n": range(2, 5)})
        assert len(reports) == 3
        assert {report.backend for report in reports} == {backend}
        for report in reports:
            key = (report.params["n"],)
            by_backend.setdefault(key, []).append(
                [(row.label, row.count, row.holds_at_focus) for row in report.rows]
            )
    for key, outcomes in by_backend.items():
        assert outcomes[0] == outcomes[1], f"backends disagree at {key}"


STATIC_ATTACK_FORMULAS = [
    ("intend", "intend_attack"),
    ("K_B intend", "K_B intend_attack"),
    ("C intend", "C_{A,B} intend_attack"),
]


@pytest.mark.parametrize("minimize", [False, True])
@pytest.mark.parametrize("scenario,params,formulas", [
    ("muddy_children", {"n": 4, "k": 2}, None),
    ("coordinated_attack", {"depth": 2, "horizon": 4}, STATIC_ATTACK_FORMULAS),
])
def test_rows_read_from_native_values_match_set_extensions(scenario, params, formulas, minimize):
    """The runner reads count and focus membership off the engine's own
    values; its rows serialise byte for byte like rows computed from
    frozenset extensions, on both backends, with and without ``minimize``."""
    for backend in BACKENDS:
        set_default_backend(backend)
        runner = ExperimentRunner()
        report = runner.run(scenario, params, formulas=formulas, minimize=minimize)
        instance = runner.instance(scenario, params)
        focus, universe = instance.focus, instance.universe_size
        if minimize:
            focus = instance.focus_class(focus)
            universe = len(instance.minimized()[0].worlds)
        batch = (
            list(get_scenario(scenario).default_formulas(params).items())
            if formulas is None
            else ExperimentRunner.normalise_formulas(formulas)
        )
        extensions = instance.evaluator(minimize=minimize).extensions([f for _, f in batch])
        expected = [
            {
                "label": label,
                "formula": str(formula),
                "count": len(extension),
                "universe": universe,
                "satisfiable": bool(extension),
                "valid": len(extension) == universe,
                "holds_at_focus": None if focus is None else focus in extension,
            }
            for (label, formula), extension in zip(batch, extensions)
        ]
        assert json.dumps([row.to_dict() for row in report.rows]) == json.dumps(expected)


def test_engine_summaries_match_extensions_at_any_focus():
    runner = ExperimentRunner()
    system = runner.instance("coordinated_attack", {"depth": 2, "horizon": 4}).model
    formulas = [parse(text) for _, text in STATIC_ATTACK_FORMULAS] + [parse("true")]
    points = list(system.points())
    foreign = next(iter(ExperimentRunner().instance("commit", {}).model.points()))
    for backend in BACKENDS:
        interpretation = ViewBasedInterpretation(system, backend=backend)
        extensions = interpretation.extensions(formulas)
        for focus in (None, points[0], points[-1], foreign):
            assert interpretation.engine.summaries(formulas, focus) == [
                (len(extension), None if focus is None else focus in extension)
                for extension in extensions
            ]


def test_sweep_rejects_unknown_axis_and_empty_axis():
    runner = ExperimentRunner()
    with pytest.raises(ScenarioError, match="no parameter"):
        runner.sweep("muddy_children", {"bogus": [1]})
    with pytest.raises(ScenarioError, match="no values"):
        runner.sweep("muddy_children", {"n": []})


def test_run_without_default_formulas_requires_explicit_ones(scratch_registration):
    scratch_registration("scratch_no_formulas")(_tiny_builder)
    runner = ExperimentRunner()
    with pytest.raises(ScenarioError, match="no default formulas"):
        runner.run("scratch_no_formulas")
    report = runner.run("scratch_no_formulas", formulas=["K_a p"])
    assert report.rows[0].label == "K_a p"


def test_built_scenario_focus_reported():
    runner = ExperimentRunner()
    report = runner.run("muddy_children", {"n": 2, "k": 1})
    assert report.focus == repr((True, False))
    assert all(row.holds_at_focus is not None for row in report.rows)
    system_report = runner.run("commit", {})
    assert system_report.focus is None
    assert all(row.holds_at_focus is None for row in system_report.rows)


def test_report_round_trips_to_dict():
    runner = ExperimentRunner()
    report = runner.run("muddy_children", {})
    payload = report.to_dict()
    assert payload["scenario"] == "muddy_children"
    assert payload["rows"][0]["label"] == "m"
    assert isinstance(payload["eval_seconds"], float)


def test_run_minimize_preserves_focus_verdicts(engine_backend):
    runner = ExperimentRunner()
    plain = runner.run("muddy_children", {"n": 4, "k": 3})
    reduced = runner.run("muddy_children", {"n": 4, "k": 3}, minimize=True)
    assert reduced.minimized and not plain.minimized
    assert [row.holds_at_focus for row in plain.rows] == [
        row.holds_at_focus for row in reduced.rows
    ]
    assert [row.satisfiable for row in plain.rows] == [
        row.satisfiable for row in reduced.rows
    ]
    assert [row.valid for row in plain.rows] == [row.valid for row in reduced.rows]


def test_minimized_evaluators_are_cached_separately():
    runner = ExperimentRunner()
    instance = runner.instance("muddy_children", {})
    plain = instance.evaluator()
    reduced = instance.evaluator(minimize=True)
    assert plain is not reduced
    assert plain is instance.evaluator()
    assert reduced is instance.evaluator(minimize=True)


# -- system scenarios: minimisation and the temporal fast path ------------------


def test_minimize_system_scenario_routes_through_kripke_export(engine_backend):
    """minimize=True on a system scenario quotients its Kripke export.

    Static-fragment verdicts (satisfiability, validity) are bisimulation
    invariant, so they must match the un-minimised run; the quotient may not be
    larger than the point count.
    """
    runner = ExperimentRunner()
    formulas = [
        ("intend", "intend_attack"),
        ("K_B intend", "K_B intend_attack"),
        ("C intend", "C_{A,B} intend_attack"),
    ]
    plain = runner.run("coordinated_attack", {"depth": 2, "horizon": 4}, formulas=formulas)
    reduced = runner.run(
        "coordinated_attack", {"depth": 2, "horizon": 4}, formulas=formulas, minimize=True
    )
    assert reduced.minimized and reduced.kind == "system"
    assert reduced.universe <= plain.universe
    assert [row.satisfiable for row in plain.rows] == [
        row.satisfiable for row in reduced.rows
    ]
    assert [row.valid for row in plain.rows] == [row.valid for row in reduced.rows]


def test_minimize_system_scenario_translates_point_focus(scratch_registration):
    """A system scenario's Point focus maps through the (run name, time) labels."""
    from repro.systems.runs import RunBuilder
    from repro.systems.system import System

    def build_focused(**_params):
        builder = RunBuilder("r0", ("A", "B"), 2)
        builder.add_fact_from(1, "lit")
        run = builder.build()
        return BuiltScenario(model=System([run]), focus=run.point(1))

    scratch_registration("scratch_focused_system")(build_focused)
    runner = ExperimentRunner()
    report = runner.run(
        "scratch_focused_system", formulas=[("lit", "lit")], minimize=True
    )
    assert report.minimized
    (row,) = report.rows
    assert row.holds_at_focus is True


def test_minimize_system_scenario_rejects_temporal_formulas():
    """The quotient has no run/time structure: temporal operators are rejected
    statically by the pre-flight checker, before any model is built."""
    from repro.errors import CheckError
    from repro.logic.syntax import Eventually, Prop

    runner = ExperimentRunner()
    with pytest.raises(CheckError, match="runs-and-systems"):
        runner.run(
            "coordinated_attack",
            {"depth": 2, "horizon": 4},
            formulas=[("ladder", Eventually(Prop("intend_attack")))],
            minimize=True,
        )


def test_universe_size_is_cached_on_the_instance():
    runner = ExperimentRunner()
    instance = runner.instance("coordinated_attack", {"depth": 2, "horizon": 4})
    size = instance.universe_size
    assert size == instance.model.point_count()
    # The slot is primed on first access and served from the cache afterwards.
    assert instance._universe_size == size
    instance._universe_size = size + 1  # a re-enumerating property would revert this
    assert instance.universe_size == size + 1


@pytest.mark.parametrize("scenario,params", [
    ("ok_protocol", {"horizon": 3}),
    ("phases", {"phase_end": 2, "skew": 1}),
])
def test_temporal_default_formulas_agree_across_backends(scenario, params):
    """The registered temporal formula sets produce identical reports on the
    frozenset reference and the bitset mask path (the runner follows the
    engine's default backend; the autouse fixture restores it)."""
    reports = {}
    for backend in BACKENDS:
        set_default_backend(backend)
        reports[backend] = ExperimentRunner().run(scenario, params)
        assert reports[backend].backend == backend
    rows_by_backend = {
        backend: [
            (row.label, row.count, row.satisfiable, row.valid, row.holds_at_focus)
            for row in report.rows
        ]
        for backend, report in reports.items()
    }
    assert rows_by_backend["frozenset"] == rows_by_backend["bitset"]
