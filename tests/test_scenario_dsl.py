"""The scenario DSL: recipes, registration, error paths, and the ported scenarios.

Three concerns:

* **Error paths** — malformed recipes and bad per-assignment resolutions raise
  :class:`~repro.errors.DSLError` (a :class:`ScenarioError`, so the CLI prints
  it without a traceback) with messages naming the offending ingredient.
* **The ok_protocol port** — the hand-wired PR 2 registration was replaced by a
  :class:`ScenarioRecipe`; a shadow registration of the legacy builder must
  produce *identical* sweep rows.
* **Family sanity** — the new DSL families (gossip, sequence transmission,
  byzantine general) pin the knowledge facts their docstrings claim.
"""

from __future__ import annotations

import pytest

from repro.errors import DSLError, ScenarioError
from repro.experiments import ExperimentRunner
from repro.experiments.registry import (
    BuiltScenario,
    Parameter,
    get_scenario,
    register_scenario,
    unregister_scenario,
)
from repro.logic.syntax import Prop
from repro.scenarios.dsl import ScenarioRecipe
from repro.scenarios.ok_protocol import _registry_formulas, build_ok_system
from repro.simulation.network import ReliableSynchronous, Unreliable
from repro.simulation.protocol import Action, Protocol


class _Ping(Protocol):
    """A sends one message to B at time 0 (the minimal recipe protocol)."""

    def step(self, processor, history, time):
        if processor == "A" and time == 0 and not history.sent_messages():
            return Action.send("B", "ping")
        return Action.nothing()


def recipe(**overrides):
    """A valid baseline recipe, with per-test field overrides."""
    fields = dict(
        name="dsl_test_ping",
        summary="one message over a reliable link",
        section="test",
        processors=("A", "B"),
        protocol=_Ping(),
        horizon=2,
        delivery=ReliableSynchronous(1),
    )
    fields.update(overrides)
    return ScenarioRecipe(**fields)


# -- definition-time validation --------------------------------------------------


def test_baseline_recipe_builds():
    built = recipe().build()
    assert len(built.model.runs) == 1
    assert built.model.runs[0].duration == 2


def test_dsl_error_is_a_scenario_error():
    assert issubclass(DSLError, ScenarioError)


def test_empty_name_rejected():
    with pytest.raises(DSLError, match="non-empty name"):
        recipe(name="").validate()


def test_missing_summary_rejected():
    with pytest.raises(DSLError, match="needs a summary"):
        recipe(summary="").validate()


def test_non_parameter_schema_rejected():
    with pytest.raises(DSLError, match="must be Parameter objects"):
        recipe(parameters=("horizon",)).validate()


def test_duplicate_parameters_rejected():
    params = (
        Parameter("n", int, default=2),
        Parameter("n", int, default=3),
    )
    with pytest.raises(DSLError, match="declares parameter 'n' twice"):
        recipe(parameters=params).validate()


def test_horizon_unknown_parameter_rejected():
    with pytest.raises(DSLError, match="horizon references unknown parameter"):
        recipe(horizon="steps").validate()


def test_horizon_non_int_parameter_rejected():
    params = (Parameter("steps", str, default="three"),)
    with pytest.raises(DSLError, match="must be int-typed"):
        recipe(horizon="steps", parameters=params).validate()


def test_horizon_wrong_type_rejected():
    with pytest.raises(DSLError, match="horizon must be an int"):
        recipe(horizon=2.5).validate()


def test_constant_delivery_wrong_type_rejected():
    with pytest.raises(DSLError, match="delivery must be a DeliveryModel"):
        recipe(delivery="unreliable").validate()


def test_constant_protocol_wrong_type_rejected():
    with pytest.raises(DSLError, match="protocol must be a Protocol"):
        recipe(protocol="ping").validate()


def test_unparsable_static_formula_rejected():
    with pytest.raises(DSLError, match="does not parse"):
        recipe(formulas={"bad": "K_ ("}).validate()


def test_static_formula_wrong_type_rejected():
    with pytest.raises(DSLError, match="must be formula text"):
        recipe(formulas={"bad": 42}).validate()


def test_default_labels_unknown_label_rejected():
    with pytest.raises(DSLError, match="unknown formula label"):
        recipe(
            formulas={"ok": "delivered"}, default_labels=("missing",)
        ).validate()


def test_default_labels_without_suite_rejected():
    with pytest.raises(DSLError, match="no formula suite"):
        recipe(default_labels=("ok",)).validate()


def test_register_validates_first():
    with pytest.raises(DSLError, match="needs a summary"):
        recipe(summary="").register()


# -- per-assignment resolution errors --------------------------------------------


def test_processors_must_resolve_to_sequence():
    with pytest.raises(DSLError, match="must resolve to a sequence"):
        recipe(processors=lambda params: 7).build()


def test_processors_must_be_nonempty_and_unique():
    with pytest.raises(DSLError, match="empty tuple"):
        recipe(processors=lambda params: ()).build()
    with pytest.raises(DSLError, match="must be unique"):
        recipe(processors=("A", "A")).build()


def test_protocol_mapping_missing_processor_is_arity_mismatch():
    with pytest.raises(DSLError, match="arity mismatch"):
        recipe(protocol={"A": _Ping()}).build()


def test_protocol_mapping_extra_processor_rejected():
    with pytest.raises(DSLError, match="does not declare"):
        recipe(protocol={"A": _Ping(), "B": _Ping(), "C": _Ping()}).build()


def test_resolved_horizon_must_be_nonnegative_int():
    with pytest.raises(DSLError, match="not an int"):
        recipe(horizon=lambda params: "soon").build()
    with pytest.raises(DSLError, match="non-negative"):
        recipe(horizon=lambda params: -1).build()


def test_resolved_delivery_must_be_model():
    with pytest.raises(DSLError, match="not a DeliveryModel"):
        recipe(delivery=lambda params: "unreliable").build()


def test_resolved_adversary_must_be_callable():
    with pytest.raises(DSLError, match="not a callable drop rule"):
        recipe(adversary=lambda params: "drop everything").build()


def test_environment_map_unknown_processor_rejected():
    with pytest.raises(DSLError, match="unknown processors"):
        recipe(initial_states={"Z": (0,)}).build()


def test_environment_map_wrong_type_rejected():
    with pytest.raises(DSLError, match="must resolve to a mapping"):
        recipe(wake_times=lambda params: [1, 2]).build()


def test_fact_rules_wrong_type_rejected():
    with pytest.raises(DSLError, match="fact_rules must resolve to a sequence"):
        recipe(fact_rules=lambda params: 3).build()


def test_formula_suite_must_resolve_to_mapping():
    bad = recipe(formulas=lambda params: ["delivered"])
    with pytest.raises(DSLError, match="must resolve to a mapping"):
        bad.resolve_formulas({})


def test_formula_entry_must_resolve_to_formula():
    bad = recipe(formulas={"late": lambda params: 42})
    with pytest.raises(DSLError, match="not a Formula"):
        bad.resolve_formulas({})


def test_callable_formula_entry_parse_error_reported():
    bad = recipe(formulas={"late": lambda params: "K_ ("})
    with pytest.raises(DSLError, match="does not parse"):
        bad.resolve_formulas({})


def test_simulation_failure_reported_as_dsl_error():
    from repro.errors import ProtocolError

    class Exploding(Protocol):
        def step(self, processor, history, time):
            raise ProtocolError("this protocol refuses to run")

    with pytest.raises(DSLError, match="failed to simulate"):
        recipe(protocol=Exploding()).build()


# -- registration and the adversary hook -----------------------------------------


def test_registered_recipe_round_trips_through_registry():
    spec = recipe(
        name="dsl_test_registered",
        parameters=(Parameter("horizon", int, default=2, minimum=1),),
        horizon="horizon",
        formulas={"true": "true"},
    ).register()
    try:
        fetched = get_scenario("dsl_test_registered")
        assert fetched.name == spec.name
        built = fetched.build(fetched.validate_params({"horizon": 3}))
        assert built.model.runs[0].duration == 3
        assert list(fetched.default_formulas({"horizon": 3})) == ["true"]
        assert fetched.builder.recipe.name == "dsl_test_registered"
    finally:
        unregister_scenario("dsl_test_registered")


def test_adversary_composes_drop_rule_over_delivery():
    """A drop-everything adversary silences the reliable channel entirely."""
    silenced = recipe(adversary=lambda params: (lambda message, time: True)).build()
    assert all(run.no_messages_received() for run in silenced.model.runs)
    open_channel = recipe().build()
    assert not all(run.no_messages_received() for run in open_channel.model.runs)


def test_default_labels_select_a_subset():
    spec_recipe = recipe(
        formulas={"a": "true", "b": "false"}, default_labels=("b",)
    )
    assert list(spec_recipe.resolve_formulas({})) == ["b"]


# -- the ok_protocol port: identical sweep rows before/after ---------------------


def comparable(reports):
    """Deterministic sweep content, with the scenario name factored out."""
    return [
        (
            tuple(sorted(report.params.items())),
            report.backend,
            report.kind,
            report.universe,
            report.focus,
            report.minimized,
            [tuple(sorted(row.to_dict().items())) for row in report.rows],
        )
        for report in reports
    ]


def test_ok_protocol_port_matches_legacy_rows():
    """The DSL registration reproduces the hand-wired sweep, row for row."""

    @register_scenario(
        name="ok_protocol_legacy",
        summary="legacy hand-wired ok_protocol registration (test shadow)",
        section="Section 11",
        parameters=(
            Parameter("horizon", int, default=3, minimum=1, description="steps"),
            Parameter("eps", int, default=1, minimum=0, description="epsilon"),
        ),
        formulas=_registry_formulas,
    )
    def build_legacy(horizon: int, eps: int) -> BuiltScenario:
        return BuiltScenario(
            model=build_ok_system(horizon),
            note="no focus point: the Section 11 claims are validity claims",
        )

    try:
        grid = {"horizon": [1, 2, 3], "eps": [0, 1]}
        ported = ExperimentRunner().sweep("ok_protocol", grid)
        legacy = ExperimentRunner().sweep("ok_protocol_legacy", grid)
        assert comparable(ported) == comparable(legacy)
        assert all(report.scenario == "ok_protocol" for report in ported)
    finally:
        unregister_scenario("ok_protocol_legacy")


# -- family sanity ---------------------------------------------------------------


def test_gossip_secret_spreads_but_is_not_common():
    report = ExperimentRunner().run("gossip", {"n": 3, "horizon": 4})
    rows = {row.label: row for row in report.rows}
    assert report.universe == 8 * 5  # 2^3 secret assignments x 5 points each
    assert rows["E whether secret_0"].valid
    assert rows["K_g1 whether secret_0"].satisfiable
    assert not rows["C secret_0"].valid
    assert rows["C secret_0"].satisfiable


def test_gossip_run_count_scales_with_ring_size():
    for n in (2, 4):
        report = ExperimentRunner().run("gossip", {"n": n, "horizon": 2})
        assert report.universe == (2 ** n) * 3


def test_sequence_transmission_knowledge_without_common_knowledge():
    """Over the unreliable line the receiver can know the bit; C never holds."""
    report = ExperimentRunner().run(
        "sequence_transmission",
        {"n_bits": 1, "horizon": 3, "delivery": "unreliable"},
    )
    rows = {row.label: row for row in report.rows}
    assert rows["K_R whether bit_0"].satisfiable
    assert not rows["C whether bit_0"].satisfiable
    assert not rows["K_S got_0"].satisfiable  # no ack arrives within horizon 3


def test_sequence_transmission_reliable_delivers_eventually():
    report = ExperimentRunner().run(
        "sequence_transmission",
        {"n_bits": 1, "horizon": 3, "delivery": "reliable"},
    )
    rows = {row.label: row for row in report.rows}
    assert rows["<> got_0"].valid
    assert rows["C whether bit_0"].satisfiable


def test_byzantine_detection_climbs_to_common_knowledge():
    report = ExperimentRunner().run(
        "byzantine_general", {"horizon": 4, "drop_first": 0}
    )
    rows = {row.label: row for row in report.rows}
    assert rows["detect_r0"].satisfiable
    assert rows["K_r0 faulty"].satisfiable
    assert rows["C faulty"].satisfiable
    assert not rows["faulty"].valid  # the honest runs exist


def test_byzantine_adversary_destroys_detection():
    report = ExperimentRunner().run(
        "byzantine_general", {"horizon": 4, "drop_first": 6}
    )
    rows = {row.label: row for row in report.rows}
    assert rows["faulty"].satisfiable  # the fact still varies with the run
    assert not rows["detect_r0"].satisfiable
    assert not rows["K_r0 faulty"].satisfiable
    assert not rows["C faulty"].satisfiable
