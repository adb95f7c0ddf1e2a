"""Cold start: the CLI and the scenario catalogue load no more than they use.

``repro list`` and the benchmark's setup probe (``import repro.cli`` then
``all_scenarios()``) read scenario metadata from
:mod:`repro.experiments.catalogue`; the scenario modules, the model stack,
the runner, the store and the pool load only in the verbs and paths that
need them.  Each check runs in a fresh interpreter, since this test process
has long since imported everything.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

from repro.experiments.catalogue import BUILTIN_SCENARIOS
from repro.experiments.registry import Deferred, get_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIO_MODULES = {spec.builder.module for spec in BUILTIN_SCENARIOS}

HEAVY_PACKAGES = (
    "repro.kripke",
    "repro.systems",
    "repro.simulation",
    "repro.engine",
    "repro.serve",
)

HEAVY_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.store",
    "repro.experiments.supervise",
    "repro.experiments.chaos",
    "sqlite3",
    "multiprocessing",
)


def loaded_after(code, env=None):
    """The module names a fresh interpreter holds after running ``code``.

    The names are taken before the report itself imports :mod:`json`, so a
    check may assert that ``code`` loaded no ``json``.
    """
    script = (
        code
        + "\nimport sys\nloaded = sorted(sys.modules)\n"
        + "import json\nprint(json.dumps(loaded))\n"
    )
    environment = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    environment.pop("REPRO_CHAOS", None)
    environment.update(env or {})
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=environment,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


def heavy(modules):
    return sorted(
        name
        for name in modules
        if name in SCENARIO_MODULES
        or name in HEAVY_MODULES
        or any(name == p or name.startswith(p + ".") for p in HEAVY_PACKAGES)
    )


def test_cli_import_and_listing_load_no_scenario_or_model_stack():
    modules = loaded_after(
        "import repro.cli\n"
        "from repro.experiments.registry import all_scenarios, scenario_listing\n"
        "all_scenarios()\n"
        "scenario_listing()\n"
    )
    assert heavy(modules) == []


def test_schema_validation_loads_no_scenario_module():
    modules = loaded_after(
        "from repro.experiments.registry import all_scenarios\n"
        "for spec in all_scenarios():\n"
        "    spec.validate_params({})\n"
    )
    assert heavy(modules) == []


def test_a_kripke_run_loads_neither_the_systems_stack_nor_the_harnesses():
    modules = loaded_after(
        "from repro.cli import main\n"
        "assert main(['run', 'muddy_children', '-p', 'n=4']) == 0\n"
    )
    assert "repro.scenarios.muddy_children" in modules
    assert "repro.kripke.checker" in modules
    for name in (
        "repro.scenarios.coordinated_attack",
        "repro.systems.interpretation",
        "repro.simulation",
        "repro.experiments.supervise",
        "repro.experiments.store",
        "repro.experiments.chaos",
        "repro.serve",
        "multiprocessing",
        "sqlite3",
    ):
        assert name not in modules, name


def test_a_system_run_loads_the_simulator_but_no_serialiser():
    modules = loaded_after(
        "from repro.experiments.runner import ExperimentRunner\n"
        "ExperimentRunner().run('ok_protocol', {})\n"
    )
    assert "repro.simulation.simulator" in modules
    assert "json" not in modules


def test_chaos_loads_only_when_its_variable_is_set():
    code = (
        "from repro.experiments.runner import ExperimentRunner\n"
        "ExperimentRunner().run('muddy_children', {'n': 2})\n"
    )
    assert "repro.experiments.chaos" not in loaded_after(code)
    armed = loaded_after(
        code, env={"REPRO_CHAOS": json.dumps({"faults": [{"kind": "raise", "params": {"n": 9}}]})}
    )
    assert "repro.experiments.chaos" in armed


def test_runner_chaos_switch_is_the_harness_variable():
    from repro.experiments.chaos import ENV_VAR
    from repro.experiments.runner import CHAOS_ENV_VAR

    assert CHAOS_ENV_VAR == ENV_VAR


# -- the catalogue ----------------------------------------------------------------


def test_catalogue_is_sorted_and_unique():
    names = [spec.name for spec in BUILTIN_SCENARIOS]
    assert names == sorted(set(names))
    for spec in BUILTIN_SCENARIOS:
        parameter_names = [p.name for p in spec.parameters]
        assert len(parameter_names) == len(set(parameter_names)), spec.name


@pytest.mark.parametrize("spec", BUILTIN_SCENARIOS, ids=lambda spec: spec.name)
def test_entry_callables_resolve_and_builders_take_exactly_the_schema(spec):
    for ref in (spec.builder, spec.formulas, spec.signature):
        if ref is not None:
            assert isinstance(ref, Deferred)
            assert callable(ref.resolve()), ref.target
    builder = spec.builder.resolve()
    declared = [p.name for p in spec.parameters]
    parameters = inspect.signature(builder).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters), spec.name
    assert sorted(p.name for p in parameters) == sorted(declared)


def test_catalogue_choices_match_the_scenario_modules():
    from repro.scenarios import r2d2
    from repro.simulation.fuzz import DELIVERY_KINDS

    assert get_scenario("r2d2").parameter("variant").choices == tuple(
        sorted(r2d2._VARIANT_BUILDERS)
    )
    for name in ("random_protocol", "sequence_transmission"):
        assert get_scenario(name).parameter("delivery").choices == DELIVERY_KINDS

