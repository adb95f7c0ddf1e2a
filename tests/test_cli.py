"""Tests for the ``python -m repro`` command line interface (in-process)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- list ----------------------------------------------------------------------

def test_list_table(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for name in ("muddy_children", "coordinated_attack", "r2d2", "ok_protocol"):
        assert name in out


def test_list_json(capsys):
    code, out, _ = run_cli(capsys, "list", "--json")
    assert code == 0
    payload = json.loads(out)
    names = [entry["name"] for entry in payload]
    assert "muddy_children" in names
    assert all({"name", "section", "summary", "parameters"} <= set(e) for e in payload)


# -- describe ------------------------------------------------------------------

def test_describe_table(capsys):
    code, out, _ = run_cli(capsys, "describe", "muddy_children")
    assert code == 0
    assert "Sections 2 and 10" in out
    assert "n: int" in out
    assert "default formulas" in out


def test_describe_json(capsys):
    code, out, _ = run_cli(capsys, "describe", "r2d2", "--json")
    assert code == 0
    payload = json.loads(out)
    variant = next(p for p in payload["parameters"] if p["name"] == "variant")
    assert "uncertain" in variant["choices"]
    assert payload["default_formulas"]


def test_describe_unknown_scenario(capsys):
    code, _, err = run_cli(capsys, "describe", "nope")
    assert code == 2
    assert "unknown scenario" in err


# -- run -----------------------------------------------------------------------

def test_run_defaults(capsys):
    code, out, _ = run_cli(capsys, "run", "muddy_children")
    assert code == 0
    assert "8 worlds" in out
    assert "C m" in out


def test_run_every_registered_scenario(capsys):
    """The acceptance criterion: every scenario is runnable from the shell."""
    for name in (
        "muddy_children",
        "coordinated_attack",
        "cheating_husbands",
        "r2d2",
        "ok_protocol",
        "broadcast",
        "commit",
        "phases",
    ):
        code, out, err = run_cli(capsys, "run", name)
        assert code == 0, f"{name}: {err}"
        assert "label" in out, name


def test_run_with_params_and_backend(capsys, engine_backend):
    # The run evaluates on the engine's default backend and reports it.
    code, out, _ = run_cli(capsys, "run", "muddy_children", "-p", "n=4", "-p", "k=2")
    assert code == 0
    assert f"backend: {engine_backend}" in out
    assert "16 worlds" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "muddy_children", "--backend", "frozenset"),
        ("sweep", "muddy_children", "-g", "n=2..3", "--backends", "both"),
    ],
)
def test_backend_choice_flags_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_verb_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "compare"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_run_with_explicit_formula_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "muddy_children",
        "-f",
        "K_child_0 at_least_one",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["label"] == "K_child_0 at_least_one"
    assert payload["rows"][0]["holds_at_focus"] is True


def test_run_bad_parameter_value(capsys):
    code, _, err = run_cli(capsys, "run", "muddy_children", "-p", "n=oops")
    assert code == 2
    assert "expects int" in err


def test_run_bad_formula(capsys):
    code, _, err = run_cli(capsys, "run", "muddy_children", "-f", "K_a (p &")
    assert code == 2
    assert "error" in err


# -- sweep ---------------------------------------------------------------------

def test_sweep_range_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "muddy_children", "-g", "n=2..4")
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith(("n", "-"))]
    assert len(lines) == 3  # one row per grid point


def test_sweep_list_grid_with_fixed_param(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "r2d2", "-g", "variant=uncertain,exact", "-p", "epsilon=1"
    )
    assert code == 0
    assert "uncertain" in out and "exact" in out


def test_sweep_requires_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "muddy_children")
    assert code == 2
    assert "grid" in err


def test_sweep_rejects_conflicting_axis(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2..3", "-p", "n=4"
    )
    assert code == 2
    assert "both fixed" in err


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "muddy_children", "-g", "n=5..2")
    assert code == 2
    assert "empty range" in err


def test_sweep_float_endpoints_suggest_step_form(capsys):
    """Regression: float endpoints used to die with a bare "integer endpoints"
    message; the error now teaches both working spellings."""
    code, _, err = run_cli(capsys, "sweep", "r2d2", "-g", "epsilon=0.5..1.5")
    assert code == 2
    assert "epsilon=lo..hi..step" in err
    assert "commas" in err


@pytest.fixture
def float_parameter_scenario():
    """A scratch scenario with a float parameter (no built-in scenario has one)."""
    from repro.experiments.registry import Parameter, register_scenario, unregister_scenario
    from repro.kripke.builders import others_attribute_model

    name = "scratch_float_cli"

    @register_scenario(
        name,
        summary="scratch",
        section="nowhere",
        parameters=(Parameter("rate", float, default=1.0, minimum=0.0),),
    )
    def build(rate):
        return others_attribute_model(("a", "b"))

    yield name
    unregister_scenario(name)


def test_sweep_stepped_float_grid(capsys, float_parameter_scenario):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        float_parameter_scenario,
        "-g",
        "rate=0.5..1.5..0.5",
        "-f",
        "at_least_one",
        "--json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [report["params"]["rate"] for report in reports] == [0.5, 1.0, 1.5]


def test_sweep_stepped_float_grid_has_no_float_noise(capsys, float_parameter_scenario):
    """0..1..0.1 yields 0.3 and 0.7, not 0.30000000000000004."""
    code, out, _ = run_cli(
        capsys,
        "sweep",
        float_parameter_scenario,
        "-g",
        "rate=0..1..0.1",
        "-f",
        "at_least_one",
        "--json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [report["params"]["rate"] for report in reports] == [
        0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1
    ]


def test_sweep_stepped_grid_keeps_integer_parameters_integral(capsys):
    """A stepped range whose values land on integers works for int parameters."""
    code, out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2..4..1", "--json"
    )
    assert code == 0
    reports = json.loads(out)
    assert [report["params"]["n"] for report in reports] == [2, 3, 4]


def test_sweep_stepped_grid_rejects_bad_steps(capsys):
    code, _, err = run_cli(capsys, "sweep", "muddy_children", "-g", "n=2..4..0")
    assert code == 2
    assert "step must be positive" in err
    code, _, err = run_cli(capsys, "sweep", "muddy_children", "-g", "n=2..4..1..9")
    assert code == 2
    assert "lo..hi..step" in err
    code, _, err = run_cli(capsys, "sweep", "muddy_children", "-g", "n=2..4..x")
    assert code == 2
    assert "numeric" in err


# -- minimize ------------------------------------------------------------------

def test_run_minimize_flag(capsys):
    code, out, _ = run_cli(
        capsys, "run", "muddy_children", "-p", "n=4", "-p", "k=2", "--minimize", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimized"] is True
    rows = {row["label"]: row for row in payload["rows"]}
    assert rows["E^1 m"]["holds_at_focus"] is True
    assert rows["C m"]["count"] == 0


def test_run_minimize_table_reports_classes(capsys):
    code, out, _ = run_cli(
        capsys, "run", "muddy_children", "-p", "n=3", "--minimize"
    )
    assert code == 0
    assert "bisimulation classes" in out


def test_run_minimize_on_system_scenario(capsys):
    """System scenarios minimise through their Kripke export (static formulas)."""
    code, out, _ = run_cli(capsys, "run", "commit", "--minimize")
    assert code == 0
    assert "bisimulation classes" in out


def test_run_minimize_rejects_temporal_formulas_cleanly(capsys):
    """Temporal default formulas cannot ride the quotient; the checker's error
    surfaces as a normal CLI error, not a traceback."""
    code, _, err = run_cli(capsys, "run", "ok_protocol", "--minimize")
    assert code == 2
    assert "runs-and-systems" in err


def test_sweep_minimize_flag(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "muddy_children", "-g", "n=2..4", "--minimize", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload and all(report["minimized"] for report in payload)
