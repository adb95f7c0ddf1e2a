"""Tier-1-adjacent repo checks: examples, CLI entry point, docs freshness.

These run the same commands a CI job (and the verify skill) would, so a green
test suite certifies the whole documentation surface:

* every ``examples/*.py`` runs to completion — *without* ``PYTHONPATH``, which
  exercises the scripts' source-checkout bootstrap;
* ``python -m repro list`` works;
* ``tools/check_doc_coverage.py`` passes (public API docstrings);
* ``tools/gen_scenario_docs.py --check`` passes (``docs/scenarios.md`` is in
  sync with the registry);
* a ``benchmarks/`` module's assertions pass as plain pytest with timing
  disabled, as the CI benchmark step runs them;
* every repo path a CI step names exists.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def _run(args, *, env=None, cwd=None):
    return subprocess.run(
        args,
        cwd=str(cwd or REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _env_with_src():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def _env_without_pythonpath():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


@pytest.mark.parametrize("example", EXAMPLES, ids=[e.name for e in EXAMPLES])
def test_example_runs_to_completion(example, tmp_path):
    """Each example is a runnable quickstart, even from a foreign cwd w/o PYTHONPATH."""
    result = _run(
        [sys.executable, str(example)],
        env=_env_without_pythonpath(),
        cwd=tmp_path,
    )
    assert result.returncode == 0, f"{example.name} failed:\n{result.stderr[-2000:]}"
    assert result.stdout.strip(), f"{example.name} printed nothing"


def test_examples_exist():
    assert len(EXAMPLES) >= 4


def test_python_dash_m_repro_list():
    result = _run([sys.executable, "-m", "repro", "list"], env=_env_with_src())
    assert result.returncode == 0, result.stderr
    for name in ("muddy_children", "coordinated_attack", "commit"):
        assert name in result.stdout


def test_doc_coverage_check_passes():
    result = _run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_doc_coverage.py")],
        env=_env_with_src(),
    )
    assert result.returncode == 0, f"doc coverage regressed:\n{result.stdout}"


def test_scenario_docs_are_fresh():
    result = _run(
        [sys.executable, str(REPO_ROOT / "tools" / "gen_scenario_docs.py"), "--check"],
        env=_env_with_src(),
    )
    assert result.returncode == 0, (
        "docs/scenarios.md is stale; regenerate with "
        f"PYTHONPATH=src python tools/gen_scenario_docs.py\n{result.stdout}"
    )


def test_readme_and_architecture_docs_exist():
    readme = REPO_ROOT / "README.md"
    architecture = REPO_ROOT / "docs" / "architecture.md"
    assert readme.exists() and "Quickstart" in readme.read_text()
    assert architecture.exists() and "repro.engine" in architecture.read_text()


def test_benchmark_assertions_smoke():
    """The CI benchmark step: a ``benchmarks/`` module's assertions as plain pytest."""
    result = _run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "--benchmark-disable",
            "benchmarks/bench_bisimulation.py",
        ],
        env=_env_with_src(),
    )
    assert result.returncode == 0, f"benchmark assertions failed:\n{result.stdout[-2000:]}"


def test_ci_workflow_names_only_existing_repo_paths():
    """Every script or test path a CI step runs exists, so no step outlives its file."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    named = set(
        re.findall(r"\b((?:tools|tests|benchmarks|perfbench)/[\w*]+\.py)\b", workflow)
    )
    assert {"tools/lint_repo.py", "perfbench/run.py"} <= named
    missing = sorted(path for path in named if not list(REPO_ROOT.glob(path)))
    assert not missing, f"ci.yml names files that do not exist: {missing}"
