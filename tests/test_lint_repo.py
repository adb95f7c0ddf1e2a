"""Tests for the ``tools/lint_repo.py`` ast-based repo lint gate."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint_repo import (  # noqa: E402 - needs the tools/ path above
    COLD_IMPORT_FILES,
    MASK_SPACE_FILES,
    POOL_OWNER_FILES,
    WORKER_SIDE_FILES,
    lint_paths,
    lint_source,
)


def rules(findings):
    return [finding.rule for finding in findings]


# -- rule scoping --------------------------------------------------------------

HOT_PATH_SOURCE = (
    "def hot(masks):\n"
    "    return frozenset(masks)\n"
    "\n"
    "def to_frozenset(mask):\n"
    "    return frozenset(mask)\n"
)


def test_frozenset_flagged_only_in_mask_space_files():
    for path in ("src/repro/engine/universe.py", "src/repro/kripke/announcement.py"):
        findings = lint_source(HOT_PATH_SOURCE, path)
        assert rules(findings) == ["LNT001"], path
        assert findings[0].line == 2  # the converter on line 5 is exempt
    assert lint_source(HOT_PATH_SOURCE, "src/repro/engine/core.py") == []


def test_frozenset_signature_flagged_in_bisimulation_refinement():
    source = (
        "def _bisimulation_block_masks(structure):\n"
        "    met = frozenset(block_of[w] for w in structure.worlds)\n"
        "    return [met]\n"
    )
    findings = lint_source(source, "src/repro/kripke/bisimulation.py")
    assert rules(findings) == ["LNT001"]
    assert findings[0].line == 2


WALL_CLOCK_SOURCE = (
    "import time\n"
    "import datetime\n"
    "def work():\n"
    "    a = time.time()\n"
    "    b = datetime.datetime.now()\n"
    "    c = time.monotonic()\n"
    "    d = time.perf_counter()\n"
)


def test_wall_clock_flagged_only_in_worker_side_files():
    findings = lint_source(
        WALL_CLOCK_SOURCE, "src/repro/experiments/supervise.py"
    )
    assert rules(findings) == ["LNT002", "LNT002"]
    assert {finding.line for finding in findings} == {4, 5}
    # store.py stamps parent-side provenance with wall time; out of scope.
    assert lint_source(WALL_CLOCK_SOURCE, "src/repro/experiments/store.py") == []


def test_bare_except_flagged_everywhere():
    source = "try:\n    pass\nexcept:\n    pass\n"
    findings = lint_source(source, "src/repro/anywhere.py")
    assert rules(findings) == ["LNT003"]
    assert lint_source(
        "try:\n    pass\nexcept Exception:\n    pass\n", "src/repro/anywhere.py"
    ) == []


def test_process_pool_flagged_outside_the_supervisor():
    source = (
        "import concurrent.futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "a = ProcessPoolExecutor(max_workers=2)\n"
        "b = concurrent.futures.ProcessPoolExecutor()\n"
        "c = concurrent.futures.ThreadPoolExecutor()\n"
    )
    findings = lint_source(source, "src/repro/experiments/runner.py")
    assert rules(findings) == ["LNT004", "LNT004"]
    assert {finding.line for finding in findings} == {3, 4}
    assert lint_source(source, "src/repro/experiments/supervise.py") == []


def test_model_stack_import_flagged_at_the_top_of_the_registry():
    registry = REPO_ROOT / "src" / "repro" / "experiments" / "registry.py"
    source = registry.read_text(encoding="utf-8")
    future = "from __future__ import annotations\n"
    injected = source.replace(future, future + "import repro.kripke.structure\n", 1)
    line = injected[: injected.index("import repro.kripke.structure")].count("\n") + 1
    findings = lint_source(injected, "src/repro/experiments/registry.py")
    assert [(f.rule, f.line) for f in findings] == [("LNT005", line)]
    assert "repro.kripke.structure" in findings[0].message
    assert lint_source(source, "src/repro/experiments/registry.py") == []


def test_cold_import_rule_exempts_functions_and_type_checking_only():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from repro.errors import ReproError\n"
        "from repro.experiments import runner\n"
        "if TYPE_CHECKING:\n"
        "    from repro.systems.system import System\n"
        "try:\n"
        "    import sqlite3\n"
        "except ImportError:\n"
        "    pass\n"
        "def verb():\n"
        "    from repro.experiments.store import ResultStore\n"
    )
    findings = lint_source(source, "src/repro/cli.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("LNT005", 3),  # repro.experiments itself ...
        ("LNT005", 3),  # ... and the runner submodule it names
        ("LNT005", 7),
    ]
    assert lint_source(source, "src/repro/experiments/runner.py") == []


def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n", "src/repro/broken.py")
    assert rules(findings) == ["LNT000"]


def test_scoped_file_lists_point_at_real_files():
    for path in MASK_SPACE_FILES + WORKER_SIDE_FILES + POOL_OWNER_FILES + COLD_IMPORT_FILES:
        assert (REPO_ROOT / path).is_file(), path


# -- the repo itself -----------------------------------------------------------

def test_repo_src_tree_is_clean():
    findings = lint_paths([str(REPO_ROOT / "src")])
    assert findings == [], [finding.render() for finding in findings]


# -- the command line ----------------------------------------------------------

def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint_repo.py"), *argv],
        capture_output=True,
        text=True,
    )


def test_cli_clean_exit_zero():
    result = _run_cli(str(REPO_ROOT / "src"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_findings_exit_one(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n")
    result = _run_cli(str(tmp_path))
    assert result.returncode == 1
    assert "LNT003" in result.stdout
    assert "bad.py:3" in result.stdout


def test_cli_json_output(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n")
    result = _run_cli(str(tmp_path), "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload[0]["rule"] == "LNT003"
    assert payload[0]["line"] == 3


def test_cli_missing_path_exit_two():
    result = _run_cli(str(REPO_ROOT / "no_such_directory"))
    assert result.returncode == 2
    assert "no such path" in result.stderr
