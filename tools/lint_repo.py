#!/usr/bin/env python
"""Repo lint gate: ``ast``-based checks for patterns the test suite can't see.

Five rules, each scoped to where the pattern actually bites:

``LNT001`` — no ``frozenset(...)`` construction in the mask-space hot paths of
``src/repro/engine/universe.py``, ``src/repro/kripke/bisimulation.py``
(whose refinement signatures are int masks of block ids) and
``src/repro/kripke/announcement.py`` (whose update chain hands evaluator
masks straight to the structure).  The bitset
backend's whole point is that
set algebra stays on integer masks; materialising a ``frozenset`` mid-pipeline
silently reintroduces the allocation cost the backend exists to avoid.  The
explicit boundary converters (functions whose name contains ``frozenset``,
e.g. ``to_frozenset``) are exempt — crossing the representation boundary is
their job.

``LNT002`` — no wall-clock reads (``time.time()``, ``datetime.now()``,
``datetime.utcnow()``) in worker-side sweep code
(``src/repro/experiments/runner.py``, ``supervise.py``, ``chaos.py``).  Timing that feeds retry/backoff/watchdog decisions must use
the monotonic clock (``time.monotonic``/``time.perf_counter``): wall clocks
jump under NTP and break supervision determinism.  Parent-side provenance
stamping (``store.py``) legitimately uses wall time and is out of scope.

``LNT003`` — no bare ``except:`` anywhere under ``src/``.  A bare handler
swallows ``KeyboardInterrupt``/``SystemExit``, which breaks the CLI's
exit-130 contract and the sweep supervisor's cancellation path.  Write
``except Exception:`` (or narrower).

``LNT004`` — a ``ProcessPoolExecutor`` is constructed only in
``src/repro/experiments/supervise.py``.  Every sweep runs one pipeline, and
its process pool is the supervisor's: a second pool owner would bypass the
fault policy, the deterministic merge and the single-writer store rule.

``LNT005`` — the cold-start modules (``COLD_IMPORT_FILES``: the CLI, the
registry, the scenario catalogue, the fault policy and the ``repro.experiments``
and ``repro.analysis`` package ``__init__``s) import at module level only
what ``COLD_IMPORT_ALLOWLIST`` names.  Every ``repro`` invocation and the
benchmark's setup probe load these modules; a module-level import of a
scenario, the model stack, the runner, the store or the pool there would put
it back on every command's start-up.  Imports inside functions and under
``if TYPE_CHECKING:`` are exempt; ``from package import name`` counts as an
import of ``package.name`` when that is a module of the tree.

Usage::

    python tools/lint_repo.py               # lint src/ with the default scoping
    python tools/lint_repo.py src tools     # extra roots (scoped rules still
                                            # apply only to their own files)
    python tools/lint_repo.py --json

Exits 0 when clean, 1 with ``path:line: RULE message`` findings otherwise,
2 on usage errors (e.g. a path that does not exist).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Iterator, List, NamedTuple, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The files where frozenset construction is a hot-path smell (LNT001).
MASK_SPACE_FILES = (
    "src/repro/engine/universe.py",
    "src/repro/kripke/bisimulation.py",
    "src/repro/kripke/announcement.py",
)

#: Modules that run (or drive) worker-side sweep code (LNT002).
WORKER_SIDE_FILES = (
    "src/repro/experiments/runner.py",
    "src/repro/experiments/supervise.py",
    "src/repro/experiments/chaos.py",
)

#: The one module allowed to construct a process pool (LNT004).
POOL_OWNER_FILES = ("src/repro/experiments/supervise.py",)

#: The modules every CLI start loads, whose module-level imports LNT005 restricts.
COLD_IMPORT_FILES = (
    "src/repro/cli.py",
    "src/repro/experiments/__init__.py",
    "src/repro/experiments/catalogue.py",
    "src/repro/experiments/policy.py",
    "src/repro/experiments/registry.py",
    "src/repro/analysis/__init__.py",
)

#: What the cold-start modules may import at module level (LNT005).
COLD_IMPORT_ALLOWLIST = frozenset(
    {
        "__future__",
        "argparse",
        "contextlib",
        "dataclasses",
        "importlib",
        "json",
        "os",
        "signal",
        "sys",
        "threading",
        "typing",
        "repro.errors",
        "repro.experiments.policy",
        "repro.experiments.registry",
    }
)

#: Attribute calls LNT002 rejects, as dotted names.
WALL_CLOCK_CALLS = frozenset(
    {"time.time", "datetime.now", "datetime.utcnow", "datetime.datetime.now", "datetime.datetime.utcnow"}
)


class Finding(NamedTuple):
    """One lint violation: where it is, which rule, and what to do instead."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _enclosing_functions(tree: ast.AST) -> dict:
    """Map every node to the name of its innermost enclosing function (or '')."""
    owner = {}

    def walk(node: ast.AST, current: str) -> None:
        for child in ast.iter_child_nodes(node):
            owner[child] = current
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
            else:
                walk(child, current)

    owner[tree] = ""
    walk(tree, "")
    return owner


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements that run when the module is imported.

    Walks the module body and the blocks of module-level ``if``/``try``
    statements, skipping ``if TYPE_CHECKING:`` bodies, which never run.
    """
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if _dotted_name(node.test) not in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                pending.extend(block)
            for handler in node.handlers:
                pending.extend(handler.body)


def _imported_modules(node: ast.stmt) -> List[str]:
    """The modules an import statement loads (submodules of the tree included)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    modules = [base]
    for alias in node.names:
        candidate = os.path.join(REPO_ROOT, "src", *f"{base}.{alias.name}".split("."))
        if os.path.isdir(candidate) or os.path.isfile(candidate + ".py"):
            modules.append(f"{base}.{alias.name}")
    return modules


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one file's source text; ``path`` is repo-relative for scoping."""
    normalised = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "LNT000", f"syntax error: {exc.msg}")]
    findings: List[Finding] = []
    check_masks = normalised in MASK_SPACE_FILES
    check_clocks = normalised in WORKER_SIDE_FILES
    owner = _enclosing_functions(tree) if check_masks else {}
    if normalised in COLD_IMPORT_FILES:
        for node in _module_level_imports(tree):
            for module in _imported_modules(node):
                if module not in COLD_IMPORT_ALLOWLIST:
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            "LNT005",
                            f"module-level import of {module} in a cold-start "
                            "module; import it inside the function that needs "
                            "it (or under TYPE_CHECKING for annotations)",
                        )
                    )
    for node in ast.walk(tree):
        if check_masks and isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "frozenset":
                if "frozenset" not in owner.get(node, ""):
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            "LNT001",
                            "frozenset construction in a mask-space hot path; "
                            "keep set algebra on integer masks (boundary "
                            "converters named *frozenset* are exempt)",
                        )
                    )
        if check_clocks and isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted in WALL_CLOCK_CALLS:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "LNT002",
                        f"wall-clock read {dotted}() in worker-side sweep "
                        "code; use time.monotonic()/time.perf_counter()",
                    )
                )
        if (
            isinstance(node, ast.Call)
            and normalised not in POOL_OWNER_FILES
            and (_dotted_name(node.func) or "").split(".")[-1] == "ProcessPoolExecutor"
        ):
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "LNT004",
                    "ProcessPoolExecutor constructed outside the sweep "
                    "supervisor; run pooled work through "
                    "repro.experiments.supervise.SweepSupervisor",
                )
            )
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                Finding(
                    path,
                    node.lineno,
                    "LNT003",
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "catch Exception (or narrower)",
                )
            )
    return findings


def iter_python_files(root: str) -> Iterator[str]:
    """Yield every ``.py`` file under ``root`` (or ``root`` itself), sorted."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if not d.startswith(".") and d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def lint_paths(roots: Sequence[str]) -> List[Finding]:
    """Lint every python file under ``roots``; paths become repo-relative."""
    findings: List[Finding] = []
    for root in roots:
        absolute = os.path.abspath(root)
        if not os.path.exists(absolute):
            raise FileNotFoundError(root)
        for filepath in iter_python_files(absolute):
            relative = os.path.relpath(filepath, REPO_ROOT)
            # Outside the repo (tmp dirs in tests) keep the path as given so
            # scoped rules can still be exercised by naming files explicitly.
            if relative.startswith(".."):
                relative = filepath
            with open(filepath, "r", encoding="utf-8") as handle:
                source = handle.read()
            findings.extend(lint_source(source, relative))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the repo's src/ tree)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON findings")
    args = parser.parse_args(argv)
    roots = args.paths or [os.path.join(REPO_ROOT, "src")]
    try:
        findings = lint_paths(roots)
    except FileNotFoundError as exc:
        print(f"error: no such path: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([finding._asdict() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"{len(findings)} lint finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
