"""The ``repro`` command line interface (also ``python -m repro``).

Seven subcommands expose the scenario registry, the static checker, the
experiment runner, the persistent result store and the long-lived evaluation
service from the shell::

    repro list                                  # every registered scenario
    repro describe muddy_children               # schema, defaults, formula set
    repro check muddy_children                  # lint the default formula suite
    repro check muddy_children -f "K_z p"       # REP101: unknown agent, exit 1
    repro check --all --strict                  # every scenario's suite (CI gate)
    repro run muddy_children -p n=4 -p k=2      # evaluate the default formulas
    repro run muddy_children -f "C_{child_0,child_1} at_least_one"
    repro sweep muddy_children -g n=2..6
    repro sweep coordinated_attack -g horizon=3..6 --jobs 4
    repro sweep gossip -g n=3..6 --store results.sqlite --resume
    repro store stats results.sqlite            # rows, slices, provenance
    repro store gc results.sqlite --stale       # prune orphaned rows
    repro serve --port 8750 --store results.sqlite   # long-lived HTTP service

Every subcommand takes ``--json`` for machine-readable output.  ``run`` and
``sweep`` evaluate on the engine's ``bitset`` production backend (the
``frozenset`` oracle is for tests only), and ``sweep`` takes ``--jobs N`` as
a ceiling on worker processes (``--jobs 0`` = one per CPU): the grid starts
in-process and moves to a pool of up to ``N`` workers once the work measured
so far pays for the pool's start-up, with the same deterministic output order
as a serial sweep either way; its ``--json`` output streams one report at a
time as grid points finish.

``run`` and ``sweep`` also take ``--store PATH`` (default: the
``REPRO_STORE`` environment variable) to record every evaluated report in a
persistent content-addressed store, ``--resume`` to serve already recorded
rows from it without re-evaluating, and ``--no-store`` to bypass persistence
entirely.  Stored rows are keyed by the canonical request identity — see
:mod:`repro.experiments.store`.

``serve`` boots the evaluation service (:mod:`repro.serve`): a long-lived
asyncio HTTP server that keeps the runner's instance/evaluator caches — and
optionally an open result store (``--store`` or ``REPRO_STORE``) — resident
across requests, coalescing concurrent identical ``POST /run`` requests into
a single evaluation and streaming ``POST /sweep`` grids as NDJSON rows
byte-compatible with ``repro sweep --json`` elements.

``sweep`` additionally takes a fault policy — ``--on-error {abort,skip}``,
``--retries N``, ``--retry-backoff SECONDS``, ``--timeout-per-point SECONDS``
— that turns grid-point failures from sweep-aborting events into supervised
ones: failed points are retried with exponential backoff, hung points are
reclaimed by a watchdog, and under ``--on-error skip`` exhausted points are
*quarantined* as structured error rows (reported in a failure summary) while
every healthy point still completes.  See
:mod:`repro.experiments.supervise`.

Exit codes (``repro check``)::

    0    every checked formula is clean (warnings allowed unless --strict)
    1    diagnostics were reported — any error, or any finding at all under
         --strict; each line carries a stable REP code (repro.analysis)
    2    usage error (unknown scenario, missing required parameter, no
         scenario and no -f formula text)

Exit codes (``repro sweep``; ``repro run`` exits 2 on any library error)::

    0    every grid point completed cleanly
    1    the sweep aborted mid-run (a grid point failed under --on-error
         abort, for instance in its model build, or the supervisor gave up
         on the worker pool)
    2    usage/configuration error before any evaluation, with nothing on
         stdout: unknown scenario, malformed grid, bad flag values,
         unreadable store, or a grid point the planner rejects (parameter
         validation or the static pre-flight of its formula batch); a
         rejected plan creates no store file
    3    the sweep completed, but one or more grid points were quarantined
         under --on-error skip, planner rejections included (details in
         the failure summary)
    130  interrupted (Ctrl-C); already-completed rows are committed to the
         store and a --json stream is closed well-formed

Exit codes (``repro serve``)::

    2    usage/configuration error before listening: bad --workers or
         --port, unreadable store, or an address that cannot be bound
         (already in use, not local); one ``error:`` line, no traceback
    130  stopped by Ctrl-C, SIGINT or SIGTERM after a graceful shutdown

Imports are scoped to the verbs.  At module level the CLI loads only the
scenario registry, whose built-in metadata is the light
:mod:`repro.experiments.catalogue`, so ``list`` and ``describe`` import no
scenario module and no model stack.  ``run`` and ``sweep`` import the runner,
which loads a scenario's module on its first build; the store loads only with
a store, the process pool (:mod:`repro.experiments.supervise`) only once a
``--jobs N`` sweep's measured work pays for it or for a watchdog, ``check`` the static checker, and ``serve`` the
service.  ``docs/architecture.md`` has the whole table.

Formulas passed with ``-f`` are parsed by :func:`repro.logic.parser.parse`,
which covers the whole language including the temporal-epistemic operators
(``Eeps^0.5_{a,b} p``, ``C<>_{a,b} p``, ``K@3_a p``, ``<> p``, ``nu X. ...``);
note the Kripke-backed scenarios still reject the temporal fragment at
evaluation time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError, SweepFaultError
from repro.experiments.policy import ON_ERROR_MODES
from repro.experiments.registry import (
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    scenario_description,
    scenario_listing,
)

if TYPE_CHECKING:  # pragma: no cover - the runner is imported by run and sweep
    from repro.experiments.runner import ExperimentReport

__all__ = ["main", "build_parser"]


# -- table rendering -----------------------------------------------------------

def _render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width text table (no external dependencies)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append(
            "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def _yes_no(value: Optional[bool]) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def _format_params(params: Mapping[str, object]) -> str:
    return " ".join(f"{name}={value}" for name, value in sorted(params.items()))


# -- argument parsing ----------------------------------------------------------

def _parse_assignment(text: str) -> Tuple[str, str]:
    """Split one ``name=value`` CLI argument."""
    name, separator, value = text.partition("=")
    if not separator or not name:
        raise argparse.ArgumentTypeError(
            f"expected name=value, got {text!r}"
        )
    return name, value


def _decimal_places(text: str) -> int:
    """How many digits ``text`` carries after its decimal point."""
    _, separator, fraction = text.strip().partition(".")
    return len(fraction) if separator else 0


def _parse_grid_values(spec: ScenarioSpec, name: str, text: str) -> List[object]:
    """Expand one grid axis.

    Three spellings are accepted: ``2..6`` (inclusive integer range, step 1),
    ``0..1..0.25`` (inclusive numeric range with an explicit step — the only way
    to sweep float parameters with ``..``), and ``a,b,c`` (explicit value list,
    any parameter type).
    """
    parameter = spec.parameter(name)
    if ".." not in text:
        return [parameter.coerce(part) for part in text.split(",") if part != ""]
    parts = text.split("..")
    if len(parts) == 2:
        low_text, high_text = parts
        try:
            low, high = int(low_text), int(high_text)
        except ValueError:
            raise ReproError(
                f"grid axis {name!r}: {text!r} has non-integer endpoints; use "
                f"{name}=lo..hi..step for a float range (e.g. {name}=0..1..0.25) "
                f"or list the values with commas (e.g. {name}=0.0,0.5,1.0)"
            ) from None
        if high < low:
            raise ReproError(f"grid axis {name!r}: empty range {text!r}")
        return [parameter.coerce(value) for value in range(low, high + 1)]
    if len(parts) == 3:
        try:
            low, high, step = (float(part) for part in parts)
        except ValueError:
            raise ReproError(
                f"grid axis {name!r}: expected numeric lo..hi..step, got {text!r}"
            ) from None
        if step <= 0:
            raise ReproError(f"grid axis {name!r}: step must be positive in {text!r}")
        if high < low:
            raise ReproError(f"grid axis {name!r}: empty range {text!r}")
        # Values are low + i*step (no accumulated drift), rounded back to the
        # decimal precision the user typed so 0..1..0.1 yields 0.3, not
        # 0.30000000000000004; the endpoint is kept when it lands within float
        # tolerance of the grid.
        decimals = max(_decimal_places(part) for part in parts)
        tolerance = 1e-9 * max(1.0, abs(high))
        values: List[object] = []
        index = 0
        value = low
        while value <= high + tolerance:
            value = round(value, decimals)
            # Integral grid values are handed over as ints so integer-typed
            # parameters accept e.g. eps=0..2..1 (coerce rejects true floats).
            values.append(int(value) if float(value).is_integer() else value)
            index += 1
            value = low + index * step
        return [parameter.coerce(v) for v in values]
    raise ReproError(
        f"grid axis {name!r}: expected NAME=lo..hi or NAME=lo..hi..step, got {text!r}"
    )


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--store/--resume/--no-store`` trio of run and sweep."""
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "persistent result store (sqlite file, created on first use); "
            "evaluated reports are recorded in it. Defaults to the "
            "REPRO_STORE environment variable when set."
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "serve requests already recorded in the store instead of "
            "re-evaluating them (needs --store or REPRO_STORE)"
        ),
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="bypass --store/REPRO_STORE entirely and run everything fresh",
    )


def _store_path(args: argparse.Namespace) -> Optional[str]:
    """The result-store path the flags select, or ``None`` for no store.

    ``--no-store`` wins over everything (including ``--resume``): the bypass
    must always be able to run fresh, whatever the environment says.
    """
    if args.no_store:
        return None
    path = args.store or os.environ.get("REPRO_STORE")
    if path is None and args.resume:
        raise ReproError(
            "--resume needs a result store; pass --store PATH or set "
            "the REPRO_STORE environment variable"
        )
    return path


def _open_store(args: argparse.Namespace):
    """The :class:`ResultStore` the flags select, or ``None`` for no store."""
    path = _store_path(args)
    if path is None:
        return None
    from repro.experiments.store import ResultStore

    return ResultStore(path)


def build_parser() -> argparse.ArgumentParser:
    """The :mod:`argparse` command tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run the Halpern-Moses scenarios: list and describe registered "
            "scenarios, evaluate formula batches, sweep parameter grids."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--json", action="store_true", help="emit JSON")

    describe = subparsers.add_parser(
        "describe", help="show a scenario's parameters and default formulas"
    )
    describe.add_argument("scenario", help="registered scenario name")
    describe.add_argument("--json", action="store_true", help="emit JSON")

    check = subparsers.add_parser(
        "check",
        help=(
            "statically check formulas against a scenario's signature "
            "(nothing is built or evaluated)"
        ),
    )
    check.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help=(
            "registered scenario name; omit to check bare -f formulas "
            "(structural checks only) or with --all"
        ),
    )
    check.add_argument(
        "-p",
        "--param",
        metavar="NAME=VALUE",
        action="append",
        default=[],
        type=_parse_assignment,
        help="set a scenario parameter (repeatable; shapes the signature)",
    )
    check.add_argument(
        "-f",
        "--formula",
        metavar="TEXT",
        action="append",
        default=[],
        help=(
            "check this formula text instead of the scenario's default "
            "suite (repeatable)"
        ),
    )
    check.add_argument(
        "--all",
        dest="all_scenarios",
        action="store_true",
        help="check every registered scenario's default formula suite",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="promote warnings to errors: any diagnostic at all exits 1",
    )
    check.add_argument("--json", action="store_true", help="emit JSON")

    run = subparsers.add_parser(
        "run", help="build one scenario instance and evaluate formulas on it"
    )
    run.add_argument("scenario", help="registered scenario name")
    run.add_argument(
        "-p",
        "--param",
        metavar="NAME=VALUE",
        action="append",
        default=[],
        type=_parse_assignment,
        help="set a scenario parameter (repeatable)",
    )
    run.add_argument(
        "-f",
        "--formula",
        metavar="TEXT",
        action="append",
        default=[],
        help="evaluate this formula instead of the scenario defaults (repeatable)",
    )
    run.add_argument(
        "--minimize",
        action="store_true",
        help=(
            "evaluate on the bisimulation quotient of the model (system "
            "scenarios are exported to a Kripke structure over their points "
            "first; static-fragment formulas only)"
        ),
    )
    _add_store_arguments(run)
    run.add_argument("--json", action="store_true", help="emit JSON")

    sweep = subparsers.add_parser(
        "sweep", help="run a scenario over a parameter grid"
    )
    sweep.add_argument("scenario", help="registered scenario name")
    sweep.add_argument(
        "-g",
        "--grid",
        metavar="NAME=SPEC",
        action="append",
        default=[],
        type=_parse_assignment,
        help=(
            "grid axis: NAME=lo..hi (inclusive int range), NAME=lo..hi..step "
            "(numeric range with step, for float parameters) or NAME=v1,v2 "
            "(repeatable)"
        ),
    )
    sweep.add_argument(
        "-p",
        "--param",
        metavar="NAME=VALUE",
        action="append",
        default=[],
        type=_parse_assignment,
        help="fix a non-swept parameter (repeatable)",
    )
    sweep.add_argument(
        "-f",
        "--formula",
        metavar="TEXT",
        action="append",
        default=[],
        help="evaluate this formula instead of the scenario defaults (repeatable)",
    )
    sweep.add_argument(
        "--minimize",
        action="store_true",
        help=(
            "evaluate every grid point on its bisimulation quotient (system "
            "scenarios are exported to Kripke first; static-fragment formulas "
            "only)"
        ),
    )
    sweep.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "allow up to N worker processes (0 = one per CPU; default: run "
            "in-process); the pool starts only once the work measured so "
            "far pays for its start-up. Reports keep the serial sweep's "
            "deterministic grid order either way."
        ),
    )
    sweep.add_argument(
        "--on-error",
        choices=ON_ERROR_MODES,
        default="abort",
        help=(
            "what to do with a grid point that exhausts its retries: 'abort' "
            "the sweep (default, exit code 1) or 'skip' it — the point is "
            "quarantined as a structured error row, every other point still "
            "completes, and the sweep exits 3"
        ),
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-attempt a failed grid point up to N times before giving up "
            "(default: 0, fail on first error)"
        ),
    )
    sweep.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help=(
            "base delay between re-attempts of the same point, doubled per "
            "failure (default: 0.05s)"
        ),
    )
    sweep.add_argument(
        "--timeout-per-point",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "watchdog budget per grid point: a chunk still running past "
            "points x budget has its worker killed and the points re-enter "
            "supervision as timeouts (default: no watchdog)"
        ),
    )
    _add_store_arguments(sweep)
    sweep.add_argument("--json", action="store_true", help="emit JSON")

    store = subparsers.add_parser(
        "store", help="inspect or prune a persistent result store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    stats = store_commands.add_parser(
        "stats", help="row counts, per-scenario slices and provenance of a store"
    )
    stats.add_argument("path", help="the store's sqlite file")
    stats.add_argument("--json", action="store_true", help="emit JSON")
    gc = store_commands.add_parser(
        "gc", help="delete rows from a store and reclaim the space"
    )
    gc.add_argument("path", help="the store's sqlite file")
    gc.add_argument(
        "--scenario", default=None, help="only rows of this scenario"
    )
    gc.add_argument(
        "--stale",
        action="store_true",
        help=(
            "rows recorded under a different semantics version (afterwards "
            "the store opens normally under the current one)"
        ),
    )
    gc.add_argument(
        "--all", dest="all_rows", action="store_true", help="every row"
    )
    gc.add_argument("--json", action="store_true", help="emit JSON")

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the long-lived evaluation service (scenario registry, "
            "runner caches and store stay resident across HTTP requests)"
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="port to bind; 0 picks an ephemeral port (default: 8750)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "persistent result store backing the service (default: the "
            "REPRO_STORE environment variable; no store if unset)"
        ),
    )
    serve.add_argument(
        "--no-store",
        action="store_true",
        help="serve without persistence even if REPRO_STORE is set",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "model-check executor threads (default: the executor's own "
            "cpu-based default)"
        ),
    )
    return parser


# -- subcommand implementations ------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    payload = scenario_listing()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        (
            entry["name"],
            entry["section"],
            ", ".join(entry["parameters"]),
            entry["summary"],
        )
        for entry in payload
    ]
    print(_render_table(("scenario", "paper section", "parameters", "summary"), rows))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    payload = scenario_description(args.scenario)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    spec = get_scenario(args.scenario)
    print(f"{spec.name} — {spec.summary}")
    print(f"reproduces: {spec.section}")
    if spec.details:
        print(f"\n{spec.details}")
    print("\nparameters:")
    for parameter in spec.parameters:
        line = f"  {parameter.describe()}"
        if parameter.description:
            line += f" — {parameter.description}"
        print(line)
    if payload["default_formulas"]:
        print("\ndefault formulas (at default parameters):")
        for label, formula in payload["default_formulas"].items():
            print(f"  {label:24s} {formula}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import (
        Diagnostic,
        has_errors,
        render_diagnostics,
        summarize,
    )
    from repro.logic.check import check_formulas, check_text

    if args.all_scenarios:
        if args.scenario is not None or args.formula or args.param:
            raise ReproError(
                "--all checks every registered scenario's default suite; "
                "it takes no scenario, -p or -f"
            )
        targets = [spec for spec in all_scenarios()]
    elif args.scenario is not None:
        targets = [get_scenario(args.scenario)]
    else:
        if not args.formula:
            raise ReproError(
                "check needs a scenario, -f FORMULA text, or --all"
            )
        if args.param:
            raise ReproError("-p needs a scenario to validate against")
        targets = [None]

    results: List[Tuple[str, List[Diagnostic], int]] = []
    for spec in targets:
        if spec is None:
            name, signature, validated = "", None, None
        else:
            name = spec.name
            if args.all_scenarios and any(p.required for p in spec.parameters):
                # No complete default assignment, so no default suite to lint.
                results.append((name, [], 0))
                continue
            validated = spec.validate_params(dict(args.param))
            signature = spec.signature_for(validated)
        if args.formula:
            checked = len(args.formula)
            diagnostics: List[Diagnostic] = []
            for text in args.formula:
                _formula, found = check_text(text, signature, label=text)
                diagnostics.extend(found)
        else:
            suite = spec.default_formulas(validated)
            checked = len(suite)
            diagnostics = check_formulas(suite, signature)
        results.append((name, diagnostics, checked))

    every: List[Diagnostic] = [d for _, diags, _ in results for d in diags]
    failed = has_errors(every, strict=args.strict)
    if args.json:
        payload = {
            "ok": not failed,
            "strict": args.strict,
            "checked": sum(checked for _, _, checked in results),
            "results": [
                {
                    "scenario": name or None,
                    "checked": checked,
                    "diagnostics": [d.to_dict() for d in diags],
                }
                for name, diags, checked in results
            ],
        }
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0
    for name, diagnostics, checked in results:
        prefix = f"{name}: " if name else ""
        if not diagnostics:
            print(f"{prefix}{checked} formula(s) clean")
            continue
        print(f"{prefix}{checked} formula(s), {summarize(diagnostics)}")
        for line in render_diagnostics(diagnostics):
            print(f"  {line}")
    if failed:
        print(
            "check failed: "
            + summarize(every)
            + (" (warnings promoted by --strict)" if args.strict else "")
        )
    return 1 if failed else 0


def _failure_summary(quarantined: Sequence["ExperimentReport"]) -> Dict[str, object]:
    """The machine-readable failure block of a completed-with-quarantine sweep."""
    return {
        "quarantined": len(quarantined),
        "points": [
            {
                "scenario": report.scenario,
                "params": dict(report.params),
                "backend": report.backend,
                "kind": report.error["kind"],
                "message": report.error["message"],
                "attempts": list(report.error["attempts"]),
            }
            for report in quarantined
        ],
    }


@contextmanager
def _interrupt_deferred():
    """Hold SIGINT while one JSON array element is written out.

    A Ctrl-C landing *inside* an element write would leave a truncated
    element that no amount of closing-bracket care can make well-formed
    again — stdout flushes in blocks, so partial elements really do reach the
    reader.  Blocking the signal for the (microseconds-long) write makes each
    element atomic with respect to interruption: a pending Ctrl-C is
    delivered right after the write, between elements, where the stream can
    be closed cleanly.  No-op off the main thread or where signal masks
    don't exist (Windows).
    """
    if (
        not hasattr(signal, "pthread_sigmask")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _stream_json_reports(
    reports: "Iterable[ExperimentReport]",
) -> List["ExperimentReport"]:
    """Print a JSON array of reports incrementally, one element per report.

    Byte-identical to ``json.dumps([r.to_dict() for r in reports], indent=2)``
    but each element is written (and flushed) as soon as its report is ready,
    so a long — possibly sharded — sweep shows progress instead of buffering
    everything until the end.  If a later grid point fails mid-stream — or the
    sweep is interrupted with Ctrl-C — the array is closed before the
    error propagates, so stdout always carries well-formed JSON (holding the
    grid-order prefix of completed reports) while the failure goes to stderr
    with the documented exit code (1 abort, 130 interrupt).

    A sweep that *completes* with quarantined points gets one trailing
    ``{"failure_summary": ...}`` array element naming every quarantined point
    and its attempt history; clean sweeps emit no trailer, keeping their
    output byte-identical to the unsupervised renderer.  Returns the
    quarantined reports so the caller can pick exit code 3.
    """
    quarantined: List["ExperimentReport"] = []
    first = True
    completed = False
    try:
        for report in reports:
            element = json.dumps(report.to_dict(), indent=2)
            with _interrupt_deferred():
                sys.stdout.write("[\n" if first else ",\n")
                first = False
                sys.stdout.write("  " + element.replace("\n", "\n  "))
                sys.stdout.flush()
            if report.error is not None:
                quarantined.append(report)
        completed = True
    finally:
        with _interrupt_deferred():
            if completed and quarantined:
                summary = json.dumps(
                    {"failure_summary": _failure_summary(quarantined)}, indent=2
                )
                sys.stdout.write("[\n" if first else ",\n")
                first = False
                sys.stdout.write("  " + summary.replace("\n", "\n  "))
            # A sweep always yields at least one report when it completes, but
            # keep the empty rendering well-formed too (json.dumps([]) == "[]").
            print("[]" if first else "\n]")
            sys.stdout.flush()
    return quarantined


def _report_rows(report: "ExperimentReport") -> List[Tuple[object, ...]]:
    return [
        (
            row.label,
            row.formula,
            f"{row.count}/{row.universe}",
            _yes_no(row.valid),
            _yes_no(row.satisfiable),
            _yes_no(row.holds_at_focus),
        )
        for row in report.rows
    ]


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import ExperimentRunner

    # Planned before the store is opened: a rejected request leaves no store
    # file behind.
    spec = get_scenario(args.scenario)
    point = ExperimentRunner.plan_point(
        spec,
        spec.validate_params(dict(args.param)),
        ExperimentRunner.normalise_formulas(args.formula) if args.formula else None,
        args.minimize,
        keyed=_store_path(args) is not None,
    )
    store = _open_store(args)
    try:
        (report,) = ExperimentRunner(store=store, resume=args.resume).execute([point])
    finally:
        if store is not None:
            store.close()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(
        f"scenario: {report.scenario}  params: {_format_params(report.params) or '(defaults)'}"
        f"  backend: {report.backend}"
    )
    print(
        f"model: {report.kind}, {report.universe} "
        f"{'bisimulation classes' if report.minimized else ('worlds' if report.kind == 'kripke' else 'points')}"
        f" (built in {report.build_seconds * 1000:.1f} ms,"
        f" evaluated in {report.eval_seconds * 1000:.1f} ms"
        f"{', served from store' if report.from_store else ''})"
    )
    if report.focus is not None:
        print(f"focus: {report.focus}")
    print()
    print(
        _render_table(
            ("label", "formula", "count", "valid", "sat", "holds@focus"),
            _report_rows(report),
        )
    )
    return 0


def _print_failure_summary(
    quarantined: Sequence["ExperimentReport"], total: int
) -> None:
    """The human-readable failure block under a sweep table (exit code 3)."""
    print()
    print(
        f"failure summary: {len(quarantined)} of {total} grid point(s) quarantined"
    )
    for report in quarantined:
        error = report.error
        print(
            f"  {report.scenario} {_format_params(report.params)} "
            f"[{report.backend}]: {error['kind']}: {error['message']} "
            f"({len(error['attempts'])} attempt(s))"
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.policy import FaultPolicy
    from repro.experiments.runner import ExperimentRunner

    spec = get_scenario(args.scenario)
    if not args.grid:
        raise ReproError("sweep needs at least one -g/--grid axis")
    grid = {name: _parse_grid_values(spec, name, text) for name, text in args.grid}
    # Fault-policy flags are validated up front too: a bad --retries is a
    # usage error (exit 2), not a failed sweep.
    policy = FaultPolicy(
        on_error=args.on_error,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        timeout_per_point=args.timeout_per_point,
    )
    resolve_jobs(args.jobs)  # fail fast: a bad --jobs is a usage error, exit 2

    # The whole grid is planned before the store is opened or anything is
    # printed, so a rejected plan is a usage error (exit 2) that leaves no
    # output and no store file behind.
    points, settled = ExperimentRunner.plan(
        args.scenario,
        grid,
        args.formula or None,
        args.minimize,
        keyed=_store_path(args) is not None,
        policy=policy,
        params=dict(args.param),
    )
    store = _open_store(args)
    try:
        report_stream = ExperimentRunner(store=store, resume=args.resume).execute(
            points, settled, jobs=args.jobs, policy=policy
        )
        try:
            if args.json:
                quarantined = _stream_json_reports(report_stream)
                return 3 if quarantined else 0
            reports = list(report_stream)
        except SweepFaultError:
            raise
        except ReproError as error:
            # Execution has started: a mid-sweep failure is an aborted sweep
            # (exit 1), not a usage error.
            raise SweepFaultError(f"sweep aborted: {error}") from error
        finally:
            report_stream.close()
    finally:
        if store is not None:
            store.close()
    labels: List[str] = []
    for report in reports:
        for row in report.rows:
            if row.label not in labels:
                labels.append(row.label)
    swept = list(grid)
    headers = tuple(swept) + ("backend", "size", "eval ms") + tuple(labels)
    table_rows = []
    quarantined = [report for report in reports if report.error is not None]
    for report in reports:
        by_label = {row.label: row for row in report.rows}
        cells: List[object] = [report.params.get(name, "") for name in swept]
        if report.error is not None:
            cells += [report.backend, "-", "-"] + ["ERR"] * len(labels)
            table_rows.append(tuple(cells))
            continue
        cells += [report.backend, report.universe, f"{report.eval_seconds * 1000:.2f}"]
        for label in labels:
            row = by_label.get(label)
            if row is None:
                cells.append("")
            elif row.holds_at_focus is not None:
                cells.append("T" if row.holds_at_focus else "F")
            else:
                cells.append(f"{row.count}/{row.universe}")
        table_rows.append(tuple(cells))
    print(_render_table(headers, table_rows))
    if quarantined:
        _print_failure_summary(quarantined, len(reports))
        return 3
    return 0


def _open_existing_store(path: str):
    """Open an existing store for inspection (no silent creation, any semantics).

    ``stats``/``gc`` must work on stores a newer build would refuse to serve
    from — pruning stale rows is how such a store becomes servable again — so
    the semantics-version check is skipped here.  Schema and corruption checks
    still apply: there is nothing useful to inspect in an unreadable file.
    """
    from repro.experiments.store import ResultStore

    if not os.path.exists(path):
        raise ReproError(
            f"no result store at {path!r} (stores are created by "
            "'repro run/sweep --store PATH')"
        )
    return ResultStore(path, check_semantics=False)


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "stats":
        with _open_existing_store(args.path) as store:
            stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        meta = stats["meta"]
        print(f"store: {stats['path']} ({stats['file_bytes']} bytes)")
        print(
            f"schema v{meta.get('schema_version', '?')}, semantics "
            f"v{meta.get('semantics_version', '?')}, created "
            f"{meta.get('created_at', '?')}"
            + (f", git {meta['git_sha'][:12]}" if meta.get("git_sha") else "")
        )
        print(f"rows: {stats['rows']} ({stats['stale_rows']} stale)")
        if stats["slices"]:
            print()
            print(
                _render_table(
                    ("scenario", "backend", "minimized", "rows"),
                    [
                        (
                            s["scenario"],
                            s["backend"],
                            _yes_no(s["minimized"]),
                            s["rows"],
                        )
                        for s in stats["slices"]
                    ],
                )
            )
        return 0
    if args.store_command == "gc":
        with _open_existing_store(args.path) as store:
            removed = store.gc(
                scenario=args.scenario,
                stale=args.stale,
                all_rows=args.all_rows,
            )
            remaining = store.stats()["rows"]
        if args.json:
            print(json.dumps({"removed": removed, "remaining": remaining}))
        else:
            print(f"removed {removed} row(s); {remaining} remaining")
        return 0
    raise ReproError(f"unknown store command {args.store_command!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_server

    if args.workers is not None and args.workers < 1:
        raise ReproError(f"--workers must be at least 1, got {args.workers}")
    if not 0 <= args.port <= 65535:
        raise ReproError(f"--port must be in 0..65535, got {args.port}")
    store_path = None if args.no_store else (args.store or os.environ.get("REPRO_STORE"))
    # run_server prints the bound address once listening, blocks until
    # Ctrl-C, shuts down gracefully, and re-raises KeyboardInterrupt so the
    # standard 130 path below applies.
    run_server(
        host=args.host,
        port=args.port,
        store_path=store_path,
        max_workers=args.workers,
    )
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "describe": _cmd_describe,
    "check": _cmd_check,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "store": _cmd_store,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError`) are reported on stderr
    with exit code 2 instead of a traceback — except a sweep that failed
    *mid-run* (:class:`~repro.errors.SweepFaultError`), which exits 1, and a
    Ctrl-C, which exits 130 after committing completed rows; a sweep that
    completed with quarantined points exits 3.  The full contract is in the
    module docstring.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SweepFaultError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Generator/`finally` unwinding has already closed any --json stream,
        # cancelled queued work and committed completed rows by the time the
        # interrupt reaches here; exit like a signal-terminated Unix process.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Piping into e.g. `head` closes stdout early; exit quietly like
        # standard Unix tools (and keep the interpreter's shutdown flush from
        # raising a second time).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
