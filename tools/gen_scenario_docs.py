#!/usr/bin/env python
"""Generate ``docs/scenarios.md`` from the scenario registry.

The page is derived data: every registered scenario contributes its summary, the
paper section it reproduces, its parameter schema, and its default formula set
(rendered at the default parameters).  The built-ins' metadata is in
``src/repro/experiments/catalogue.py``; regenerate after editing an entry (or a
formula factory)::

    PYTHONPATH=src python tools/gen_scenario_docs.py

``--check`` verifies the committed page is up to date without writing (used by
the tooling tests), exiting 1 on drift.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.registry import all_scenarios

HEADER = """\
# Scenario catalogue

<!-- Generated by tools/gen_scenario_docs.py — do not edit by hand.
     Regenerate with: PYTHONPATH=src python tools/gen_scenario_docs.py -->

Every scenario below is registered with `repro.experiments` and reachable from
the shell: `python -m repro run <name>` evaluates its default formula set,
`python -m repro describe <name>` prints the same schema as this page.
"""


def _parameter_row(parameter) -> str:
    default = "required" if parameter.required else f"`{parameter.default!r}`"
    constraints = []
    if parameter.minimum is not None:
        constraints.append(f">= {parameter.minimum}")
    if parameter.maximum is not None:
        constraints.append(f"<= {parameter.maximum}")
    if parameter.choices is not None:
        constraints.append(" / ".join(f"`{choice}`" for choice in parameter.choices))
    return (
        f"| `{parameter.name}` | {parameter.type.__name__} | {default} "
        f"| {', '.join(constraints) or '—'} | {parameter.description or '—'} |"
    )


def _signature_line(spec) -> str:
    """One-line static signature at default parameters (what `repro check` sees)."""
    if any(p.required for p in spec.parameters):
        return ""
    signature = spec.signature_for(None)
    if signature is None:
        return ""
    parts = [
        f"agents {signature.describe_agents()}",
        "Kripke structure" if signature.kind == "kripke" else "system of runs",
    ]
    if signature.horizon is not None:
        parts.append(f"horizon {signature.horizon}")
    if signature.custom_clocks:
        parts.append("custom clocks")
    if signature.universe_size is not None:
        parts.append(f"{signature.universe_size} worlds")
    return f"*Signature (at defaults):* {' · '.join(parts)}.\n"


def render() -> str:
    """The full markdown page for the current registry contents."""
    parts = [HEADER]
    for spec in all_scenarios():
        parts.append(f"\n## `{spec.name}`\n")
        parts.append(f"{spec.summary}\n")
        parts.append(f"*Reproduces:* {spec.section}.\n")
        signature_line = _signature_line(spec)
        if signature_line:
            parts.append(signature_line)
        if spec.details:
            parts.append(f"{spec.details}\n")
        parts.append("| parameter | type | default | constraints | description |")
        parts.append("|---|---|---|---|---|")
        for parameter in spec.parameters:
            parts.append(_parameter_row(parameter))
        if not any(p.required for p in spec.parameters):
            formulas = spec.default_formulas()
            if formulas:
                parts.append("\nDefault formulas (at default parameters):\n")
                parts.append("| label | formula |")
                parts.append("|---|---|")
                for label, formula in formulas.items():
                    parts.append(f"| `{label}` | `{formula}` |")
        parts.append("")
    return "\n".join(parts)


def main(argv=None) -> int:
    """CLI entry point: write the page, or verify it with ``--check``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/scenarios.md is stale instead of rewriting it",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parents[1] / "docs" / "scenarios.md"),
        help="where to write the page (default: docs/scenarios.md)",
    )
    args = parser.parse_args(argv)
    output = Path(args.output)
    content = render()
    if args.check:
        if not output.exists() or output.read_text(encoding="utf-8") != content:
            print(
                f"{output} is stale; regenerate with "
                "PYTHONPATH=src python tools/gen_scenario_docs.py"
            )
            return 1
        print(f"{output} is up to date")
        return 0
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(content, encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
