"""Scenario library (the Scenarios layer of ``docs/architecture.md``): the paper's
worked examples.

Each module builds the relevant model (a Kripke structure or a system of runs) through
the public API of :mod:`repro.kripke`, :mod:`repro.systems` and
:mod:`repro.simulation`, and exposes the quantities the paper reasons about so the
experiments in ``benchmarks/`` and the examples in ``examples/`` stay short.

The scenario registry knows every module from its entry in
:mod:`repro.experiments.catalogue` — name, paper section, typed parameter
schema, and the builder, default formula set and signature named as
``module:attribute`` — so a module is imported only when its scenario is first
built or its formulas are first asked for.  The names below are loaded the
same way (PEP 562): importing this package, or one of its modules, imports no
other scenario module.
"""

import importlib

_SUBMODULES = (
    "broadcast",
    "byzantine",
    "cheating_husbands",
    "commit",
    "coordinated_attack",
    "fuzzed",
    "gossip",
    "muddy_children",
    "ok_protocol",
    "phases",
    "r2d2",
    "sequence_transmission",
)

_EXPORTS = {
    "CheatingHusbands": "repro.scenarios.cheating_husbands",
    "run_cheating_husbands": "repro.scenarios.cheating_husbands",
    "MuddyChildren": "repro.scenarios.muddy_children",
    "MuddyChildrenResult": "repro.scenarios.muddy_children",
    "RoundOutcome": "repro.scenarios.muddy_children",
    "run_muddy_children": "repro.scenarios.muddy_children",
}

__all__ = list(_SUBMODULES) + list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
