"""Scenario registry and batch experiment running (the shared on-ramp).

The paper's worked examples live as hand-written modules in
:mod:`repro.scenarios`; this package turns them into *data*:

* :mod:`repro.experiments.registry` — the ``@register_scenario`` decorator,
  typed :class:`~repro.experiments.registry.Parameter` schemas, and lookup
  helpers.
* :mod:`repro.experiments.catalogue` — the built-in scenarios' metadata, with
  their builders and factories named as ``module:attribute`` and imported on
  first use.
* :mod:`repro.experiments.runner` — the
  :class:`~repro.experiments.runner.ExperimentRunner`, which builds scenarios
  from parameter assignments (cached by parameter key under a bounded LRU),
  evaluates formula batches through the shared engine's ``extensions()`` memo,
  and runs every sweep through one pipeline: plan the grid into pre-flighted
  points, partition them against the store, execute the misses in process
  or on the supervised pool, merge in grid order.
* :mod:`repro.experiments.parallel` — the picklable
  :class:`~repro.experiments.parallel.RunSpec` a planned point travels as,
  and the ``jobs`` helpers (``sweep(jobs=N)`` / ``repro sweep --jobs N``).
* :mod:`repro.experiments.store` — the persistent content-addressed
  :class:`~repro.experiments.store.ResultStore` (sqlite, WAL): completed rows
  are recorded under their canonical request key and served back on repeat
  requests (``repro sweep --store PATH --resume``), serially and under
  ``--jobs N``.
* :mod:`repro.experiments.policy` — the
  :class:`~repro.experiments.policy.FaultPolicy` both sweep executors apply.
* :mod:`repro.experiments.supervise` — the only process pool: the
  :class:`~repro.experiments.supervise.SweepSupervisor` runs a sweep's misses
  on worker processes under a
  :class:`~repro.experiments.supervise.FaultPolicy` — fail fast by default;
  otherwise retries with backoff, per-point watchdog timeouts, bounded pool
  restarts, and bisection of failing chunks down to the poison point, which
  is quarantined or aborts the sweep.
* :mod:`repro.experiments.chaos` — the deterministic fault-injection harness
  (``REPRO_CHAOS``) that makes the supervision layer testable byte-for-byte.

The ``python -m repro`` CLI (:mod:`repro.cli`) and the sweep benchmarks are thin
clients of this package.  The names below are re-exported lazily (PEP 562):
importing the package imports none of its modules, and each name imports its
own module on first access, so ``repro list`` never loads the runner, the
store (:mod:`sqlite3`) or the pool (:mod:`multiprocessing`).
"""

import importlib

_EXPORTS = {
    "KIND_KRIPKE": "registry",
    "KIND_SYSTEM": "registry",
    "BuiltScenario": "registry",
    "Parameter": "registry",
    "ScenarioSpec": "registry",
    "all_scenarios": "registry",
    "get_scenario": "registry",
    "load_builtin_scenarios": "registry",
    "params_from_key": "registry",
    "params_to_key": "registry",
    "register_scenario": "registry",
    "scenario_names": "registry",
    "unregister_scenario": "registry",
    "ChaosConfig": "chaos",
    "ChaosFault": "chaos",
    "maybe_inject": "chaos",
    "RunSpec": "parallel",
    "available_cpus": "parallel",
    "resolve_jobs": "parallel",
    "DEFAULT_MAX_CACHED_INSTANCES": "runner",
    "ExperimentReport": "runner",
    "ExperimentRunner": "runner",
    "FormulaOutcome": "runner",
    "ScenarioInstance": "runner",
    "ON_ERROR_MODES": "policy",
    "FaultPolicy": "policy",
    "SweepSupervisor": "supervise",
    "SCHEMA_VERSION": "store",
    "SEMANTICS_VERSION": "store",
    "ResultStore": "store",
    "StoreKey": "store",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
