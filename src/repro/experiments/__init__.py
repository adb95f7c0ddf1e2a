"""Scenario registry and batch experiment running (the shared on-ramp).

The paper's worked examples live as hand-written modules in
:mod:`repro.scenarios`; this package turns them into *data*:

* :mod:`repro.experiments.registry` — the ``@register_scenario`` decorator,
  typed :class:`~repro.experiments.registry.Parameter` schemas, and lookup
  helpers.  Every scenario module registers itself on import.
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
clients of this package.
"""

from repro.experiments.chaos import ChaosConfig, ChaosFault, maybe_inject
from repro.experiments.parallel import RunSpec, available_cpus, resolve_jobs
from repro.experiments.registry import (
    KIND_KRIPKE,
    KIND_SYSTEM,
    BuiltScenario,
    Parameter,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    load_builtin_scenarios,
    params_from_key,
    params_to_key,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.experiments.runner import (
    DEFAULT_MAX_CACHED_INSTANCES,
    ExperimentReport,
    ExperimentRunner,
    FormulaOutcome,
    ScenarioInstance,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    SEMANTICS_VERSION,
    ResultStore,
    StoreKey,
)
from repro.experiments.supervise import (
    ON_ERROR_MODES,
    FaultPolicy,
    SweepSupervisor,
)

__all__ = [
    "KIND_KRIPKE",
    "KIND_SYSTEM",
    "BuiltScenario",
    "ChaosConfig",
    "ChaosFault",
    "Parameter",
    "RunSpec",
    "ScenarioSpec",
    "all_scenarios",
    "available_cpus",
    "get_scenario",
    "load_builtin_scenarios",
    "maybe_inject",
    "params_from_key",
    "params_to_key",
    "register_scenario",
    "resolve_jobs",
    "scenario_names",
    "unregister_scenario",
    "DEFAULT_MAX_CACHED_INSTANCES",
    "ExperimentReport",
    "ExperimentRunner",
    "FormulaOutcome",
    "ScenarioInstance",
    "ON_ERROR_MODES",
    "FaultPolicy",
    "SweepSupervisor",
    "SCHEMA_VERSION",
    "SEMANTICS_VERSION",
    "ResultStore",
    "StoreKey",
]
