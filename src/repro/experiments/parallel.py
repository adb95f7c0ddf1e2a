"""What a sweep's grid point is when it crosses the process pool.

:meth:`~repro.experiments.runner.ExperimentRunner.plan` turns a grid into
ordered points, and :meth:`~repro.experiments.runner.ExperimentRunner.execute`
partitions them against the result store and hands the misses to one
executor; with ``jobs > 1`` (see :func:`resolve_jobs`) or a
watchdog that is the :class:`~repro.experiments.supervise.SweepSupervisor`
pool.  Only a :class:`RunSpec` crosses the boundary — scenario *name*,
validated parameters flattened through
:func:`~repro.experiments.registry.params_to_key`, the normalised
``(label, Formula)`` batch (formulas pickle structurally) and the
``minimize`` flag — and only plain
:class:`~repro.experiments.runner.ExperimentReport` rows come back.  Models,
evaluators and their caches never leave the process that built them, the
parent has already validated and pre-flighted every spec, and workers never
open the result store: the parent is its single writer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.logic.syntax import Formula

__all__ = [
    "RunSpec",
    "available_cpus",
    "resolve_jobs",
]


@dataclass(frozen=True)
class RunSpec:
    """One planned grid point, in the picklable shape shipped to workers.

    ``params_key`` is the canonical tuple form of the *validated* parameter
    assignment (:func:`~repro.experiments.registry.params_to_key`);
    ``formulas`` is the normalised ``(label, Formula)`` batch, or ``None`` to
    use the scenario's default formula set (computed per grid point where the
    point is evaluated).  The engine backend is not part of it: workers
    inherit the parent's process-wide default when the pool starts.
    """

    scenario: str
    params_key: Tuple[Tuple[str, object], ...]
    formulas: Optional[Tuple[Tuple[str, Formula], ...]]
    minimize: bool = False


def available_cpus() -> int:
    """How many CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; ``os.sched_getaffinity(0)`` (Linux)
    reports the scheduling mask, which is what matters inside cgroup-limited
    CI containers and under ``taskset`` — spawning one worker per *machine*
    CPU there just makes the permitted cores thrash.  Falls back to
    ``os.cpu_count()`` where affinity is not a concept (macOS, Windows).
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - affinity query refused
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Turn the user-facing ``jobs`` value into a concrete worker count.

    ``None`` and ``1`` mean serial execution (returns 1), ``0`` means one
    worker per available CPU (:func:`available_cpus` — affinity-aware, so a
    cgroup-limited container gets its quota, not the whole machine), and any
    other positive integer is taken literally.  Negative values raise
    :class:`~repro.errors.ScenarioError`.
    """
    if jobs is None:
        return 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ScenarioError(f"jobs must be an integer >= 0, got {jobs!r}")
    if jobs < 0:
        raise ScenarioError(f"jobs must be >= 0 (0 = one worker per CPU), got {jobs}")
    if jobs == 0:
        return available_cpus()
    return jobs
