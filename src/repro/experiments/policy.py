"""The fault policy of a sweep: how a failing grid point degrades.

:class:`FaultPolicy` and the single-point rule :func:`settle_failure` are
shared by both sweep executors: the runner's in-process loop and the
:class:`~repro.experiments.supervise.SweepSupervisor` pool.  They live apart
from the pool so that a serial sweep, and the CLI's argument parser (which
offers :data:`ON_ERROR_MODES`), never import :mod:`multiprocessing`; the
module imports nothing beyond :mod:`repro.errors` until a point is actually
given up on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from repro.errors import ScenarioError, SweepFaultError
from repro.experiments.registry import params_from_key

if TYPE_CHECKING:  # pragma: no cover - imported where a row is built
    from repro.experiments.parallel import RunSpec
    from repro.experiments.runner import ExperimentReport

__all__ = [
    "ON_ERROR_MODES",
    "MAX_BACKOFF_SECONDS",
    "FaultPolicy",
    "attempt_record",
    "describe_failure",
    "quarantine_report",
    "settle_failure",
    "sweep_fault",
]

ON_ERROR_MODES = ("abort", "skip")
"""The ``on_error`` choices: abort the sweep, or quarantine the point and go on."""

MAX_BACKOFF_SECONDS = 30.0
"""Cap on one exponential-backoff sleep, so a generous retry budget cannot
turn into multi-minute stalls between attempts."""

@dataclass(frozen=True)
class FaultPolicy:
    """How a sweep responds to failing grid points (see module docs).

    The default policy — abort on first error, no retries, no watchdog — is
    fail-fast, and :attr:`supervised` is ``False`` for it: both executors then
    re-raise the first failure unchanged, the exception existing callers rely
    on.
    """

    on_error: str = "abort"
    retries: int = 0
    retry_backoff: float = 0.05
    timeout_per_point: Optional[float] = None
    max_pool_restarts: int = 8

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ScenarioError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if (
            not isinstance(self.retries, int)
            or isinstance(self.retries, bool)
            or self.retries < 0
        ):
            raise ScenarioError(f"retries must be an integer >= 0, got {self.retries!r}")
        if self.retry_backoff < 0:
            raise ScenarioError(
                f"retry_backoff must be >= 0 seconds, got {self.retry_backoff!r}"
            )
        if self.timeout_per_point is not None and not self.timeout_per_point > 0:
            raise ScenarioError(
                f"timeout_per_point must be > 0 seconds, got {self.timeout_per_point!r}"
            )
        if self.max_pool_restarts < 0:
            raise ScenarioError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts!r}"
            )

    @property
    def supervised(self) -> bool:
        """Whether failures are supervised (retried, settled) instead of re-raised."""
        return (
            self.on_error != "abort"
            or self.retries > 0
            or self.timeout_per_point is not None
        )

    def backoff_seconds(self, failures: int) -> float:
        """The sleep before re-attempting a point that has failed ``failures`` times."""
        if self.retry_backoff <= 0:
            return 0.0
        return min(self.retry_backoff * (2 ** (failures - 1)), MAX_BACKOFF_SECONDS)


def describe_failure(error: BaseException) -> str:
    """One attempt's failure rendered as ``TypeName: message``."""
    text = str(error)
    name = type(error).__name__
    return f"{name}: {text}" if text else name


def attempt_record(attempt: int, kind: str, detail: str) -> Dict[str, object]:
    """One entry of a point's attempt history.

    ``kind`` is ``"error"`` (the evaluation raised), ``"timeout"`` (the
    watchdog expired) or ``"crash"`` (the worker process died).
    """
    return {"attempt": attempt, "kind": kind, "error": detail}


def quarantine_report(
    scenario: str,
    params: Mapping[str, object],
    minimize: bool,
    attempts: Sequence[Mapping[str, object]],
) -> "ExperimentReport":
    """The structured error row a quarantined grid point becomes.

    Shaped like any other :class:`~repro.experiments.runner.ExperimentReport`
    so it merges, streams and renders through the existing pipeline, but with
    no rows, a zero universe, ``kind="unknown"`` (the model was never built)
    and the ``error`` field carrying the final failure plus the whole attempt
    history.  Its ``backend`` is the process-wide engine default, the backend
    the point would have been evaluated on.
    """
    from repro.engine import get_default_backend
    from repro.experiments.runner import ExperimentReport

    last = attempts[-1]
    return ExperimentReport(
        scenario=scenario,
        params=dict(params),
        backend=get_default_backend(),
        kind="unknown",
        universe=0,
        focus=None,
        build_seconds=0.0,
        eval_seconds=0.0,
        rows=[],
        minimized=bool(minimize),
        error={
            "kind": last["kind"],
            "message": last["error"],
            "attempts": [dict(entry) for entry in attempts],
        },
    )


def sweep_fault(
    scenario: str,
    params: Mapping[str, object],
    attempts: Sequence[Mapping[str, object]],
) -> SweepFaultError:
    """The abort-mode error naming the exact poison point and its history."""
    last = attempts[-1]
    params = dict(sorted(params.items()))
    history = "; ".join(
        f"attempt {entry['attempt']} [{entry['kind']}] {entry['error']}"
        for entry in attempts
    )
    return SweepFaultError(
        f"sweep aborted: grid point {scenario} {params} failed "
        f"after {len(attempts)} attempt(s): {last['error']} (history: {history})",
        scenario=scenario,
        params=params,
        attempts=list(attempts),
    )


def settle_failure(
    policy: FaultPolicy,
    spec: "RunSpec",
    attempts: Sequence[Mapping[str, object]],
) -> Optional["ExperimentReport"]:
    """The fault-policy rule for a single grid point that has just failed.

    ``None`` means the point gets another attempt, after
    ``policy.backoff_seconds(len(attempts))``.  Once the retry budget is
    spent the point is given up on: its quarantine row under
    ``on_error="skip"``, the abort-mode :class:`~repro.errors.SweepFaultError`
    raised otherwise.
    """
    if len(attempts) <= policy.retries:
        return None
    params = params_from_key(spec.params_key)
    if policy.on_error == "skip":
        return quarantine_report(spec.scenario, params, spec.minimize, attempts)
    raise sweep_fault(spec.scenario, params, attempts)
