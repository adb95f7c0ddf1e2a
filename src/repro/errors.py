"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so callers can
catch library-level failures with a single ``except`` clause while still being able to
distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class FormulaError(ReproError):
    """Raised when a formula is malformed or used outside its supported semantics."""


class ParseError(FormulaError):
    """Raised by the formula parser when the input text is not a valid formula."""

    def __init__(self, message: str, position: int = -1, text: str = ""):
        super().__init__(message)
        self.position = position
        self.text = text

    def __str__(self) -> str:  # pragma: no cover - trivial formatting
        base = super().__str__()
        if self.position >= 0:
            return f"{base} (at position {self.position} in {self.text!r})"
        return base


class PositivityError(FormulaError):
    """Raised when a fixpoint variable occurs under an odd number of negations.

    Appendix A's semantics for ``nu X. phi`` / ``mu X. phi`` is only sound when
    every free occurrence of ``X`` in ``phi`` is *positive* (under an even
    number of negations), which makes the induced set transformer monotone.
    Carries ``variable`` (the offending ``Var`` name) so tooling — the static
    checker, the CLI — can report it structurally instead of re-parsing the
    message text.
    """

    def __init__(self, message: str, variable: "str | None" = None):
        super().__init__(message)
        self.variable = variable


class ModelError(ReproError):
    """Raised when a Kripke structure or system is malformed or inconsistent."""


class UnknownWorldError(ModelError):
    """Raised when a world is referenced that does not exist in the structure."""


class UnknownAgentError(ModelError):
    """Raised when an agent is referenced that does not exist in the structure."""


class UnknownPointError(ModelError):
    """Raised when a (run, time) point is referenced outside the system."""


class EvaluationError(ReproError):
    """Raised when a formula cannot be evaluated under the given interpretation.

    The typical cause is using a temporal-epistemic operator (``C^eps``, ``C^<>``,
    ``C^T``) against a plain Kripke structure, which has no notion of runs or time.
    """


class ProtocolError(ReproError):
    """Raised when a protocol violates its contract (e.g. acts before waking up)."""


class SimulationError(ReproError):
    """Raised when the simulator is configured inconsistently."""


class ScenarioError(ReproError):
    """Raised when a scenario is instantiated with invalid parameters."""


class CheckError(ScenarioError):
    """Raised when the static checker rejects a formula batch before a run.

    The pre-flight in :meth:`ExperimentRunner.run` / :meth:`~ExperimentRunner.sweep`
    and the ``repro check`` CLI verb collect :class:`~repro.analysis.diagnostics.Diagnostic`
    records first and raise one ``CheckError`` summarising every error-severity
    finding, so a bad batch is rejected *before* any model is built or a worker
    pool spins up.  ``diagnostics`` holds the full structured list (warnings
    included) for programmatic consumers.
    """

    def __init__(self, message: str, diagnostics: "list | None" = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class StoreError(ReproError):
    """Raised when a persistent result store cannot be opened or trusted.

    Covers corrupt/truncated sqlite files, stores written by an incompatible
    store schema, and stores whose recorded ``semantics_version`` does not
    match this build.  Messages always name the offending path and a remedy
    (delete the file, run ``repro store gc --stale``, or pass ``--no-store``),
    so a stale cache never silently poisons a sweep.
    """


class SweepFaultError(ReproError):
    """Raised when a supervised sweep gives up on a grid point (or the pool).

    Carries the exact failing point — ``scenario`` and ``params`` — and the
    full ``attempts`` history (one record per attempt, each naming the
    failure kind: ``error`` for an exception, ``timeout`` for a tripped
    watchdog, ``crash`` for a worker that died), so an aborted sweep names
    precisely what to fix or quarantine.  Raised by ``--on-error abort`` once
    the retry budget is exhausted, and by either mode when the pool-restart
    budget runs out; the CLI maps it to exit code 1.
    """

    def __init__(
        self,
        message: str,
        scenario: "str | None" = None,
        params: "dict | None" = None,
        attempts: "list | None" = None,
    ):
        super().__init__(message)
        self.scenario = scenario
        self.params = dict(params) if params else {}
        self.attempts = list(attempts or [])


class ChaosError(ReproError):
    """Raised when a ``REPRO_CHAOS`` fault-injection config is malformed.

    The chaos harness is a *test* instrument: a bad config must fail loudly at
    injection time, never silently skip its faults and let a supervision test
    pass vacuously.
    """


class ChaosInjectedError(ChaosError):
    """The exception an injected ``raise`` fault throws inside an evaluation.

    Deliberately a distinct type: supervision code must treat it like any
    other point failure (retry, quarantine, abort), while tests can assert
    that a quarantined point failed for exactly the injected reason.
    """
