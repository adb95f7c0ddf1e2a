"""Deterministic, env-keyed fault injection for supervision testing.

Halpern–Moses studies protocols under an adversary that may drop any message;
this module is the same adversary aimed at our own execution layer.  A JSON
config in the ``REPRO_CHAOS`` environment variable injects faults into
evaluation at exact, content-addressed grid points — in this process and in
every pool worker (workers inherit the environment) — so the supervision layer
(:mod:`repro.experiments.supervise`) is testable byte-for-byte in CI: the same
config against the same grid always faults the same points in the same way.

Config shape::

    {
      "state_dir": "/tmp/chaos-state",          # required for finite failures
      "faults": [
        {"kind": "raise",   "scenario": "muddy_children", "params": {"n": 4}},
        {"kind": "sigkill", "params": {"n": 5}, "failures": 1},
        {"kind": "hang",    "params": {"n": 6}, "hang_seconds": 60.0}
      ]
    }

Each fault matches a grid point by ``scenario`` (omitted = any) and a
``params`` *subset* (every listed name must equal the point's validated
value).  Kinds:

* ``raise`` — throw :class:`~repro.errors.ChaosInjectedError` (the poison
  point);
* ``sigkill`` — ``SIGKILL`` the current process mid-evaluation (an OOM-killed
  worker; breaks the whole pool);
* ``hang`` — sleep ``hang_seconds`` (default 3600) before continuing (a hung
  worker; only a watchdog timeout gets the point back).

``failures`` bounds how many *attempts* fault before the point heals —
``"failures": 1`` is the transient-then-succeed shape that must recover under
``--retries``.  Attempt counting is cross-process (supervised retries may land
in freshly respawned workers), so finite ``failures`` requires ``state_dir``:
each attempt atomically claims ``<digest>.<n>`` in it, where the digest is the
sha256 content address of the (scenario, params, fault index) tuple —
the same derived-from-the-spec determinism the result store's keys use.
Omitted ``failures`` means the fault always fires.

The hook is a single call, :func:`maybe_inject`, placed in
:meth:`~repro.experiments.runner.ExperimentRunner.run` after the store lookup
and before the model build: store-served rows are never faulted (there is
nothing to fault — no evaluation happens), every evaluated point is.  With
``REPRO_CHAOS`` unset the runner does not import this module at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ChaosError, ChaosInjectedError

__all__ = ["ENV_VAR", "FAULT_KINDS", "ChaosFault", "ChaosConfig", "maybe_inject"]

ENV_VAR = "REPRO_CHAOS"
"""The environment variable the injection config is read from (JSON text)."""

FAULT_KINDS = ("raise", "sigkill", "hang")

DEFAULT_HANG_SECONDS = 3600.0
"""How long a ``hang`` fault sleeps when the config does not say.

Long enough that any sane watchdog trips first, short enough that an
*unsupervised* run eventually finishes instead of wedging forever.
"""


@dataclass(frozen=True)
class ChaosFault:
    """One injected fault: where it fires, what it does, when it heals."""

    kind: str
    scenario: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()
    failures: Optional[int] = None
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def matches(self, scenario: str, params: Mapping[str, object]) -> bool:
        """Whether this fault targets the given (validated) grid point."""
        if self.scenario is not None and self.scenario != scenario:
            return False
        sentinel = object()
        return all(params.get(name, sentinel) == value for name, value in self.params)


@dataclass(frozen=True)
class ChaosConfig:
    """The parsed ``REPRO_CHAOS`` payload."""

    faults: Tuple[ChaosFault, ...]
    state_dir: Optional[str] = None


def _parse_fault(index: int, entry: object) -> ChaosFault:
    if not isinstance(entry, dict):
        raise ChaosError(
            f"{ENV_VAR} fault #{index} must be an object, got {type(entry).__name__}"
        )
    unknown = set(entry) - {"kind", "scenario", "params", "failures", "hang_seconds"}
    if unknown:
        raise ChaosError(
            f"{ENV_VAR} fault #{index} has unknown field(s): {sorted(unknown)}"
        )
    kind = entry.get("kind")
    if kind not in FAULT_KINDS:
        raise ChaosError(
            f"{ENV_VAR} fault #{index}: kind must be one of {FAULT_KINDS}, "
            f"got {kind!r}"
        )
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ChaosError(f"{ENV_VAR} fault #{index}: params must be an object")
    failures = entry.get("failures")
    if failures is not None and (not isinstance(failures, int) or failures < 1):
        raise ChaosError(
            f"{ENV_VAR} fault #{index}: failures must be a positive integer "
            f"(omit it for a permanent fault), got {failures!r}"
        )
    hang_seconds = entry.get("hang_seconds", DEFAULT_HANG_SECONDS)
    if not isinstance(hang_seconds, (int, float)) or hang_seconds <= 0:
        raise ChaosError(
            f"{ENV_VAR} fault #{index}: hang_seconds must be a positive number"
        )
    return ChaosFault(
        kind=kind,
        scenario=entry.get("scenario"),
        params=tuple(sorted(params.items())),
        failures=failures,
        hang_seconds=float(hang_seconds),
    )


def parse_config(raw: str) -> ChaosConfig:
    """Parse (and validate) a ``REPRO_CHAOS`` JSON payload."""
    try:
        payload = json.loads(raw)
    except ValueError as error:
        raise ChaosError(f"{ENV_VAR} is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "faults" not in payload:
        raise ChaosError(
            f"{ENV_VAR} must be an object with a 'faults' list, got {raw!r}"
        )
    unknown = set(payload) - {"faults", "state_dir"}
    if unknown:
        raise ChaosError(f"{ENV_VAR} has unknown field(s): {sorted(unknown)}")
    faults_entry = payload["faults"]
    if not isinstance(faults_entry, list):
        raise ChaosError(f"{ENV_VAR} 'faults' must be a list")
    faults = tuple(_parse_fault(i, entry) for i, entry in enumerate(faults_entry))
    state_dir = payload.get("state_dir")
    if state_dir is not None and not isinstance(state_dir, str):
        raise ChaosError(f"{ENV_VAR} state_dir must be a path string")
    if state_dir is None and any(f.failures is not None for f in faults):
        raise ChaosError(
            f"{ENV_VAR}: finite 'failures' counts need a 'state_dir' to count "
            "attempts across processes (supervised retries respawn workers)"
        )
    return ChaosConfig(faults=faults, state_dir=state_dir)


# The parsed config, cached against the exact env string that produced it —
# tests rewrite REPRO_CHAOS between cases, and workers parse exactly once.
_CACHE: Tuple[Optional[str], Optional[ChaosConfig]] = (None, None)


def _config() -> Optional[ChaosConfig]:
    global _CACHE
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _CACHE[0] != raw:
        _CACHE = (raw, parse_config(raw))
    return _CACHE[1]


def _point_digest(scenario: str, params: Mapping[str, object], fault_index: int) -> str:
    canonical = json.dumps(
        [scenario, sorted((str(k), repr(v)) for k, v in params.items()), fault_index],
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _claim_attempt(state_dir: str, digest: str) -> int:
    """Atomically claim the next attempt number for ``digest`` (cross-process)."""
    if not os.path.isdir(state_dir):
        raise ChaosError(
            f"{ENV_VAR} state_dir {state_dir!r} does not exist; create it "
            "before injecting counted faults"
        )
    attempt = 0
    while True:
        try:
            fd = os.open(
                os.path.join(state_dir, f"{digest}.{attempt}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            attempt += 1
            continue
        os.close(fd)
        return attempt


def _fire(fault: ChaosFault, scenario: str, params: Mapping[str, object]) -> None:
    where = f"{scenario} {dict(sorted(params.items()))}"
    if fault.kind == "raise":
        raise ChaosInjectedError(f"chaos: injected failure at {where}")
    if fault.kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
        # Unreachable on POSIX; SIGKILL cannot be caught or delayed.
        raise ChaosInjectedError(f"chaos: sigkill did not terminate at {where}")
    # "hang": sleep, then let the evaluation proceed — under a watchdog the
    # worker is killed long before the sleep ends; without one the point is
    # merely (very) slow, so an unsupervised run still terminates.
    time.sleep(fault.hang_seconds)


def maybe_inject(scenario: str, params: Mapping[str, object]) -> None:
    """Fire any configured fault matching this evaluation; no-op when unset.

    Called once per *evaluation attempt* of a grid point (never for
    store-served rows).
    """
    config = _config()
    if config is None:
        return
    for index, fault in enumerate(config.faults):
        if not fault.matches(scenario, params):
            continue
        if fault.failures is not None:
            attempt = _claim_attempt(
                config.state_dir, _point_digest(scenario, params, index)
            )
            if attempt >= fault.failures:
                continue  # healed: the fault already fired its quota
        _fire(fault, scenario, params)
