"""Communication-property conditions on systems (Section 8 and Appendix B).

The paper's attainability theorems are stated for systems satisfying structural
conditions on their sets of runs:

* **NG1 / NG2** — "communication is not guaranteed" (Section 8); Theorem 5.
* **NG1'** — "unbounded message delivery times" together with NG2 (Section 8);
  Theorem 7.
* **Temporal imprecision** — Appendix B; Theorem 8, via Lemma 14 and Proposition 13.
* **Uncertain start times / bounded-but-uncertain delivery** — Appendix B's
  sufficient conditions for temporal imprecision (Proposition 15).

Because the reproduction works with *finite, explicitly enumerated* systems on a
discrete time grid, these conditions become decidable properties that this module
checks by brute force.  The continuous-time quantifier "there exists delta > 0 such
that for all delta' in [0, delta)" of the temporal-imprecision definition is
reproduced with a grid shift of one tick (``shift=1``), the smallest non-trivial
discrete shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.agents import Agent
from repro.systems.runs import Point, Run
from repro.systems.system import System

__all__ = [
    "ConditionReport",
    "satisfies_ng1",
    "satisfies_ng2",
    "satisfies_unbounded_delivery",
    "communication_not_guaranteed",
    "shifted_run_exists",
    "has_temporal_imprecision",
    "uncertain_start_times",
]


@dataclass
class ConditionReport:
    """The outcome of checking one condition on a system.

    ``holds`` is the verdict; ``counterexamples`` lists (up to ``limit``) witnesses of
    failure, each described by a human-readable string, so test failures and notebook
    output stay interpretable.
    """

    condition: str
    holds: bool
    checked: int = 0
    counterexamples: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def _no_messages_received_at_or_after(run: Run, time: int) -> bool:
    return all(t < time for t in run.receive_times())


def _no_messages_received_in(run: Run, start: int, end: int) -> bool:
    """No messages received in the closed interval ``[start, end]``."""
    return all(not (start <= t <= end) for t in run.receive_times())


def _processor_receives_in_open_interval(run: Run, processor: Agent, start: int, end: int) -> bool:
    """Whether ``processor`` receives a message at some time in the open interval
    ``(start, end)``."""
    from repro.systems.events import ReceiveEvent

    for t in range(start + 1, end):
        if any(isinstance(e, ReceiveEvent) for e in run.events_at(processor, t)):
            return True
    return False


def _others_receive_in_interval(run: Run, excluded: Agent, start: int, end: int) -> bool:
    """Whether some processor other than ``excluded`` receives a message at a time in
    ``[start, end)``."""
    from repro.systems.events import ReceiveEvent

    for processor in run.processors:
        if processor == excluded:
            continue
        for t in range(start, end):
            if any(isinstance(e, ReceiveEvent) for e in run.events_at(processor, t)):
                return True
    return False


def satisfies_ng1(system: System, limit: int = 5) -> ConditionReport:
    """Check condition NG1: for every point ``(r, t)`` there is a run ``r'`` extending
    it, with the same initial configuration and clock readings, in which no messages
    are received at or after ``t``."""
    report = ConditionReport("NG1", holds=True)
    for run in system.runs:
        for time in run.times():
            report.checked += 1
            witness_found = any(
                candidate.extends(Point(run, time))
                and candidate.same_initial_configuration(run)
                and candidate.same_clock_readings(run)
                and _no_messages_received_at_or_after(candidate, time)
                for candidate in system.runs
            )
            if not witness_found:
                report.holds = False
                if len(report.counterexamples) < limit:
                    report.counterexamples.append(
                        f"no silent extension of ({run.name}, {time})"
                    )
    return report


def satisfies_ng2(system: System, limit: int = 5) -> ConditionReport:
    """Check condition NG2.

    For every run ``r``, processor ``p_i`` and pair of times ``t' < t`` such that
    ``p_i`` receives no messages in the open interval ``(t', t)``, there must be a run
    ``r'`` extending ``(r, t')`` with the same initial configuration and clock
    readings, in which ``p_i`` has the same history as in ``r`` up to ``t`` and no
    other processor receives a message in ``[t', t)``.
    """
    report = ConditionReport("NG2", holds=True)
    for run in system.runs:
        for processor in run.processors:
            for t_prime in run.times():
                for t in range(t_prime, run.duration + 1):
                    if _processor_receives_in_open_interval(run, processor, t_prime, t):
                        continue
                    report.checked += 1
                    witness_found = False
                    for candidate in system.runs:
                        if not candidate.extends(Point(run, t_prime)):
                            continue
                        if not candidate.same_initial_configuration(run):
                            continue
                        if not candidate.same_clock_readings(run):
                            continue
                        if candidate.duration < t:
                            continue
                        if any(
                            candidate.history(processor, t2) != run.history(processor, t2)
                            for t2 in range(t_prime, t + 1)
                        ):
                            continue
                        if _others_receive_in_interval(candidate, processor, t_prime, t):
                            continue
                        witness_found = True
                        break
                    if not witness_found:
                        report.holds = False
                        if len(report.counterexamples) < limit:
                            report.counterexamples.append(
                                f"NG2 fails for run {run.name}, processor {processor}, "
                                f"interval ({t_prime}, {t})"
                            )
    return report


def satisfies_unbounded_delivery(system: System, limit: int = 5) -> ConditionReport:
    """Check condition NG1': for every point ``(r, t)`` and every ``u >= t`` there is
    a run extending ``(r, t)`` (same initial configuration, same clock readings) in
    which no messages are received in ``[t, u]``.

    On a finite-horizon system, ``u`` ranges over ``t .. horizon``.
    """
    report = ConditionReport("NG1'", holds=True)
    for run in system.runs:
        for time in run.times():
            for until in range(time, system.horizon + 1):
                report.checked += 1
                witness_found = any(
                    candidate.extends(Point(run, time))
                    and candidate.same_initial_configuration(run)
                    and candidate.same_clock_readings(run)
                    and candidate.duration >= min(until, candidate.duration)
                    and _no_messages_received_in(candidate, time, min(until, candidate.duration))
                    for candidate in system.runs
                )
                if not witness_found:
                    report.holds = False
                    if len(report.counterexamples) < limit:
                        report.counterexamples.append(
                            f"no extension of ({run.name}, {time}) silent through {until}"
                        )
    return report


def communication_not_guaranteed(system: System) -> bool:
    """Whether the system satisfies both NG1 and NG2 (Section 8's definition of
    "communication is not guaranteed")."""
    return bool(satisfies_ng1(system)) and bool(satisfies_ng2(system))


def shifted_run_exists(
    system: System,
    run: Run,
    time: int,
    shifted: Agent,
    fixed: Agent,
    shift: int = 1,
) -> bool:
    """Whether some run ``r'`` shifts ``shifted``'s history by ``shift`` ticks while
    leaving ``fixed``'s history unchanged, up to ``time``.

    This is the discrete analogue of the inner existential of the temporal-imprecision
    definition: ``h(p_i, r, t') = h(p_i, r', t' + shift)`` and
    ``h(p_j, r, t') = h(p_j, r', t')`` for all ``t' < time``.
    """
    for candidate in system.runs:
        if candidate.duration < min(time - 1 + shift, candidate.duration):
            continue
        if time - 1 + shift > candidate.duration:
            continue
        matches = True
        for t_prime in range(time):
            if run.history(shifted, t_prime) != candidate.history(shifted, t_prime + shift):
                matches = False
                break
            if run.history(fixed, t_prime) != candidate.history(fixed, t_prime):
                matches = False
                break
        if matches:
            return True
    return False


def has_temporal_imprecision(system: System, shift: int = 1, limit: int = 5) -> ConditionReport:
    """Check the (discretised) temporal-imprecision condition of Appendix B.

    For every run ``r``, time ``t``, and ordered pair of distinct processors
    ``(p_i, p_j)``, there must be a run ``r'`` in which ``p_i``'s history is delayed by
    ``shift`` ticks and ``p_j``'s history is unchanged, for all times before ``t``.
    Lemma 14 then gives that ``(r, 0)`` is reachable from ``(r, t)`` under the
    complete-history interpretation, and Theorem 8 follows.
    """
    report = ConditionReport("temporal imprecision", holds=True)
    processors = sorted(system.processors, key=repr)
    for run in system.runs:
        for time in run.times():
            for shifted in processors:
                for fixed in processors:
                    if shifted == fixed:
                        continue
                    report.checked += 1
                    if not shifted_run_exists(system, run, time, shifted, fixed, shift):
                        report.holds = False
                        if len(report.counterexamples) < limit:
                            report.counterexamples.append(
                                f"no run shifting {shifted} by {shift} while fixing "
                                f"{fixed} up to time {time} of {run.name}"
                            )
    return report


def uncertain_start_times(system: System, shift: int = 1, limit: int = 5) -> ConditionReport:
    """Check the discrete analogue of "uncertain start times" (Appendix B).

    For every run and every processor that wakes up at time ``>= shift``, there must
    be another run identical except that this processor wakes up ``shift`` ticks
    earlier (other processors' wake times, initial states and events unchanged).
    Processors that wake at time 0 in every run are exempt, mirroring the paper's
    ``delta_0`` bound.
    """
    report = ConditionReport("uncertain start times", holds=True)
    for run in system.runs:
        for processor in run.processors:
            wake = run.wake_time(processor)
            if wake < shift:
                continue
            report.checked += 1
            witness_found = False
            for candidate in system.runs:
                if candidate.wake_time(processor) != wake - shift:
                    continue
                if any(
                    candidate.wake_time(p) != run.wake_time(p)
                    or candidate.initial_state(p) != run.initial_state(p)
                    for p in run.processors
                    if p != processor
                ):
                    continue
                witness_found = True
                break
            if not witness_found:
                report.holds = False
                if len(report.counterexamples) < limit:
                    report.counterexamples.append(
                        f"no run where {processor} wakes {shift} earlier than in {run.name}"
                    )
    return report
