"""Hardware clocks.

Section 5: "The processors are state machines that possibly have clocks, where a clock
is a monotone nondecreasing function of real time.  If a processor has a clock, then
we assume that its clock reading is part of its state."

A clock in this library is represented explicitly as a tuple of readings, one per
discrete real-time step of the run (index ``t`` holds ``tau(p, r, t)``).  Explicit
tuples keep runs hashable and make "same clock readings" comparisons (used throughout
Section 8 and Appendix B) trivial.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ModelError

__all__ = [
    "Clock",
    "perfect_clock",
    "offset_clock",
    "scaled_clock",
    "validate_clock",
    "clocks_within",
]

Clock = Optional[Tuple[float, ...]]
"""A clock is either ``None`` (the processor has no clock) or a tuple of readings,
monotone nondecreasing in the index (real time)."""


def perfect_clock(duration: int) -> Tuple[float, ...]:
    """A clock that always reads exactly real time, for ``duration + 1`` time steps."""
    if duration < 0:
        raise ModelError("duration must be non-negative")
    return tuple(float(t) for t in range(duration + 1))


def offset_clock(duration: int, offset: float) -> Tuple[float, ...]:
    """A clock that runs at the correct rate but is shifted by ``offset``."""
    if duration < 0:
        raise ModelError("duration must be non-negative")
    return tuple(float(t) + offset for t in range(duration + 1))


def scaled_clock(duration: int, rate: float, offset: float = 0.0) -> Tuple[float, ...]:
    """A drifting clock: reads ``rate * t + offset`` at real time ``t``.

    ``rate`` must be non-negative so the clock stays monotone nondecreasing.
    """
    if duration < 0:
        raise ModelError("duration must be non-negative")
    if rate < 0:
        raise ModelError("a clock's rate must be non-negative")
    return tuple(rate * t + offset for t in range(duration + 1))


def validate_clock(clock: Clock, duration: int) -> None:
    """Check that ``clock`` is well formed for a run of the given duration.

    Raises :class:`~repro.errors.ModelError` if the clock is too short or not monotone
    nondecreasing.
    """
    if clock is None:
        return
    if len(clock) < duration + 1:
        raise ModelError(
            f"clock has {len(clock)} readings but the run lasts {duration + 1} steps"
        )
    for earlier, later in zip(clock, clock[1:]):
        if later < earlier:
            raise ModelError("clock readings must be monotone nondecreasing")


def clocks_within(clock_a: Clock, clock_b: Clock, bound: float) -> bool:
    """Whether two clocks never differ by more than ``bound`` at any common time.

    Used to state the hypothesis of Theorem 12(b): "all clocks are within eps time
    units of each other".  Processors without clocks are treated as never violating
    the bound (the statement is about clock readings only).
    """
    if clock_a is None or clock_b is None:
        return True
    return all(abs(a - b) <= bound for a, b in zip(clock_a, clock_b))
