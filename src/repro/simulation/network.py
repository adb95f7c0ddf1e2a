"""Message-delivery models.

The environment's contribution to a run is *when* (and whether) each sent message is
delivered.  A :class:`DeliveryModel` enumerates, for each message sent at a given
time, the set of possible outcomes — each outcome is a delivery time, or ``None`` for
"never delivered within the horizon".  The simulator branches over these outcomes to
enumerate every run the environment admits, which is what makes the impossibility
checks exhaustive rather than sampled.

The provided models correspond to the communication assumptions the paper discusses:

* :class:`ReliableSynchronous` — delivery after a fixed, known delay; common knowledge
  of a sent message is attainable (Section 8's "exactly epsilon" discussion).
* :class:`BoundedUncertain` — delivery within ``[min_delay, max_delay]``; the R2–D2
  situation; gives rise to temporal imprecision and epsilon-common knowledge.
* :class:`Unreliable` — messages may be lost; conditions NG1/NG2 hold (coordinated
  attack, Theorem 5).
* :class:`Asynchronous` — delivery is guaranteed but may take arbitrarily long
  (within the horizon, plus the "not yet delivered" outcome); condition NG1' holds
  (Theorem 7 and Theorem 11).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.systems.events import Message

__all__ = [
    "DeliveryModel",
    "ReliableSynchronous",
    "BoundedUncertain",
    "Unreliable",
    "Asynchronous",
    "AdversarialDrops",
    "DropRule",
]

DropRule = Callable[[Message, int], bool]
"""An adversary's drop schedule: ``rule(message, send_time)`` returns ``True``
when the adversary removes the message from the network.  Rules must be
deterministic functions of their arguments (``message.uid`` numbers messages in
global send order, so "drop the first k messages" is ``lambda m, t: m.uid < k``)
so run enumeration stays reproducible."""


class DeliveryModel:
    """Enumerates the possible delivery outcomes of each sent message."""

    name = "delivery"

    def outcomes(
        self, message: Message, send_time: int, horizon: int
    ) -> Tuple[Optional[int], ...]:
        """The possible delivery times of ``message`` sent at ``send_time``.

        Each outcome is an absolute time in ``send_time .. horizon``, or ``None``
        meaning the message is not delivered by the horizon (lost, or still in
        flight).  The tuple must be non-empty and deterministic so run enumeration is
        reproducible.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReliableSynchronous(DeliveryModel):
    """Every message is delivered exactly ``delay`` time units after it is sent.

    Messages whose delivery time would fall beyond the horizon are reported as
    undelivered (``None``) — the run simply ends before they arrive.
    """

    name = "reliable-synchronous"

    def __init__(self, delay: int = 1):
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        self.delay = delay

    def outcomes(
        self, message: Message, send_time: int, horizon: int
    ) -> Tuple[Optional[int], ...]:
        arrival = send_time + self.delay
        return (arrival,) if arrival <= horizon else (None,)


class BoundedUncertain(DeliveryModel):
    """Delivery takes between ``min_delay`` and ``max_delay`` time units (inclusive).

    This is the "bounded but uncertain message delivery times" assumption of
    Appendix B, and the source of the R2–D2 example's epsilon of uncertainty.
    """

    name = "bounded-uncertain"

    def __init__(self, min_delay: int = 0, max_delay: int = 1):
        if min_delay < 0 or max_delay < min_delay:
            raise SimulationError("need 0 <= min_delay <= max_delay")
        self.min_delay = min_delay
        self.max_delay = max_delay

    def outcomes(
        self, message: Message, send_time: int, horizon: int
    ) -> Tuple[Optional[int], ...]:
        arrivals = tuple(
            send_time + delay
            for delay in range(self.min_delay, self.max_delay + 1)
            if send_time + delay <= horizon
        )
        return arrivals if arrivals else (None,)


class Unreliable(DeliveryModel):
    """Messages may be delivered after ``delay`` time units or lost entirely.

    With ``delay_range`` the delivery time additionally varies; loss is always a
    possible outcome, which is what makes conditions NG1 and NG2 hold for the
    generated system.
    """

    name = "unreliable"

    def __init__(self, delay: int = 1, delay_range: Optional[Sequence[int]] = None):
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        self.delays: Tuple[int, ...] = (
            tuple(delay_range) if delay_range is not None else (delay,)
        )
        if any(d < 0 for d in self.delays):
            raise SimulationError("delays must be non-negative")

    def outcomes(
        self, message: Message, send_time: int, horizon: int
    ) -> Tuple[Optional[int], ...]:
        arrivals: Tuple[Optional[int], ...] = tuple(
            send_time + d for d in self.delays if send_time + d <= horizon
        )
        return arrivals + (None,)


class Asynchronous(DeliveryModel):
    """Delivery is guaranteed eventually but can take arbitrarily long.

    Within a finite horizon this means: delivered at any time from ``send_time +
    min_delay`` through the horizon, or not yet delivered by the horizon (``None``).
    The ``None`` outcome represents the unbounded tail and is what makes condition
    NG1' hold for the generated system.
    """

    name = "asynchronous"

    def __init__(self, min_delay: int = 1):
        if min_delay < 0:
            raise SimulationError("min_delay must be non-negative")
        self.min_delay = min_delay

    def outcomes(
        self, message: Message, send_time: int, horizon: int
    ) -> Tuple[Optional[int], ...]:
        arrivals: Tuple[Optional[int], ...] = tuple(
            range(send_time + self.min_delay, horizon + 1)
        )
        return arrivals + (None,)


class AdversarialDrops(DeliveryModel):
    """An adversary layered over a base delivery model.

    Messages the drop rule selects are removed from the network deterministically
    — their only outcome is loss, with no branching — while every other message
    keeps the base model's outcome set.  This expresses "the messenger is
    captured on the first trip" or "the faulty sender's messages to ``B`` never
    arrive" without writing a new delivery model: the base model supplies the
    timing assumptions, the rule supplies the adversary.
    """

    name = "adversarial"

    def __init__(self, base: DeliveryModel, drop: DropRule):
        if not isinstance(base, DeliveryModel):
            raise SimulationError(
                f"AdversarialDrops needs a DeliveryModel base, got {base!r}"
            )
        if not callable(drop):
            raise SimulationError(
                f"AdversarialDrops needs a callable drop rule, got {drop!r}"
            )
        self.base = base
        self.drop = drop

    def outcomes(
        self, message: Message, send_time: int, horizon: int
    ) -> Tuple[Optional[int], ...]:
        if self.drop(message, send_time):
            return (None,)
        return self.base.outcomes(message, send_time, horizon)

    def __repr__(self) -> str:
        return f"AdversarialDrops({self.base!r})"

    @staticmethod
    def first(k: int, base: Optional[DeliveryModel] = None) -> "AdversarialDrops":
        """The adversary that drops the first ``k`` messages sent in the run.

        ``message.uid`` counts sends in global order, so this is a pure function
        of the message.  ``base`` defaults to :class:`ReliableSynchronous`.
        """
        if k < 0:
            raise SimulationError("k must be non-negative")
        return AdversarialDrops(
            base if base is not None else ReliableSynchronous(),
            lambda message, send_time: message.uid < k,
        )
