"""In-flight request coalescing for the evaluation service.

The service keys every ``POST /run`` by the persistent store's content
address (scenario, canonical parameter key, pretty-form formula batch,
the engine's default backend, minimize flag).  When N identical requests arrive while
one of them is still evaluating, the first becomes the *leader* — it owns
the executor call — and the rest *follow* by awaiting the leader's task.
All N responses are rendered from the same report; the runner's
``eval_count`` moves by exactly one.

The map is confined to the event-loop thread (every mutation happens in a
coroutine or a done-callback), so it needs no locks — the threading lives
behind the executor boundary the leader's thunk crosses.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Optional, TypeVar

__all__ = ["CoalescingMap"]

T = TypeVar("T")


class CoalescingMap:
    """Share one in-flight evaluation among concurrent identical requests.

    :meth:`run` is the whole interface.  ``hits`` counts requests that
    joined an in-flight evaluation, ``misses`` counts requests that led one
    (including requests with no content address, which can never coalesce).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Task[object]"] = {}
        self.hits = 0
        self.misses = 0

    @property
    def inflight(self) -> int:
        """How many distinct evaluations are currently in flight."""
        return len(self._inflight)

    async def run(
        self, key: Optional[str], thunk: Callable[[], Awaitable[T]]
    ) -> T:
        """Await ``thunk()``'s result, sharing the call with identical peers.

        The first caller for ``key`` schedules ``thunk()`` as a task; callers
        arriving before that task finishes await the *same* task and receive
        the same result object (or the same raised exception).  ``key=None``
        means "no canonical identity" — the thunk runs privately.

        Awaiting happens through :func:`asyncio.shield`: a follower whose
        connection drops cancels only its own wait, never the shared
        evaluation other clients are still waiting on.  The key is released
        the moment the task settles, so later requests re-evaluate (or hit
        the persistent store) instead of receiving a stale task.
        """
        if key is None:
            self.misses += 1
            return await thunk()
        task = self._inflight.get(key)
        if task is None:
            self.misses += 1
            task = asyncio.ensure_future(thunk())
            self._inflight[key] = task
            task.add_done_callback(lambda _done: self._inflight.pop(key, None))
        else:
            self.hits += 1
        return await asyncio.shield(task)
