"""Seeded random protocols: fuzzing the runs-and-systems semantics.

The paper's framework promises that *any* deterministic protocol under *any*
delivery model induces a well-defined system of runs.  The hand-written
scenarios only ever exercise a handful of protocols; :func:`random_protocol`
generates an unbounded family of them, deterministically from a seed, so the
differential harness in ``tests/test_dsl_fuzz.py`` can check the semantics the
same way PR 1 fuzzed the engine backends and PR 3 fuzzed bisimulation:
evaluate generated scenarios on the frozenset and bitset backends, serially and
across the process pool, and require bit-identical answers.

Determinism is load-bearing in two ways:

* **Per history** — a protocol must be a deterministic function of the local
  history (Section 5), so the generator derives every decision from a
  :mod:`hashlib` digest of the history's canonical rendering.
* **Per process** — the parallel sweep rebuilds scenario instances inside
  worker processes, so the digest must not depend on interpreter state.
  ``blake2b`` keyed by the seed is stable across processes and Python
  versions, unlike the built-in ``hash`` (randomised per process by
  ``PYTHONHASHSEED``).

The module also provides the standard fuzz matrix: :func:`delivery_models`
(one representative per delivery assumption), :func:`fuzz_fact_rule` (ground
facts derived from what actually happened in a run, so knowledge formulas have
something contingent to talk about) and :func:`fuzz_formulas` (a small
knowledge/temporal suite over that vocabulary).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Tuple

from repro.errors import SimulationError
from repro.logic.syntax import (
    CDiamond,
    CEps,
    Common,
    EDiamond,
    Eventually,
    Everyone,
    Formula,
    Knows,
    Prop,
)
from repro.simulation.network import (
    Asynchronous,
    BoundedUncertain,
    DeliveryModel,
    ReliableSynchronous,
    Unreliable,
)
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.runs import LocalHistory, Run
from repro.systems.system import System

__all__ = [
    "RandomProtocol",
    "random_protocol",
    "fuzz_processors",
    "fuzz_initial_states",
    "fuzz_fact_rule",
    "fuzz_formulas",
    "delivery_models",
    "random_system",
    "DELIVERY_KINDS",
    "ACTION_LABELS",
]

ACTION_LABELS = ("mark", "probe")
"""The internal-action vocabulary generated protocols draw from."""

DELIVERY_KINDS = ("reliable", "bounded", "unreliable", "async")
"""The delivery-model matrix fuzzed scenarios sweep over, one name per
communication assumption the paper discusses."""


def fuzz_processors(n_agents: int) -> Tuple[str, ...]:
    """The canonical processor names ``p0 .. p{n-1}`` of generated scenarios."""
    if n_agents < 1:
        raise SimulationError("n_agents must be at least 1")
    return tuple(f"p{i}" for i in range(n_agents))


def delivery_models(kind: str, horizon: int) -> DeliveryModel:
    """The delivery model the fuzz matrix calls ``kind``.

    ``reliable`` is :class:`ReliableSynchronous` with delay 1, ``bounded`` is
    :class:`BoundedUncertain` over ``[0, 1]``, ``unreliable`` is
    :class:`Unreliable` with delay 1, and ``async`` is :class:`Asynchronous`
    with minimum delay 1.  ``horizon`` is accepted so callers can pick models
    whose branching stays bounded, and reserved for kinds that need it.
    """
    if kind == "reliable":
        return ReliableSynchronous(1)
    if kind == "bounded":
        return BoundedUncertain(0, 1)
    if kind == "unreliable":
        return Unreliable(delay=1)
    if kind == "async":
        return Asynchronous(min_delay=1)
    raise SimulationError(
        f"unknown delivery kind {kind!r}; expected one of {DELIVERY_KINDS}"
    )


def _canonical_history(processor: str, history: LocalHistory, time: int) -> bytes:
    """A canonical byte rendering of a local history (plus observer and time).

    Events render through their dataclass ``repr``s, which are pure functions
    of the event contents (including message uids), so the rendering is stable
    across processes.  Real time is included deliberately: the generated
    protocols model processors with access to real time, which
    :meth:`Protocol.step` explicitly allows.
    """
    return "|".join(
        (
            processor,
            str(time),
            repr(history.awake),
            repr(history.initial_state),
            repr(history.wake_time),
            repr(history.events),
            repr(history.clock_readings),
        )
    ).encode("utf-8")


class RandomProtocol(Protocol):
    """A deterministic protocol whose decisions are digest bits of the history.

    At each step the protocol draws a keyed ``blake2b`` digest of its canonical
    local history and uses successive bytes of it to decide whether to send a
    message (to which neighbour, with which token), and whether to perform an
    internal action (with which label).  The same seed therefore always
    generates the same system of runs — in any process.

    ``max_total_sends`` caps the messages each processor sends over the whole
    run, which keeps the simulator's branch product bounded under the lossy and
    asynchronous delivery models (each in-flight message multiplies the run
    count by its number of delivery outcomes).
    """

    name = "random"

    def __init__(
        self,
        seed: int,
        processors: Tuple[str, ...],
        send_prob: float = 0.45,
        act_prob: float = 0.3,
        max_total_sends: int = 2,
        content_space: int = 3,
    ):
        if not processors:
            raise SimulationError("RandomProtocol needs at least one processor")
        if not 0.0 <= send_prob <= 1.0 or not 0.0 <= act_prob <= 1.0:
            raise SimulationError("probabilities must lie in [0, 1]")
        if max_total_sends < 0:
            raise SimulationError("max_total_sends must be non-negative")
        if content_space < 1:
            raise SimulationError("content_space must be at least 1")
        self.seed = seed
        self.processors = tuple(processors)
        self.send_prob = send_prob
        self.act_prob = act_prob
        self.max_total_sends = max_total_sends
        self.content_space = content_space
        self._key = f"fuzz-{seed}".encode("utf-8")[:16]

    def _digest(self, processor: str, history: LocalHistory, time: int) -> bytes:
        return hashlib.blake2b(
            _canonical_history(processor, history, time),
            key=self._key,
            digest_size=8,
        ).digest()

    def step(self, processor: str, history: LocalHistory, time: int) -> Action:
        """Send/act decisions read off the history digest (deterministic)."""
        if not history.awake:
            return Action.nothing()
        digest = self._digest(processor, history, time)
        action = Action.nothing()
        others = tuple(p for p in self.processors if p != processor)
        may_send = (
            others
            and len(history.sent_messages()) < self.max_total_sends
            and digest[0] / 255.0 < self.send_prob
        )
        if may_send:
            recipient = others[digest[1] % len(others)]
            token = ("tok", digest[2] % self.content_space)
            action = action.also_send(recipient, token)
        if digest[3] / 255.0 < self.act_prob:
            label = ACTION_LABELS[digest[4] % len(ACTION_LABELS)]
            action = action.also_act(label)
        return action

    def __repr__(self) -> str:
        return f"RandomProtocol(seed={self.seed}, processors={self.processors})"


def random_protocol(
    seed: int,
    n_agents: int = 2,
    horizon: int = 3,
    send_prob: float = 0.45,
    act_prob: float = 0.3,
    max_total_sends: int = 2,
) -> RandomProtocol:
    """A seeded random protocol over :func:`fuzz_processors` ``(n_agents)``.

    ``horizon`` participates in the seed material (folded into ``seed``) so
    sweeping the horizon also varies the behaviour, not just the cutoff; the
    remaining knobs bound the branching (see :class:`RandomProtocol`).
    """
    if horizon < 0:
        raise SimulationError("horizon must be non-negative")
    return RandomProtocol(
        seed=seed * 1_000_003 + horizon,
        processors=fuzz_processors(n_agents),
        send_prob=send_prob,
        act_prob=act_prob,
        max_total_sends=max_total_sends,
    )


def fuzz_fact_rule(run: Run) -> Mapping[int, frozenset]:
    """Ground facts read off a finished run, giving formulas a vocabulary.

    ``recv_p`` holds at exactly the times processor ``p`` receives a message;
    ``did_{label}_{p}`` holds (stably) from the first time ``p`` performs the
    internal action ``label``; ``quiet`` holds everywhere in runs where no
    message is ever delivered.
    """
    facts: Dict[int, set] = {}
    for time in run.times():
        names = set()
        for processor in run.processors:
            for event in run.events_at(processor, time):
                kind = type(event).__name__
                if kind == "ReceiveEvent":
                    names.add(f"recv_{processor}")
        if names:
            facts.setdefault(time, set()).update(names)
    for processor in run.processors:
        for label in ACTION_LABELS:
            first = run.action_time(processor, label)
            if first is not None:
                for time in range(first, run.duration + 1):
                    facts.setdefault(time, set()).add(f"did_{label}_{processor}")
    if run.no_messages_received():
        for time in run.times():
            facts.setdefault(time, set()).add("quiet")
    return {time: frozenset(names) for time, names in facts.items()}


def fuzz_formulas(processors: Tuple[str, ...]) -> Dict[str, Formula]:
    """A compact knowledge/temporal suite over the fuzz fact vocabulary.

    Covers the operator families whose semantics the differential harness
    wants stressed: plain facts, individual and group knowledge, common
    knowledge, the eventual variants, and epsilon-common knowledge.
    """
    first = processors[0]
    group = tuple(processors)
    recv = Prop(f"recv_{first}")
    mark = Prop(f"did_mark_{first}")
    quiet = Prop("quiet")
    return {
        "recv": recv,
        "quiet": quiet,
        "K quiet": Knows(first, quiet),
        "E mark|recv": Everyone(group, mark | recv),
        "C quiet": Common(group, quiet),
        "<> recv": Eventually(recv),
        "E<> recv": EDiamond(group, recv),
        "C<> quiet": CDiamond(group, quiet),
        "C^1 quiet": CEps(group, quiet, 1),
    }


def fuzz_initial_states(
    seed: int, n_agents: int, horizon: int
) -> Dict[str, Tuple[int, ...]]:
    """The seed-derived initial-state map of a generated scenario.

    One bit per processor, read off a digest of the seed material, so generated
    systems vary in their initial configuration as well as their communication
    pattern.
    """
    config_digest = hashlib.blake2b(
        f"init-{seed}-{n_agents}-{horizon}".encode("utf-8"), digest_size=8
    ).digest()
    return {
        p: (config_digest[i % len(config_digest)] % 2,)
        for i, p in enumerate(fuzz_processors(n_agents))
    }


def random_system(
    seed: int,
    n_agents: int = 2,
    horizon: int = 3,
    delivery: str = "reliable",
    max_runs: int = 20_000,
) -> System:
    """The full system of runs of one generated protocol under one delivery kind.

    This is the one-call form the differential tests build on, and the
    builder of the registered ``random_protocol`` scenario.
    """
    protocol = random_protocol(seed, n_agents=n_agents, horizon=horizon)
    processors = protocol.processors
    initial_states = fuzz_initial_states(seed, n_agents, horizon)
    return simulate(
        protocol,
        processors,
        duration=horizon,
        delivery=delivery_models(delivery, horizon),
        initial_states=initial_states,
        fact_rules=[fuzz_fact_rule],
        max_runs=max_runs,
        system_name=f"fuzz-s{seed}-n{n_agents}-h{horizon}-{delivery}",
    )
