"""E14 — the muddy-children announcement chain: derived fast path vs seed rebuild.

The Section 2 reproduction is a *chain* of model updates: the father's public
announcement of ``m`` followed by ``n`` rounds of simultaneous public answers.
The seed drove every round cold — a from-scratch ``KripkeStructure`` rebuild per
update (full constructor validation), a fresh ``ModelChecker`` per query site,
and a per-agent ``extension``/``refine_agent`` loop.  The incremental fast path
(:class:`repro.kripke.announcement.UpdateChain` over derived structures) remaps
partition masks, world numberings and proposition extensions from the parent and
evaluates each round's ``Knows`` batch exactly once.

``test_fast_path_speedup_over_seed_rebuild`` pins the acceptance claim: the
derived-structure chain is at least **3x** faster than the seed rebuild loop on
the n=10 full chain with the bitset backend.  The pytest-benchmark timings
measure both paths on both backends (plus the fast path at n=12) for the
ablation.
"""

import statistics
import time

import pytest

from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import refine_agent_rebuild, restrict_rebuild
from repro.logic.syntax import Knows, Prop
from repro.scenarios.muddy_children import run_muddy_children

BACKENDS = ("frozenset", "bitset")
N = 10
SPEEDUP_FLOOR = 3.0
PAIRS = 3


# -- the seed rebuild path --------------------------------------------------------
# The from-scratch restrict/refine transcriptions live in repro.kripke.reference,
# shared with the differential tests so the measured baseline and the test oracle
# are the same code.


def seed_rebuild_chain(n, backend):
    """The full n-round chain exactly as the seed ran it: rebuild everything."""
    children = tuple(f"child_{i}" for i in range(n))
    actual = tuple(True for _ in children)
    model = others_attribute_model(children)
    checker = ModelChecker(model, backend=backend)
    model = restrict_rebuild(model, checker.extension(Prop("at_least_one")))
    transcript = []
    for _ in range(n):
        # One checker for the children's answers, a second inside the
        # simultaneous-answers update — the seed built both per round.
        checker = ModelChecker(model, backend=backend)
        answers = [
            checker.holds(Knows(child, Prop(f"muddy_{child}")), actual)
            for child in children
        ]
        transcript.append(answers)
        update_checker = ModelChecker(model, backend=backend)
        extensions = [
            update_checker.extension(Knows(child, Prop(f"muddy_{child}")))
            for child in children
        ]

        def answer_vector(world):
            return tuple(world in extension for extension in extensions)

        for agent in model.agents:
            model = refine_agent_rebuild(model, agent, answer_vector)
    return transcript


def fast_chain(n, backend):
    """The same chain through UpdateChain and the derived-structure fast path."""
    result = run_muddy_children(n, n, rounds=n, backend=backend)
    return [list(outcome.answers.values()) for outcome in result.rounds]


def _timed(callable_):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


# -- measurements ---------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_fast_chain(benchmark, backend):
    """Time the n=10 full chain on the derived-structure fast path."""
    benchmark.extra_info["worlds"] = 2**N
    benchmark.extra_info["backend"] = backend
    transcript = benchmark.pedantic(
        fast_chain, args=(N, backend), rounds=5, iterations=1, warmup_rounds=1
    )
    # The paper's claim: everyone answers no until round n, yes in round n.
    assert all(not any(answers) for answers in transcript[:-1])
    assert all(transcript[-1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_seed_rebuild_chain(benchmark, backend):
    """Time the same chain on the seed's rebuild-everything path (the baseline)."""
    benchmark.extra_info["worlds"] = 2**N
    benchmark.extra_info["backend"] = backend
    transcript = benchmark.pedantic(
        seed_rebuild_chain, args=(N, backend), rounds=2, iterations=1, warmup_rounds=1
    )
    assert all(not any(answers) for answers in transcript[:-1])
    assert all(transcript[-1])


def test_fast_chain_n12(benchmark):
    """The n=12 chain (4096 worlds) on the bitset backend — headroom tracking."""
    benchmark.extra_info["worlds"] = 2**12
    benchmark.extra_info["backend"] = "bitset"
    transcript = benchmark.pedantic(
        fast_chain, args=(12, "bitset"), rounds=2, iterations=1, warmup_rounds=0
    )
    assert all(transcript[-1])


def test_fast_path_speedup_over_seed_rebuild():
    """The acceptance claim: >= 3x on the n=10 bitset chain, warm.

    Each pair runs both paths back to back and checks that they agree
    answer-for-answer; the gate reads the median of the per-pair ratios, so
    a slow spell of the host hits both sides of a pair.  The seed path takes
    seconds per chain, so a few pairs suffice against a margin of about 100x.
    """
    ratios = []
    for _ in range(PAIRS):
        seed_seconds, seed = _timed(lambda: seed_rebuild_chain(N, "bitset"))
        fast_seconds, fast = _timed(lambda: fast_chain(N, "bitset"))
        assert fast == seed
        ratios.append(seed_seconds / fast_seconds)
    ratio = statistics.median(ratios)
    assert ratio >= SPEEDUP_FLOOR, (
        f"the derived-structure chain should be at least {SPEEDUP_FLOOR}x faster "
        f"than the seed rebuild path; median ratio {ratio:.2f} over {PAIRS} pairs"
    )
