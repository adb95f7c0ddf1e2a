"""The benchmark's own tests: seeded inputs repeat exactly, with exact shares.

Run with ``python -m pytest perfbench -q``; they import nothing from
``repro`` and take well under a second.
"""

from __future__ import annotations

from collections import Counter

import pytest

from inputs import (
    BLOCK_SHARES,
    CLIENTS,
    hot_set,
    kripke_block,
    parallel_sweep,
    request_points,
    serve_block,
    sweep_points,
    system_block,
)

SEEDS = [0, 1, 7, 123456]


@pytest.mark.parametrize("make", [kripke_block, system_block])
def test_sweep_blocks_repeat_for_a_seed_and_vary_across_seeds(make):
    for seed in SEEDS:
        assert make(seed) == make(seed)
    assert make(1) != make(2)


@pytest.mark.parametrize("seed", SEEDS)
def test_kripke_block_shares_are_exact(seed):
    block = kripke_block(seed)
    points = [(sweep, params) for sweep in block for params in sweep_points(sweep)]
    assert len(block) == 5
    assert sum(sweep["minimize"] for sweep in block) == 1
    assert len(points) == 21
    assert Counter(params["n"] for _, params in points) == Counter(
        {7: 2, 8: 5, 9: 3, 10: 5, 11: 5, 12: 1}
    )
    assert sum(sweep["scenario"] == "cheating_husbands" for sweep in block) == 1
    for sweep in block:
        assert len(sweep["formulas"]) == 8


@pytest.mark.parametrize("seed", SEEDS)
def test_system_block_work_does_not_depend_on_the_seed(seed):
    block = system_block(seed)
    reference = system_block(0)
    strip = lambda sweeps: sorted(  # noqa: E731 - a local sort key
        (s["scenario"], sorted((k, v) for k, v in s["grid"].items() if k != "seed"))
        for s in sweeps
    )
    assert strip(block) == strip(reference)
    assert sum(len(sweep_points(sweep)) for sweep in block) == 56
    assert all(sweep["formulas"] is None for sweep in block)


def test_serve_blocks_repeat_for_a_seed_and_vary_across_seeds():
    assert serve_block(3, 0, 5) == serve_block(3, 0, 5)
    assert serve_block(3, 0, 5) != serve_block(4, 0, 5)
    assert serve_block(3, 0, 5) != serve_block(3, 0, 6)
    assert parallel_sweep(3, 2) == parallel_sweep(3, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_serve_block_shares_are_exact(seed):
    for client in range(CLIENTS):
        hot = hot_set(client)
        for block in range(3):
            requests = serve_block(seed, client, block)
            kinds = Counter()
            for request in requests:
                if request in hot:
                    kinds["hot"] += 1
                elif request["kind"] == "run" and "formulas" in request["body"]:
                    kinds["new_batch"] += 1
                elif request["kind"] == "run":
                    kinds["new_point"] += 1
                else:
                    kinds[request["kind"]] += 1
            assert kinds == Counter(BLOCK_SHARES)


def test_new_keys_are_introduced_once_and_hot_sets_are_disjoint():
    seen = set()
    for client in range(CLIENTS):
        for block in range(50):
            for request in serve_block(9, client, block):
                if request["kind"] == "run" and request not in hot_set(client):
                    key = repr(request["body"])
                    assert key not in seen
                    seen.add(key)
    labels = [
        label
        for index in range(50)
        for label, _ in parallel_sweep(9, index)["body"]["formulas"]
    ]
    assert len(labels) == len(set(labels))
    hot = [[repr(r) for r in hot_set(client)] for client in range(CLIENTS)]
    assert not set(hot[0]) & set(hot[1])


def test_sweep_streams_answer_hot_keys():
    for client in range(CLIENTS):
        hot_points = [request_points(request)[0] for request in hot_set(client)]
        stream = next(r for r in serve_block(0, client, 0) if r["kind"] == "sweep")
        for point in request_points(stream):
            assert point in hot_points
