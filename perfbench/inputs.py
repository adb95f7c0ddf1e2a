"""Seeded inputs for the three benchmark workloads.

Every function here is a pure function of its arguments (the benchmark seed,
a client id, a block index): the same seed always gives the same inputs, in
any process.  Nothing here imports ``repro``; the program under test only
ever receives what these functions generate.

A *block* is the unit a timed loop repeats.  Its shares are exact: every
kripke_sweep block has the same number of minimize grids and of points at
each model size, and every serve_mixed block has the same number of store
hits, new formula batches, new grid points, listings and sweep streams.  A
seed changes which agents, propositions and orders appear, never how much
work of each kind a block holds, so throughput does not depend on the seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

# -- kripke_sweep -------------------------------------------------------------

KRIPKE_MIN_N = 7
"""The smallest ``n`` on any kripke_sweep grid.

A sweep evaluates one formula batch on every grid point, so the agents and
propositions a batch names must exist at the smallest ``n`` of the grid.
"""


def _group(rng: random.Random, prefix: str, size: int) -> str:
    members = sorted(rng.sample(range(KRIPKE_MIN_N), size))
    return "{" + ",".join(f"{prefix}_{i}" for i in members) + "}"


def kripke_batch(rng: random.Random, prefix: str) -> List[List[str]]:
    """A seeded batch: an E^k chain, D, C, nested C and a greatest fixpoint.

    Group sizes are fixed, so every seed asks for the same amount of work;
    the seed picks which agents form each group and which proposition D is
    asked about.
    """
    group = _group(rng, prefix, 5)
    trio = _group(rng, prefix, 3)
    pair = _group(rng, prefix, 2)
    child = rng.randrange(KRIPKE_MIN_N)
    m = "at_least_one"
    return [
        ["m", m],
        ["E^1 m", f"E^1_{group} {m}"],
        ["E^2 m", f"E^2_{group} {m}"],
        ["E^3 m", f"E^3_{group} {m}"],
        ["D muddy", f"D_{trio} muddy_{prefix}_{child}"],
        ["C m", f"C_{group} {m}"],
        ["C C m", f"C_{pair} C_{group} {m}"],
        ["nu E m", f"nu X. E_{group} ({m} & X)"],
    ]


def _sweep(scenario: str, grid: Dict[str, list], formulas=None, minimize=False) -> dict:
    return {
        "scenario": scenario,
        "grid": grid,
        "formulas": formulas,
        "minimize": minimize,
    }


def kripke_block(seed: int) -> List[dict]:
    """Five cold sweeps: 21 points, n=12 once, one minimize grid in five."""
    rng = random.Random(f"kripke_sweep/{seed}")

    def k() -> List[int]:
        return [rng.randint(1, 3)]

    sweeps = [
        _sweep(
            "muddy_children",
            {"n": [8, 9, 10, 11], "k": k(), "announced": [False, True]},
            kripke_batch(rng, "child"),
        ),
        _sweep(
            "cheating_husbands",
            {"n": [8, 9, 10, 11], "k": k()},
            kripke_batch(rng, "queen"),
        ),
        _sweep(
            "muddy_children",
            {"n": [10, 11], "k": k(), "announced": [False, True]},
            kripke_batch(rng, "child"),
        ),
        # The component-merge cliff: bitset C evaluation at n=12.
        _sweep(
            "muddy_children",
            {"n": [12], "k": k(), "announced": [False]},
            kripke_batch(rng, "child"),
        ),
        # The quotient grows quickly with n (n=9 already costs 0.35 s), so the
        # minimize grid stays at the small end.
        _sweep(
            "muddy_children",
            {"n": [7, 8], "k": k(), "announced": [False, True]},
            kripke_batch(rng, "child"),
            minimize=True,
        ),
    ]
    rng.shuffle(sweeps)
    return sweeps


# -- system_sweep --------------------------------------------------------------


def system_block(seed: int) -> List[dict]:
    """Six cold sweeps over five system scenarios with their default batches.

    The grids are fixed so the work per block is the same for every seed;
    the seed picks the random_protocol systems and the sweep order.  Of the
    56 points, 5.6 make the slowest tenth: the p90 falls between the two
    n_bits=2, horizon=4 sequence_transmission points, which cost the same,
    rather than on a boundary between points of different cost.
    """
    rng = random.Random(f"system_sweep/{seed}")
    sweeps = [
        # n_bits=3, horizon=4 is the evaluator-indexing cliff.
        _sweep(
            "sequence_transmission",
            {"n_bits": [1, 2, 3], "horizon": [3, 4], "delivery": ["unreliable", "bounded"]},
        ),
        # Asynchronous delivery grows superlinearly with the horizon
        # (about 30 ms at 3, 0.75 s at 4, 62 s at 5): 4 keeps it visible.
        _sweep(
            "sequence_transmission",
            {"n_bits": [1], "horizon": [3, 4], "delivery": ["async"]},
        ),
        _sweep("gossip", {"n": [3, 4, 5, 6], "horizon": [4]}),
        _sweep("broadcast", {"variant": ["sync"], "latency": [0, 1, 2], "spread": [1, 2]}),
        # 24 small points of similar cost: the p50 falls inside them.
        _sweep(
            "coordinated_attack",
            {"depth": [1, 2, 3, 4], "horizon": [5, 6, 7], "include_peace_runs": [True, False]},
        ),
        # Random systems vary in cost with their seed; kept this small, the
        # variation cannot move the block's total.
        _sweep(
            "random_protocol",
            {
                "seed": sorted(rng.sample(range(1_000_000), 8)),
                "n_agents": [2],
                "horizon": [2],
                "delivery": ["reliable"],
            },
        ),
    ]
    rng.shuffle(sweeps)
    return sweeps


def sweep_points(sweep: dict) -> List[Dict[str, object]]:
    """The parameter assignments of a sweep, in ``iter_sweep``'s grid order."""
    names = list(sweep["grid"])
    return [
        dict(zip(names, combination))
        for combination in itertools.product(*(sweep["grid"][name] for name in names))
    ]


# -- serve_mixed -----------------------------------------------------------------

CLIENTS = 2
"""Closed-loop clients; each waits for its reply before sending again."""

HOT_SWEEP_N = [3, 4, 5]


def _run(scenario: str, params: dict, formulas=None) -> dict:
    body = {"scenario": scenario, "params": params}
    if formulas is not None:
        body["formulas"] = formulas
    return {"kind": "run", "body": body}


def hot_set(client: int) -> List[dict]:
    """The client's hot requests; each client owns its keys.

    Disjoint hot sets mean two clients never send the same request at the
    same moment, so no request coalesces and every counter repeats exactly.
    The gossip points are also the rows of the client's sweep streams.
    """
    horizon = 4 + client
    gossip = [_run("gossip", {"n": n, "horizon": horizon}) for n in HOT_SWEEP_N]
    if client == 0:
        return [
            _run("muddy_children", {"n": 5, "k": 2}),
            _run("muddy_children", {"n": 6, "k": 3, "announced": True}),
            _run("coordinated_attack", {"depth": 2, "horizon": 5}),
            _run("broadcast", {"variant": "sync", "latency": 1, "spread": 1}),
        ] + gossip
    return [
        _run("cheating_husbands", {"n": 5, "k": 2}),
        _run("muddy_children", {"n": 6, "k": 2}),
        _run("sequence_transmission", {"n_bits": 1, "horizon": 3}),
        _run("coordinated_attack", {"depth": 3, "horizon": 6}),
    ] + gossip


def _batch_points(client: int) -> List[dict]:
    """The already-built Kripke points new formula batches are asked on."""
    if client == 0:
        return [
            {"scenario": "muddy_children", "params": {"n": 5, "k": 2}, "prefix": "child"},
            {"scenario": "muddy_children", "params": {"n": 6, "k": 3, "announced": True}, "prefix": "child"},
        ]
    return [
        {"scenario": "cheating_husbands", "params": {"n": 5, "k": 2}, "prefix": "queen"},
        {"scenario": "muddy_children", "params": {"n": 6, "k": 2}, "prefix": "child"},
    ]


def _new_batch(rng: random.Random, prefix: str, tag: str) -> List[List[str]]:
    """Three fresh formulas over five agents; the tag makes the key unique."""

    def agents(size: int) -> str:
        return "{" + ",".join(f"{prefix}_{i}" for i in sorted(rng.sample(range(5), size))) + "}"

    def atom() -> str:
        return f"muddy_{prefix}_{rng.randrange(5)}"

    return [
        [f"{tag}.e", f"E^{rng.randint(1, 2)}_{agents(3)} ({atom()} | {atom()})"],
        [f"{tag}.c", f"C_{agents(2)} ({atom()} | at_least_one)"],
        [f"{tag}.d", f"D_{agents(3)} ({atom()} & ~{atom()})"],
    ]


BLOCK_SHARES = {"hot": 18, "new_batch": 4, "new_point": 1, "scenarios": 1, "sweep": 1}
"""Requests of each kind in every serve_mixed block (25 per block).

Store hits are 72% of requests, so the p50 is a store read; the misses
(new batches and points) and the streams fill the tail.
"""


def serve_block(seed: int, client: int, block: int) -> List[dict]:
    """One block of a client's closed-loop request sequence."""
    rng = random.Random(f"serve_mixed/{seed}/{client}/{block}")
    hot = hot_set(client)
    requests: List[dict] = [rng.choice(hot) for _ in range(BLOCK_SHARES["hot"])]
    points = _batch_points(client)
    for index in range(BLOCK_SHARES["new_batch"]):
        point = points[index % len(points)]
        tag = f"c{client}b{block}n{index}"
        requests.append(
            _run(point["scenario"], point["params"], _new_batch(rng, point["prefix"], tag))
        )
    for index in range(BLOCK_SHARES["new_point"]):
        requests.append(
            _run(
                "random_protocol",
                {
                    "seed": new_point_seed(seed, client, block, index),
                    "n_agents": 2,
                    "horizon": 2,
                    "delivery": "reliable",
                },
            )
        )
    requests.extend({"kind": "scenarios"} for _ in range(BLOCK_SHARES["scenarios"]))
    for _ in range(BLOCK_SHARES["sweep"]):
        requests.append(
            {
                "kind": "sweep",
                "body": {
                    "scenario": "gossip",
                    "grid": {"n": list(HOT_SWEEP_N)},
                    "params": {"horizon": 4 + client},
                },
            }
        )
    rng.shuffle(requests)
    return requests


def new_point_seed(seed: int, client: int, block: int, index: int) -> int:
    """A random_protocol seed no other request of the run uses."""
    return ((seed % 1000) * 10 + client) * 10_000_000 + block * 10 + index


def parallel_sweep(seed: int, index: int) -> dict:
    """A served ``jobs=2`` sweep whose keys no other request uses.

    The grid and formulas are fixed, so every such sweep does the same
    work; only the labels, which are part of the stored key, are new.
    """
    tag = f"p{seed}.{index}"
    return {
        "kind": "sweep",
        "body": {
            "scenario": "gossip",
            "grid": {"n": [3, 4, 5], "horizon": [3, 4]},
            "formulas": [
                [f"{tag}.k", "K_g1 secret_0 | K_g1 ~secret_0"],
                [f"{tag}.e", "E_{g0,g1,g2} secret_0"],
                [f"{tag}.c", "C_{g0,g1} secret_0"],
            ],
            "jobs": 2,
        },
    }


def request_points(request: dict) -> List[dict]:
    """The ``(scenario, params, formulas)`` each report of a ``/run`` or
    ``/sweep`` response answers, in the order the service sends them."""
    body = request["body"]
    if request["kind"] == "run":
        return [
            {
                "scenario": body["scenario"],
                "params": body["params"],
                "formulas": body.get("formulas"),
            }
        ]
    grid = dict(body["grid"])
    grid.update({name: [value] for name, value in body.get("params", {}).items()})
    return [
        {"scenario": body["scenario"], "params": params, "formulas": body.get("formulas")}
        for params in sweep_points({"grid": grid})
    ]
