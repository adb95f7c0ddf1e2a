"""E15 — temporal evaluation over systems of runs: mask path vs frozenset reference.

Six of the eight registered scenarios build runs-and-systems models, and their
default formula sets are dominated by the Sections 11–12 temporal-epistemic
operators (``E^eps``/``C^eps``, ``E^<>``/``C^<>``, ``K^T``/``E^T``/``C^T``) plus
the ``<>``/``[]`` future fragment.  The frozenset reference evaluates those with
per-run Python loops (``O(T^2)`` suffix scans per run, per-fixpoint-iteration
knowledge rebuilds); the bitset backend now routes them through the mask-space
fast path (``ViewBasedInterpretation._evaluate_temporal_masks`` over a run-major
:class:`repro.engine.Segmentation`).

``test_mask_path_speedup_over_reference`` pins the acceptance claim: on a
temporal-heavy horizon sweep over the ``ok_protocol`` and ``coordinated_attack``
systems, the bitset mask path is at least **3x** faster than the frozenset
reference, end-to-end (interpretation construction + cold-memo batch
evaluation; ~6-9x measured on the larger grid points alone).  Both paths agree
extension-for-extension before anything is timed.  The pytest-benchmark timings
track each path separately for the ablation.
"""

import time

import pytest

from repro.logic.syntax import (
    Always,
    CDiamond,
    CEps,
    CT,
    EDiamond,
    EEps,
    ET,
    Eventually,
    Knows,
    Prop,
)
from repro.scenarios.coordinated_attack import build_handshake_system
from repro.scenarios.ok_protocol import build_ok_system
from repro.systems.interpretation import ViewBasedInterpretation

BACKENDS = ("frozenset", "bitset")
SPEEDUP_FLOOR = 3.0

OK_HORIZONS = (3, 4, 5)
HANDSHAKE_SWEEP = ((3, 6), (4, 8), (5, 10))


def _temporal_batch(group, fact, horizon):
    """A batch covering every temporal and temporal-epistemic operator."""
    prop = Prop(fact)
    return [
        Eventually(prop),
        Always(prop),
        EEps(group, prop, 1),
        CEps(group, prop, 1),
        EDiamond(group, prop),
        CDiamond(group, prop),
        CT(group, prop, float(horizon - 1)),
        ET(group, prop, float(horizon // 2)),
        CEps(group, Knows(group[0], prop), 2),
        Eventually(CDiamond(group, prop)),
    ]


def _build_workload():
    """The systems of the sweep, built once (model construction is shared by
    both paths and excluded from the comparison)."""
    workload = []
    for horizon in OK_HORIZONS:
        system = build_ok_system(horizon)
        workload.append((system, _temporal_batch(("R2", "D2"), "late_or_lost", horizon)))
    for depth, horizon in HANDSHAKE_SWEEP:
        system = build_handshake_system(depth, horizon)
        workload.append((system, _temporal_batch(("A", "B"), "intend_attack", horizon)))
    return workload


def evaluate_sweep(workload, backend):
    """Evaluate every grid point's batch on a fresh interpretation (cold memo)."""
    results = []
    for system, batch in workload:
        interpretation = ViewBasedInterpretation(system, backend=backend)
        results.append(interpretation.extensions(batch))
    return results


def _best_of(callable_, repetitions=3):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workload():
    return _build_workload()


# -- measurements ---------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_temporal_sweep(benchmark, workload, backend):
    """Time the full temporal horizon sweep on one backend."""
    benchmark.extra_info["worlds"] = sum(s.point_count() for s, _ in workload)
    benchmark.extra_info["backend"] = backend
    results = benchmark.pedantic(
        evaluate_sweep, args=(workload, backend), rounds=3, iterations=1, warmup_rounds=1
    )
    # Sanity: semantic containments every grid point must satisfy — the C
    # fixpoints are bounded by their first E iterate, and [] implies <>.
    for grid_point in results:
        eventually, always, eeps, ceps, ediamond, cdiamond = grid_point[:6]
        assert always <= eventually
        assert ceps <= eeps
        assert cdiamond <= ediamond
    # Something in the sweep is non-trivially true (guards against a batch of
    # vacuously empty extensions making the containments meaningless).
    assert any(grid_point[0] for grid_point in results)
    assert any(grid_point[2] for grid_point in results)


def test_mask_path_speedup_over_reference(workload, request):
    """The acceptance claim: >= 3x on the temporal sweep, bitset vs frozenset.

    Both paths agree extension-for-extension before anything is timed.  The
    wall-clock comparison is skipped under ``--benchmark-disable``, as CI
    runs this module, so that run stays timing-independent; the equivalence
    check always runs.
    """
    assert evaluate_sweep(workload, "bitset") == evaluate_sweep(workload, "frozenset")
    if request.config.getoption("--benchmark-disable"):
        pytest.skip("timing assertion runs only when benchmarks are enabled")
    reference_time = _best_of(lambda: evaluate_sweep(workload, "frozenset"))
    mask_time = _best_of(lambda: evaluate_sweep(workload, "bitset"))
    assert mask_time * SPEEDUP_FLOOR <= reference_time, (
        f"mask-space temporal path ({mask_time * 1e3:.1f} ms) should be at least "
        f"{SPEEDUP_FLOOR}x faster than the frozenset reference "
        f"({reference_time * 1e3:.1f} ms)"
    )
