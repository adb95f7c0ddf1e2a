"""E13 — the registry-driven muddy-children sweep on both engine backends.

The sweep of the acceptance experiment: muddy children n = 2..10, the default
formula set (m, the E-hierarchy boundary, C m) at every grid point, once per
engine backend.  The runner evaluates on the bitset production backend only,
so the comparison runs one level down: a fresh ``ModelChecker(model,
backend=...)`` per grid point (cold formula memo) over models prebuilt once and
shared by both backends; the structure-level mask caches are warmed first,
exactly as in a long-running process.

``test_bitset_beats_frozenset_on_sweep`` pins the qualitative claim — the
bitset backend is measurably faster on this sweep — independently of the
pytest-benchmark timings.  ``test_bitset_common_knowledge_is_no_slower_at_n12``
pins the linear G-reachability component search: a merge of each block
against every component found so far makes cold ``C_G`` at n = 12 about 15x
slower than the frozenset oracle.  ``test_class_id_construction_is_3x_faster_at_n12``
pins class-id model construction against the seed's per-world observation
tuples.
"""

import time

import pytest

from repro.experiments import ExperimentRunner, get_scenario
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import others_attribute_rebuild
from repro.logic import C, prop

GRID = {"n": range(2, 11)}
BACKENDS = ("frozenset", "bitset")


@pytest.fixture(scope="module")
def grid_points():
    """Every grid point's model, focus and default batch, with mask caches warm."""
    runner = ExperimentRunner()
    points = []
    for n in GRID["n"]:
        instance = runner.instance("muddy_children", {"n": n})
        points.append((instance.model, instance.focus, instance.default_formulas()))
    for backend in BACKENDS:
        sweep(points, backend)
    return points


def sweep(points, backend):
    """Evaluate every point's batch on a fresh checker; ``{label: extension}`` per point."""
    results = []
    for model, _, formulas in points:
        extensions = ModelChecker(model, backend=backend).extensions(list(formulas.values()))
        results.append(dict(zip(formulas, extensions)))
    return results


@pytest.mark.parametrize("backend", BACKENDS)
def test_muddy_children_sweep(benchmark, grid_points, backend):
    """Time the full n=2..10 sweep (fresh evaluators, shared prebuilt models)."""
    results = benchmark(sweep, grid_points, backend)
    assert len(results) == len(list(GRID["n"]))
    for (_, focus, _), by_label in zip(grid_points, results):
        # The paper's claims hold at every grid point: E^{k-1} m yes, E^k m no,
        # C m nowhere (the father has not spoken).
        assert focus in by_label["E^1 m"]
        assert not by_label["C m"]


def _best_of(callable_, repetitions=3, setup=None):
    """Best wall time of ``callable_``; ``setup()``'s result, if given, is its
    argument and is prepared outside the timed region."""
    best = float("inf")
    for _ in range(repetitions):
        args = () if setup is None else (setup(),)
        start = time.perf_counter()
        callable_(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_bitset_beats_frozenset_on_sweep(grid_points):
    """The acceptance claim: bitset is measurably faster on the muddy sweep."""
    frozenset_time = _best_of(lambda: sweep(grid_points, "frozenset"))
    bitset_time = _best_of(lambda: sweep(grid_points, "bitset"))
    # Warm-cache ratio is ~2.5-3x on CPython 3.11; assert a conservative margin
    # so the check stays robust on noisy machines.
    assert bitset_time < frozenset_time, (
        f"bitset sweep ({bitset_time * 1e3:.2f} ms) should beat "
        f"frozenset ({frozenset_time * 1e3:.2f} ms)"
    )


def test_bitset_common_knowledge_is_no_slower_at_n12():
    """Cold ``C_G`` at muddy children n=12 (4096 worlds, 12 children).

    Every repetition gets a freshly built structure, so the G-reachability
    components are computed inside the timed call on both backends.
    """
    spec = get_scenario("muddy_children")
    params = spec.validate_params({"n": 12})
    children = [f"child_{i}" for i in range(12)]
    formula = C(children, prop("at_least_one"))

    def evaluate(checker):
        (extension,) = checker.extensions([formula])
        assert not extension  # C m holds nowhere before the announcement

    def common_knowledge(backend):
        return _best_of(
            evaluate, setup=lambda: ModelChecker(spec.build(params).model, backend=backend)
        )

    frozenset_time = common_knowledge("frozenset")
    bitset_time = common_knowledge("bitset")
    assert bitset_time <= frozenset_time, (
        f"bitset C_G ({bitset_time * 1e3:.1f} ms) should not be slower than "
        f"frozenset ({frozenset_time * 1e3:.1f} ms)"
    )


def test_class_id_construction_is_3x_faster_at_n12():
    """Muddy children n=12 (4096 worlds), built with every agent's class masks.

    ``others_attribute_model`` computes class ids arithmetically and groups them
    into masks in one pass; the seed grouped per-world observation tuples into
    frozenset blocks and hashed each block into a mask afterwards
    (:func:`repro.kripke.reference.others_attribute_rebuild`).  About 6x apart on
    CPython 3.11; 3x is the gate.
    """
    children = [f"child_{i}" for i in range(12)]

    def build(builder):
        class_at = builder(children).evaluation_masks().class_at
        for child in children:
            class_at[child]

    class_ids_time = _best_of(lambda: build(others_attribute_model), repetitions=5)
    seed_time = _best_of(lambda: build(others_attribute_rebuild), repetitions=5)
    assert class_ids_time * 3 <= seed_time, (
        f"class-id construction ({class_ids_time * 1e3:.1f} ms) should be at least 3x "
        f"faster than the seed construction ({seed_time * 1e3:.1f} ms)"
    )
