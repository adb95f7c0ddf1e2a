"""Differential and unit tests for the mask-space temporal evaluator.

The systems layer evaluates the temporal and temporal-epistemic operators twice:
the frozenset transcription of the paper's clauses (the reference semantics in
``ViewBasedInterpretation._evaluate_temporal``) and the mask-space fast path used
on the bitset backend (``_evaluate_temporal_masks`` over a
:class:`repro.engine.universe.Segmentation`).  This module pins the two paths
observably identical — per operator, on seeded simulated systems and on a
hand-built ragged system with drifting clocks — and unit-tests the segment sweeps
against brute-force models.  The temporal-operator bugfix regressions (fractional
eps rejection, drifting-clock timestamp matching) live here too.
"""

from __future__ import annotations

import random
import zlib

import pytest

from _engine_gen import TEMPORAL_NODE_TYPES, formula_suite, node_types_used
from repro.engine import Segmentation
from repro.errors import EvaluationError, ModelError, ReproError, UnknownAgentError
from repro.logic.syntax import (
    Always,
    CDiamond,
    CEps,
    CT,
    EDiamond,
    EEps,
    ET,
    Eventually,
    KT,
    Knows,
    Not,
    Prop,
)
from repro.scenarios.coordinated_attack import build_handshake_system
from repro.scenarios.ok_protocol import build_ok_system
from repro.systems.clocks import offset_clock, perfect_clock, scaled_clock
from repro.systems.interpretation import ViewBasedInterpretation
from repro.systems.runs import RunBuilder
from repro.systems.system import System


# ---------------------------------------------------------------------------
# Segmentation unit tests (brute-force models)
# ---------------------------------------------------------------------------

RAGGED_LENGTHS = (4, 1, 7, 3, 2, 5)


def _segment_of(segments, position):
    for offset, length in zip(segments.offsets, segments.lengths):
        if offset <= position < offset + length:
            return offset, length
    raise AssertionError(f"position {position} outside every segment")


def _bits(mask):
    position = 0
    while mask:
        if mask & 1:
            yield position
        mask >>= 1
        position += 1


def _brute_suffix_or(segments, mask):
    result = 0
    total = sum(segments.lengths)
    for p in range(total):
        offset, length = _segment_of(segments, p)
        if any(mask >> q & 1 for q in range(p, offset + length)):
            result |= 1 << p
    return result


def _random_masks(seed, total, count):
    rng = random.Random(seed)
    return [rng.getrandbits(total) for _ in range(count)]


@pytest.fixture(scope="module")
def ragged():
    return Segmentation(RAGGED_LENGTHS)


def test_segmentation_rejects_degenerate_inputs():
    with pytest.raises(ModelError):
        Segmentation(())
    with pytest.raises(ModelError):
        Segmentation((3, 0, 2))


def test_segmentation_layout(ragged):
    assert ragged.lengths == RAGGED_LENGTHS
    assert ragged.offsets == (0, 4, 5, 12, 15, 17)
    assert ragged.full_mask == (1 << sum(RAGGED_LENGTHS)) - 1
    assert len(ragged) == len(RAGGED_LENGTHS)
    assert ragged.segment_mask(2) == ((1 << 7) - 1) << 5


def test_suffix_or_matches_brute_force(ragged):
    total = sum(RAGGED_LENGTHS)
    for mask in _random_masks(0xA0, total, 50):
        assert ragged.suffix_or(mask) == _brute_suffix_or(ragged, mask)


def test_suffix_and_prefix_or_match_brute_force(ragged):
    total = sum(RAGGED_LENGTHS)
    for mask in _random_masks(0xA1, total, 50):
        expected_and = 0
        expected_prefix = 0
        for p in range(total):
            offset, length = _segment_of(ragged, p)
            if all(mask >> q & 1 for q in range(p, offset + length)):
                expected_and |= 1 << p
            if any(mask >> q & 1 for q in range(offset, p + 1)):
                expected_prefix |= 1 << p
        assert ragged.suffix_and(mask) == expected_and
        assert ragged.prefix_or(mask) == expected_prefix


def test_spread_and_covered_match_brute_force(ragged):
    total = sum(RAGGED_LENGTHS)
    for mask in _random_masks(0xA2, total, 50):
        expected_spread = 0
        expected_covered = 0
        for index in range(len(ragged)):
            segment = ragged.segment_mask(index)
            if mask & segment:
                expected_spread |= segment
            if mask & segment == segment:
                expected_covered |= segment
        assert ragged.spread(mask) == expected_spread
        assert ragged.covered(mask) == expected_covered


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8])
def test_window_sweeps_match_brute_force(ragged, width):
    total = sum(RAGGED_LENGTHS)
    for mask in _random_masks(0xA3 + width, total, 25):
        expected_ahead = 0
        expected_behind = 0
        for p in range(total):
            offset, length = _segment_of(ragged, p)
            ahead = range(p, min(p + width, offset + length))
            behind = range(max(p - width + 1, offset), p + 1)
            if any(mask >> q & 1 for q in ahead):
                expected_ahead |= 1 << p
            if any(mask >> q & 1 for q in behind):
                expected_behind |= 1 << p
        assert ragged.window_or_ahead(mask, width) == expected_ahead
        assert ragged.window_or_behind(mask, width) == expected_behind


def test_sweeps_never_cross_segment_boundaries(ragged):
    # A single bit at a segment's first position must not bleed into the
    # previous segment under any backward sweep.
    for index in range(1, len(ragged)):
        lone = 1 << ragged.offsets[index]
        previous = ragged.segment_mask(index - 1)
        for swept in (
            ragged.suffix_or(lone),
            ragged.window_or_ahead(lone, 4),
            ragged.spread(lone),
        ):
            assert swept & previous == 0


# ---------------------------------------------------------------------------
# Differential: mask path vs frozenset reference
# ---------------------------------------------------------------------------

GROUP = ("A", "B")
P = Prop("p")
Q = Prop("q")


def _ragged_clocked_system():
    """A hand-built system: ragged durations, drifting/offset/absent clocks.

    Exercises everything the simulated systems do not: runs of different
    lengths (ragged segment layout), non-integer clock rates (float readings),
    and a clockless processor (``K^T`` vacuously false for it).
    """
    runs = []
    specs = [
        ("r0", 5, {"A": perfect_clock(5), "B": scaled_clock(5, 0.5)}),
        ("r1", 2, {"A": offset_clock(2, 1.0), "B": scaled_clock(2, 0.5)}),
        ("r2", 7, {"A": perfect_clock(7), "B": None}),
        ("r3", 3, {"A": scaled_clock(3, 1.5), "B": perfect_clock(3)}),
    ]
    rng = random.Random(0xBEEF)
    for name, duration, clocks in specs:
        builder = RunBuilder(name, GROUP, duration, clocks=clocks)
        for time in range(duration + 1):
            if rng.random() < 0.5:
                builder.add_fact(time, "p")
            if rng.random() < 0.3:
                builder.add_fact(time, "q")
        if duration >= 2:
            message = builder.send("A", "B", f"m-{name}", time=0)
            builder.deliver(message, time=2)
        runs.append(builder.build())
    return System(runs, name="ragged-clocked")


def _interpretations(system):
    return (
        ViewBasedInterpretation(system, backend="frozenset"),
        ViewBasedInterpretation(system, backend="bitset"),
    )


SYSTEM_BUILDERS = {
    "handshake": lambda: build_handshake_system(depth=2, horizon=5),
    "ok-protocol": lambda: build_ok_system(horizon=4),
    "ragged-clocked": _ragged_clocked_system,
}


def _directed_formulas(system):
    """One formula per temporal/temporal-epistemic operator, plus nestings."""
    agents = sorted(system.processors, key=repr)
    first = agents[0]
    group = tuple(agents)
    timestamps = (0.0, 1.0, 1.5, 2.0)
    formulas = [
        Eventually(P),
        Always(P),
        Eventually(Not(Always(P))),
        Always(Eventually(Q)),
        EEps(group, P, 0),
        EEps(group, P, 1),
        EEps(group, P, 2),
        CEps(group, P, 0),
        CEps(group, P, 1),
        EDiamond(group, P),
        CDiamond(group, P),
        EDiamond(group, Knows(first, P)),
        CEps(group, Eventually(P), 1),
        Eventually(CEps(group, P, 1)),
    ]
    for timestamp in timestamps:
        formulas.append(KT(first, P, timestamp))
        formulas.append(ET(group, P, timestamp))
        formulas.append(CT(group, P, timestamp))
    return formulas


@pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
def test_mask_path_matches_reference_on_directed_formulas(name):
    """Every operator, directed: the two paths agree extension-for-extension."""
    system = SYSTEM_BUILDERS[name]()
    reference, fast = _interpretations(system)
    for formula in _directed_formulas(system):
        expected = reference.extension(formula)
        actual = fast.extension(formula)
        assert actual == expected, (
            f"mask path disagrees on {name}: {formula!r}\n"
            f"  reference: {sorted(map(repr, expected))}\n"
            f"  mask:      {sorted(map(repr, actual))}"
        )


def _fuzz_suite(name, system):
    agents = sorted(system.processors, key=repr)
    props = ["p", "q", "intend_attack", "late_or_lost"]
    seed = zlib.crc32(name.encode("utf-8"))
    return formula_suite(seed, props, agents, 60, temporal=True, max_depth=3)


def test_fuzz_suites_cover_every_temporal_operator():
    """Across the three systems' suites, every temporal node type occurs."""
    formulas = [
        formula
        for name, builder in SYSTEM_BUILDERS.items()
        for formula in _fuzz_suite(name, builder())
    ]
    missing = set(TEMPORAL_NODE_TYPES) - node_types_used(formulas)
    assert not missing, f"generator never produced {sorted(t.__name__ for t in missing)}"


@pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
def test_mask_path_matches_reference_on_fuzzed_formulas(name):
    """Seeded random temporal formulas agree across backends."""
    system = SYSTEM_BUILDERS[name]()
    reference, fast = _interpretations(system)
    for formula in _fuzz_suite(name, system):
        assert fast.extension(formula) == reference.extension(formula), (
            f"mask path disagrees on {name}: {formula!r}"
        )


REFERENCE_CLAUSES = (
    "_evaluate_temporal",
    "_everyone_eps",
    "_everyone_diamond",
    "_everyone_at",
    "_knows_at",
    "_variant_fixpoint",
)


def _forbid_reference_clauses(monkeypatch):
    def forbidden(clause):
        def trip(*args, **kwargs):
            raise AssertionError(f"the frozenset reference clause {clause} ran")

        return trip

    for clause in REFERENCE_CLAUSES:
        monkeypatch.setattr(ViewBasedInterpretation, clause, forbidden(clause))


@pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
def test_bitset_backend_never_runs_a_reference_clause(name, monkeypatch):
    """On bitset the one ``special`` hook sends every temporal operator down
    the mask path; the frozenset transcription is for the oracle alone."""
    system = SYSTEM_BUILDERS[name]()
    formulas = _directed_formulas(system) + _fuzz_suite(name, system)
    assert set(TEMPORAL_NODE_TYPES) <= node_types_used(_directed_formulas(system))
    expected = ViewBasedInterpretation(system, backend="bitset").extensions(formulas)
    _forbid_reference_clauses(monkeypatch)
    assert ViewBasedInterpretation(system, backend="bitset").extensions(formulas) == expected
    # The guard is live: the oracle does reach the forbidden clauses.
    with pytest.raises(AssertionError, match="reference clause"):
        ViewBasedInterpretation(system, backend="frozenset").extension(EEps(GROUP, P, 1))


def test_mask_path_validity_and_focus_verdicts_agree():
    system = build_handshake_system(depth=2, horizon=5)
    reference, fast = _interpretations(system)
    for formula in _directed_formulas(system):
        assert reference.is_valid(formula) == fast.is_valid(formula)
        assert reference.is_satisfiable(formula) == fast.is_satisfiable(formula)


def test_mask_caches_survive_clear_cache_coherently():
    """clear_cache drops body-dependent masks; results stay identical after."""
    system = _ragged_clocked_system()
    fast = ViewBasedInterpretation(system, backend="bitset")
    formulas = _directed_formulas(system)
    before = [fast.extension(f) for f in formulas]
    fast.clear_cache()
    assert not fast._mask_knowledge_cache
    after = [fast.extension(f) for f in formulas]
    assert before == after


def test_unknown_processor_errors_match_across_backends():
    system = _ragged_clocked_system()
    for backend in ("frozenset", "bitset"):
        interpretation = ViewBasedInterpretation(system, backend=backend)
        with pytest.raises(UnknownAgentError):
            interpretation.extension(KT("ghost", P, 1.0))
        with pytest.raises(UnknownAgentError):
            interpretation.extension(EEps(("A", "ghost"), P, 1))


# ---------------------------------------------------------------------------
# Bugfix regressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("frozenset", "bitset"))
@pytest.mark.parametrize("eps", (0.5, 1.25))
def test_fractional_eps_is_rejected_not_truncated(backend, eps):
    """Regression: ``int(eps)`` silently turned ``E^0.5`` into ``E^0``.

    The window semantics lives on the discrete time grid, so a fractional eps
    is rejected with a clear error instead of being rounded to a strictly
    stronger formula.
    """
    system = _ragged_clocked_system()
    interpretation = ViewBasedInterpretation(system, backend=backend)
    for formula in (EEps(GROUP, P, eps), CEps(GROUP, P, eps)):
        with pytest.raises(EvaluationError, match="whole time steps"):
            interpretation.extension(formula)
    # The error is part of the library's single-catch hierarchy.
    with pytest.raises(ReproError):
        interpretation.extension(EEps(GROUP, P, eps))


@pytest.mark.parametrize("backend", ("frozenset", "bitset"))
def test_integral_float_eps_still_accepted(backend):
    system = _ragged_clocked_system()
    interpretation = ViewBasedInterpretation(system, backend=backend)
    assert interpretation.extension(EEps(GROUP, P, 1.0)) == interpretation.extension(
        EEps(GROUP, P, 1)
    )


@pytest.mark.parametrize("backend", ("frozenset", "bitset"))
def test_drifting_clock_timestamps_match_within_tolerance(backend):
    """Regression: ``K^T`` compared drifting-clock readings with float ``==``.

    A rate-0.1 clock reads ``0.1 * 3 == 0.30000000000000004`` at time 3; the
    formula timestamp ``0.3`` must still match it.
    """
    builder = RunBuilder("drift", GROUP, 5, clocks={
        "A": scaled_clock(5, 0.1),
        "B": perfect_clock(5),
    })
    builder.add_fact_from(0, "p")
    system = System([builder.build()], name="drift-system")
    interpretation = ViewBasedInterpretation(system, backend=backend)
    run = system.run("drift")
    # The reading at time 3 is not exactly 0.3 in binary floating point...
    assert run.clock_reading("A", 3) != 0.3
    # ...but K^0.3_A p must still see it: p holds everywhere, so the run
    # qualifies and the formula holds at every point of the run.
    assert interpretation.extension(KT("A", P, 0.3)) == frozenset(run.points())
    # A timestamp the clock never reads still yields the empty extension.
    assert interpretation.extension(KT("A", P, 0.35)) == frozenset()


def test_drifting_clock_regression_agrees_across_backends():
    builder = RunBuilder("drift", GROUP, 6, clocks={
        "A": scaled_clock(6, 0.3),
        "B": scaled_clock(6, 1.1, offset=0.2),
    })
    builder.add_fact_from(2, "p")
    system = System([builder.build()], name="drift-both")
    reference, fast = _interpretations(system)
    for timestamp in (0.0, 0.3, 0.6, 0.9, 1.2, 2.4, 3.5):
        for formula in (KT("A", P, timestamp), KT("B", P, timestamp), ET(GROUP, P, timestamp), CT(GROUP, P, timestamp)):
            assert reference.extension(formula) == fast.extension(formula), repr(formula)
