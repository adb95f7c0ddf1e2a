"""The random-protocol differential harness (fuzzing the simulator end to end).

Every test here runs *generated* scenarios — seeded random protocols from
:mod:`repro.simulation.fuzz` across the delivery-model matrix — and checks that
independent implementations agree:

* the frozenset reference backend and the bitset fast path compute identical
  extensions, for the standard fuzz suite and for randomly generated formulas;
* a parallel ``--jobs`` sweep of the registered ``random_protocol`` scenario
  reproduces the serial sweep row for row (workers rebuild the generated
  protocols from the registry, so this is the cross-process determinism claim);
* evaluation on the bisimulation quotient (``minimize=True``) preserves
  satisfiability, validity and focus truth for static formulas.

The default (tier-1) seed range is fixed so failures replay exactly;
``--fuzz-extended`` widens it, and ``FUZZ_SEED_OFFSET`` rotates the window for
the scheduled CI job (see ``tests/conftest.py``).
"""

from __future__ import annotations

import pytest

from _engine_gen import formula_suite
from repro.engine import BACKENDS, set_default_backend
from repro.experiments import ExperimentRunner
from repro.simulation.fuzz import (
    ACTION_LABELS,
    DELIVERY_KINDS,
    fuzz_formulas,
    fuzz_processors,
    random_protocol,
    random_system,
)
from repro.systems.interpretation import ViewBasedInterpretation


def comparable(reports):
    """Everything a sweep promises deterministically (timings excluded)."""
    return [
        (
            report.scenario,
            tuple(sorted(report.params.items())),
            report.backend,
            report.kind,
            report.universe,
            report.focus,
            report.minimized,
            [tuple(sorted(row.to_dict().items())) for row in report.rows],
        )
        for report in reports
    ]


# -- backend differential over the full fuzz matrix -----------------------------


def test_backends_agree_across_fuzz_matrix(fuzz_seeds):
    """Frozenset and bitset extensions agree on every (seed, delivery) system.

    This is the headline fuzz differential: 50 seeds x 4 delivery kinds = 200
    generated protocols on the default range (800 under ``--fuzz-extended``),
    each evaluated on both backends over the standard knowledge/temporal suite.
    """
    checked = 0
    for seed in fuzz_seeds:
        for kind in DELIVERY_KINDS:
            system = random_system(seed, delivery=kind)
            suite = fuzz_formulas(fuzz_processors(2))
            reference = ViewBasedInterpretation(system, backend="frozenset")
            fast = ViewBasedInterpretation(system, backend="bitset")
            for label, formula in suite.items():
                assert reference.extension(formula) == fast.extension(formula), (
                    f"backend disagreement: seed={seed} delivery={kind} "
                    f"formula={label!r}"
                )
            checked += 1
    assert checked >= 200


def test_backends_agree_on_random_formulas(fuzz_seeds):
    """Random formulas (temporal operators included) over the fuzz vocabulary."""
    processors = fuzz_processors(2)
    props = (
        "quiet",
        *(f"recv_{p}" for p in processors),
        *(f"did_{label}_{p}" for label in ACTION_LABELS for p in processors),
    )
    for seed in list(fuzz_seeds)[::5]:
        kind = DELIVERY_KINDS[seed % len(DELIVERY_KINDS)]
        system = random_system(seed, delivery=kind)
        reference = ViewBasedInterpretation(system, backend="frozenset")
        fast = ViewBasedInterpretation(system, backend="bitset")
        for formula in formula_suite(seed, props, processors, count=6, temporal=True):
            assert reference.extension(formula) == fast.extension(formula), (
                f"backend disagreement: seed={seed} delivery={kind} "
                f"formula={formula}"
            )


def test_generated_protocols_are_deterministic(fuzz_seeds):
    """Rebuilding the same seed yields the identical system of runs."""
    for seed in list(fuzz_seeds)[::10]:
        first = random_system(seed, delivery="unreliable")
        second = random_system(seed, delivery="unreliable")
        assert first.name == second.name
        assert list(first.runs) == list(second.runs)


def test_distinct_seeds_usually_differ():
    """The generator actually varies behaviour with the seed (not a constant)."""
    signatures = set()
    for seed in range(20):
        protocol = random_protocol(seed)
        system = random_system(seed, delivery="bounded")
        signatures.add(
            (
                protocol.seed,
                len(system.runs),
                tuple(run.name for run in system.runs),
            )
        )
    assert len(signatures) > 10


# -- serial vs parallel sweeps over the registered family -----------------------


def test_parallel_sweep_matches_serial_on_fuzzed_scenario(
    fuzz_seeds, pool_after_first_point
):
    """``--jobs`` workers rebuild generated protocols and match the serial rows."""
    seeds = list(fuzz_seeds)[:4]
    grid = {"seed": seeds, "delivery": ["reliable", "unreliable"]}
    serial = ExperimentRunner().sweep("random_protocol", grid)
    parallel = ExperimentRunner().sweep("random_protocol", grid, jobs=2)
    assert pool_after_first_point() == 1
    assert comparable(parallel) == comparable(serial)


def test_parallel_sweep_matches_serial_both_backends(
    fuzz_seeds, pool_after_first_point
):
    """Same identity under each engine default backend (workers follow it)."""
    seeds = list(fuzz_seeds)[:3]
    grid = {"seed": seeds, "delivery": ["async"]}
    for started, backend in enumerate(BACKENDS, start=1):
        set_default_backend(backend)  # the autouse fixture restores the default
        serial = ExperimentRunner().sweep("random_protocol", grid)
        parallel = ExperimentRunner().sweep("random_protocol", grid, jobs=2)
        assert pool_after_first_point() == started
        assert {report.backend for report in parallel} == {backend}
        assert comparable(parallel) == comparable(serial)


# -- minimize differential ------------------------------------------------------

STATIC_FORMULAS = [
    ("quiet", "quiet"),
    ("K quiet", "K_p0 quiet"),
    ("E quiet", "E_{p0,p1} quiet"),
    ("C quiet", "C_{p0,p1} quiet"),
    ("K recv", "K_p1 recv_p1"),
]


def invariant_under_minimize(reports):
    """The fields bisimulation quotienting must preserve, per report row."""
    return [
        (
            report.scenario,
            tuple(sorted(report.params.items())),
            [(row.label, row.satisfiable, row.valid, row.holds_at_focus) for row in report.rows],
        )
        for report in reports
    ]


def test_minimize_preserves_static_verdicts(fuzz_seeds):
    """minimize=True evaluates on the quotient but keeps sat/valid verdicts."""
    seeds = list(fuzz_seeds)[:6]
    grid = {"seed": seeds, "delivery": ["unreliable"]}
    plain = ExperimentRunner().sweep("random_protocol", grid, formulas=STATIC_FORMULAS)
    minimized = ExperimentRunner().sweep(
        "random_protocol", grid, formulas=STATIC_FORMULAS, minimize=True
    )
    assert all(report.minimized for report in minimized)
    assert invariant_under_minimize(minimized) == invariant_under_minimize(plain)
