"""Differential harness: the bitset backend must agree with the frozenset reference.

The engine refactor (see ``repro/engine``) is only admissible because the fast bitset
backend is *observably identical* to the reference semantics.  This module enforces
that with seeded random formula generation (no network, no wall clock): hundreds of
closed formulas covering every operator the checker supports, evaluated on the
muddy-children model, the coordinated-attack handshake model, and random Kripke
structures.  Each suite is evaluated twice: as generated, and with every
``C_G phi`` written as Appendix A's greatest fixed point ``nu Y. E_G(phi & Y)``.
"""

from __future__ import annotations

import functools
import zlib

import pytest

from _engine_gen import (
    STATIC_NODE_TYPES,
    TEMPORAL_NODE_TYPES,
    common_as_fixpoint,
    formula_suite,
    node_types_used,
    random_structure,
)
from repro.kripke.checker import ModelChecker
from repro.logic.syntax import Common
from repro.scenarios.coordinated_attack import build_handshake_system
from repro.kripke.builders import others_attribute_model
from repro.systems.interpretation import ViewBasedInterpretation

# How many random formulas each structure contributes.  The totals deliberately
# exceed the 200-formula floor of the harness spec.
_SUITE_SIZES = {
    "muddy-children": 90,
    "coordinated-attack": 60,
    "random-101": 40,
    "random-202": 40,
    "random-303": 40,
}


@functools.lru_cache(maxsize=None)
def _structure(name):
    if name == "muddy-children":
        return others_attribute_model(("a", "b", "c"))
    if name == "coordinated-attack":
        system = build_handshake_system(depth=2, horizon=5)
        return ViewBasedInterpretation(system).to_kripke()
    seed = int(name.split("-")[1])
    return random_structure(seed, n_worlds=14, n_agents=3, n_props=4)


@functools.lru_cache(maxsize=None)
def _suite(name):
    structure = _structure(name)
    props = sorted(structure.propositions())
    agents = sorted(structure.agents, key=repr)
    # crc32 rather than hash(): str hashing is salted per process, crc32 is stable.
    seed = zlib.crc32(name.encode("utf-8"))
    return formula_suite(seed, props, agents, _SUITE_SIZES[name])


def test_suite_is_large_and_covers_every_static_operator():
    """The generated corpus meets the harness floor: >= 200 formulas, all operators."""
    all_formulas = [f for name in _SUITE_SIZES for f in _suite(name)]
    assert len(all_formulas) >= 200
    used = node_types_used(all_formulas)
    missing = set(STATIC_NODE_TYPES) - used
    assert not missing, f"generator never produced {sorted(t.__name__ for t in missing)}"


@pytest.mark.parametrize("name", sorted(_SUITE_SIZES))
@pytest.mark.parametrize("form", ["reachability", "fixpoint"])
def test_bitset_backend_matches_reference(name, form):
    """Extension-by-extension agreement on every generated formula.

    In the ``fixpoint`` form every ``C_G phi`` is first written as Appendix A's
    ``nu Y. E_G(phi & Y)``, and both backends must still produce the
    reference's extension of the formula as generated.
    """
    structure = _structure(name)
    suite = _suite(name)
    reference = ModelChecker(structure, backend="frozenset")
    fast = ModelChecker(structure, backend="bitset")
    if form == "fixpoint":
        assert any(isinstance(sub, Common) for f in suite for sub in f.subformulas())
    for formula in suite:
        expected = reference.extension(formula)
        evaluated = common_as_fixpoint(formula) if form == "fixpoint" else formula
        for checker in (reference, fast):
            actual = checker.extension(evaluated)
            assert actual == expected, (
                f"{checker.backend} disagrees with the reference on {name} "
                f"({form}): {evaluated!r}\n"
                f"  reference: {sorted(map(repr, expected))}\n"
                f"  {checker.backend}: {sorted(map(repr, actual))}"
            )


@pytest.mark.parametrize("name", sorted(_SUITE_SIZES))
def test_batch_api_matches_single_queries(name):
    """``extensions`` (the shared-memo batch API) equals formula-by-formula calls."""
    structure = _structure(name)
    suite = _suite(name)
    for backend in ("frozenset", "bitset"):
        checker = ModelChecker(structure, backend=backend)
        batched = checker.extensions(suite)
        fresh = ModelChecker(structure, backend=backend)
        assert batched == [fresh.extension(f) for f in suite]


def test_backends_agree_on_full_system_language():
    """On a runs-and-systems model the agreement extends to the temporal operators."""
    system = build_handshake_system(depth=2, horizon=5)
    reference = ViewBasedInterpretation(system, backend="frozenset")
    fast = ViewBasedInterpretation(system, backend="bitset")
    props = ["intend_attack", "delivered"]
    agents = sorted(system.processors, key=repr)
    suite = formula_suite(0xC0FFEE, props, agents, 40, temporal=True, max_depth=3)
    used = node_types_used(suite)
    missing = set(TEMPORAL_NODE_TYPES) - used
    assert not missing, f"generator never produced {sorted(t.__name__ for t in missing)}"
    for formula in suite:
        expected = reference.extension(formula)
        actual = fast.extension(formula)
        assert actual == expected, f"backends disagree on system formula {formula!r}"


def test_environment_values_outside_universe_agree_across_backends():
    """Environment extensions mentioning foreign elements are clipped identically.

    Regression: the bitset backend cannot represent non-worlds, so without
    boundary clipping it raised KeyError where the reference accepted them.
    """
    from repro.logic.syntax import Not, Var, prop

    structure = _structure("muddy-children")
    real = frozenset([(True, True, False), (False, False, False)])
    env = {"X": real | frozenset(["not-a-world", 42])}
    results = {}
    for backend in ("frozenset", "bitset"):
        checker = ModelChecker(structure, backend=backend)
        results[backend] = (
            checker.extension(Var("X"), env),
            checker.extension(Not(Var("X")), env),
            checker.extension(Var("X") | prop("at_least_one"), env),
        )
    assert results["frozenset"] == results["bitset"]
    assert results["frozenset"][0] == real  # foreign elements are dropped


def test_backends_agree_on_muddy_children_validities():
    """Validity / satisfiability verdicts (not just extensions) also coincide."""
    structure = _structure("muddy-children")
    reference = ModelChecker(structure, backend="frozenset")
    fast = ModelChecker(structure, backend="bitset")
    for formula in _suite("muddy-children"):
        assert reference.is_valid(formula) == fast.is_valid(formula)
        assert reference.is_satisfiable(formula) == fast.is_satisfiable(formula)
