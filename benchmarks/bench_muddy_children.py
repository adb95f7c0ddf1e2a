"""E1 / E12 — the muddy children puzzle and announcement dynamics (Sections 2, 10).

Besides the timed puzzle runs, two checks use no benchmark fixture, so they
also run under ``--benchmark-disable``, which is how CI runs this directory:

* the paper's claims at the largest allowed size, ``n = 16``: before the
  father speaks ``E^{k-1} m`` holds at the actual world and ``E^k m`` does
  not, and after his announcement ``m`` is common knowledge;
* ``test_cube_path_beats_block_path`` is the ratio gate of the hypercube
  model.  On muddy ``n = 12``, unannounced and announced, it first checks that
  a ``kripke_sweep``-style batch (``E^1 .. E^3``, ``D``, ``C``, nested ``C``
  and ``nu``) gives the same summaries as on the seed's rebuild
  (:func:`~repro.kripke.reference.others_attribute_rebuild`, plus
  :func:`~repro.kripke.reference.restrict_rebuild` for the announcement).
  Then it times, :data:`PAIRS` times back to back, building the model and
  evaluating the batch on the block-mask structure the builder made before the
  cube (:func:`~repro.kripke.reference.others_attribute_class_ids`) and on the
  cube, and asserts that the median per-pair ratio (block time / cube time) is
  at least :data:`RATIO_FLOOR`.
"""

import statistics
import time

import pytest

from repro.kripke.announcement import public_announce
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import (
    others_attribute_class_ids,
    others_attribute_rebuild,
    restrict_rebuild,
)
from repro.logic.parser import parse
from repro.logic.syntax import C, E, Prop
from repro.scenarios.muddy_children import MuddyChildren, run_muddy_children

RATIO_FLOOR = 10.0
PAIRS = 9
GATE_N = 12


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 4)])
def test_muddy_children_rounds(benchmark, n, k):
    """Muddy children answer "yes" in exactly round k (scaling n)."""
    result = benchmark(run_muddy_children, n, k)
    assert result.first_yes_round == k
    assert result.muddy_children_answered_yes


@pytest.mark.parametrize("n", [4, 6, 8])
def test_e_level_before_announcement(benchmark, n):
    """Before the father speaks, E^{k-1} m holds but E^k m does not (k = n//2)."""
    k = n // 2
    puzzle = MuddyChildren(n, muddy=list(range(k)))
    level = benchmark(puzzle.e_level_of_m)
    assert level == k - 1


@pytest.mark.parametrize("n", [4, 6, 8])
def test_announcement_creates_common_knowledge(benchmark, n):
    """E12: the father's public announcement makes m common knowledge."""
    puzzle = MuddyChildren(n, muddy=list(range(2)))

    def publish():
        announced = public_announce(puzzle.model, puzzle.at_least_one_muddy)
        return ModelChecker(announced).holds(
            C(puzzle.children, puzzle.at_least_one_muddy), puzzle.actual_world
        )

    assert benchmark(publish)


@pytest.mark.parametrize("k", [1, 3, 16])
def test_paper_claims_at_n16(k):
    """Section 2 at n = 16: the E^{k-1} m / E^k m boundary, then C m."""
    puzzle = MuddyChildren(16, muddy=list(range(k)))
    m = puzzle.at_least_one_muddy
    checker = ModelChecker(puzzle.model)
    if k > 1:
        assert checker.holds(E(puzzle.children, m, k - 1), puzzle.actual_world)
    assert not checker.holds(E(puzzle.children, m, k), puzzle.actual_world)
    assert not checker.holds(C(puzzle.children, m), puzzle.actual_world)
    assert puzzle.common_knowledge_of_m_after_announcement()


# -- the cube/block ratio gate ---------------------------------------------------

_GROUP = "{child_0,child_2,child_3,child_5,child_6}"
_BATCH = [
    parse(text)
    for text in (
        "at_least_one",
        f"E^1_{_GROUP} at_least_one",
        f"E^2_{_GROUP} at_least_one",
        f"E^3_{_GROUP} at_least_one",
        "D_{child_1,child_2,child_4} muddy_child_4",
        f"C_{_GROUP} at_least_one",
        f"C_{{child_1,child_3}} C_{_GROUP} at_least_one",
        f"nu X. E_{_GROUP} (at_least_one & X)",
    )
]
_CHILDREN = [f"child_{i}" for i in range(GATE_N)]
_FOCUS = (True, True, True) + (False,) * (GATE_N - 3)


def _summaries(build, announced):
    """Build the model, announce ``m`` if asked, and evaluate the batch."""
    model = build(_CHILDREN)
    if announced:
        model = public_announce(model, Prop("at_least_one"))
    return ModelChecker(model, backend="bitset").engine.summaries(_BATCH, _FOCUS)


def _seconds(function, *args):
    start = time.perf_counter()
    function(*args)
    return time.perf_counter() - start


@pytest.mark.parametrize("announced", [False, True])
def test_cube_path_beats_block_path(announced):
    """Same answers as the seed's rebuild, and at least RATIO_FLOOR times
    faster than the block-mask structure, model build included."""
    reference = others_attribute_rebuild(_CHILDREN)
    if announced:
        at_least_one = ModelChecker(reference, backend="frozenset").extension(
            Prop("at_least_one")
        )
        reference = restrict_rebuild(reference, at_least_one)
    expected = ModelChecker(reference, backend="bitset").engine.summaries(_BATCH, _FOCUS)
    assert _summaries(others_attribute_model, announced) == expected
    assert _summaries(others_attribute_class_ids, announced) == expected
    ratios = []
    for _ in range(PAIRS):
        cube = _seconds(_summaries, others_attribute_model, announced)
        blocks = _seconds(_summaries, others_attribute_class_ids, announced)
        ratios.append(blocks / cube)
    ratio = statistics.median(ratios)
    assert ratio >= RATIO_FLOOR, (
        f"the cube path should be at least {RATIO_FLOOR}x faster than block "
        f"scans; median ratio {ratio:.1f} over {PAIRS} pairs"
    )
