"""E15 — worklist bisimulation and the minimisation on/off ablation.

Two questions, one module:

* how fast is the bitset worklist partition refinement
  (:func:`repro.kripke.bisimulation.bisimulation_classes`) on structures with
  and without collapsible state, and
* what does minimisation buy (or cost) for model checking — the on/off ablation
  the bisimulation module's docstring promises.

The redundant workload is an "inflated" muddy-children model: every world is
duplicated into ``COPIES`` indistinguishable clones, which the quotient must
fold back together (a stand-in for the duplicated points that runs-and-systems
translations produce).  The ablation checks the same formula batch on the full
model and on its quotient and asserts the answers agree; the pytest-benchmark
timings measure both sides.
"""

import pytest

from repro.experiments import ExperimentRunner
from repro.kripke.bisimulation import bisimulation_classes, quotient
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.structure import KripkeStructure
from repro.logic.syntax import C, E, Prop

CHILDREN = tuple(f"child_{i}" for i in range(7))
COPIES = 4


def _inflated_muddy_model():
    """The 7-child muddy model with every world cloned COPIES times (512 worlds)."""
    base = others_attribute_model(CHILDREN)
    worlds = [(world, copy) for world in base.worlds for copy in range(COPIES)]
    valuation = {(world, copy): base.facts_at(world) for world, copy in worlds}
    partitions = {
        agent: [
            {(world, copy) for world in block for copy in range(COPIES)}
            for block in base.partition(agent)
        ]
        for agent in base.agents
    }
    return KripkeStructure(worlds, base.agents, valuation, partitions)


def _formula_batch():
    m = Prop("at_least_one")
    return [E(CHILDREN, m, level) for level in range(1, 5)] + [C(CHILDREN, m)]


@pytest.fixture(scope="module")
def inflated_model():
    return _inflated_muddy_model()


def test_worklist_refinement_on_inflated_model(benchmark, inflated_model):
    """Partition refinement where every block must split down to the clones."""
    benchmark.extra_info["worlds"] = len(inflated_model)
    classes = benchmark(bisimulation_classes, inflated_model)
    assert len(classes) == 2 ** len(CHILDREN)


def test_worklist_refinement_on_minimal_model(benchmark):
    """Partition refinement on an already-minimal model (the hard, no-win case)."""
    model = others_attribute_model(tuple(f"c{i}" for i in range(8)))
    benchmark.extra_info["worlds"] = len(model)
    classes = benchmark(bisimulation_classes, model)
    assert len(classes) == len(model)  # every world is its own class


def test_checking_without_minimisation(benchmark, inflated_model):
    """Ablation arm 1: check the formula batch on the full 512-world model."""
    benchmark.extra_info["worlds"] = len(inflated_model)
    benchmark.extra_info["backend"] = "bitset"

    def check():
        return ModelChecker(inflated_model, backend="bitset").extensions(
            _formula_batch()
        )

    extensions = benchmark(check)
    assert len(extensions) == len(_formula_batch())


def test_checking_with_minimisation(benchmark, inflated_model):
    """Ablation arm 2: quotient first, then check on the 128-class model.

    The timed body includes the partition refinement itself, so the two arms
    compare end-to-end cost, not just the final query.
    """
    benchmark.extra_info["worlds"] = len(inflated_model)
    benchmark.extra_info["backend"] = "bitset"

    def minimise_and_check():
        reduced, class_of = quotient(inflated_model)
        return reduced, class_of, ModelChecker(reduced, backend="bitset").extensions(
            _formula_batch()
        )

    reduced, class_of, reduced_extensions = benchmark(minimise_and_check)
    assert len(reduced) == 2 ** len(CHILDREN)
    # The ablation is only meaningful if both arms give the same answers.
    full_extensions = ModelChecker(inflated_model, backend="bitset").extensions(
        _formula_batch()
    )
    for full, reduced_ext in zip(full_extensions, reduced_extensions):
        for world in inflated_model.worlds:
            assert (world in full) == (class_of[world] in reduced_ext)


def test_runner_minimize_flag_round_trip():
    """The runner's minimize=True arm agrees with minimize=False at the focus."""
    runner = ExperimentRunner()
    plain = runner.run("muddy_children", {"n": 6, "k": 3})
    reduced = runner.run("muddy_children", {"n": 6, "k": 3}, minimize=True)
    assert reduced.minimized and not plain.minimized
    assert [row.holds_at_focus for row in plain.rows] == [
        row.holds_at_focus for row in reduced.rows
    ]
    assert [row.satisfiable for row in plain.rows] == [
        row.satisfiable for row in reduced.rows
    ]
