"""Differential tests for the view partitions of :class:`ViewBasedInterpretation`.

Both engine backends build their classes from the same per-processor masks, so
agreement between the backends does not check the grouping itself.  This module
pins it independently, against the definition of Section 6: ``p`` cannot
tell ``q`` from ``q'`` exactly when ``view(p, q) == view(p, q')``.  For every
registered system scenario's default model and a few seeded ``random_protocol``
systems, on both backends, it compares

* ``equivalence_class`` with the brute-force set of equal-view points,
* ``joint_class`` with the intersection of those sets,
* ``reachable`` (with and without ``max_steps``) with a breadth-first search
  over them, and
* ``to_kripke()`` with a transcription of the frozenset-block export, and
  with the public-constructor export it was built by before class ids.

The ``reachable`` argument-validation bugfixes are pinned here too.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.engine import IndexedUniverse
from repro.errors import ModelError, UnknownAgentError
from repro.experiments.registry import KIND_SYSTEM, ScenarioSpec, all_scenarios, get_scenario
from repro.kripke.structure import KripkeStructure
from repro.systems.interpretation import ViewBasedInterpretation

BACKENDS = ("frozenset", "bitset")

RANDOM_PROTOCOL_PARAMS = (
    {"seed": 1, "n_agents": 2, "horizon": 4, "delivery": "async"},
    {"seed": 7, "n_agents": 3, "horizon": 4, "delivery": "unreliable"},
    {"seed": 23, "n_agents": 2, "horizon": 4, "delivery": "bounded"},
)


def _system_cases():
    cases = []
    for spec in all_scenarios():
        model = spec.build(spec.validate_params({})).model
        if ScenarioSpec.kind_of(model) == KIND_SYSTEM:
            cases.append(pytest.param(model, id=f"{spec.name}-default"))
    spec = get_scenario("random_protocol")
    for params in RANDOM_PROTOCOL_PARAMS:
        model = spec.build(spec.validate_params(params)).model
        cases.append(pytest.param(model, id=f"random_protocol-s{params['seed']}"))
    return cases


SYSTEM_CASES = _system_cases()


def _brute_force_classes(interpretation):
    """``processor -> point -> {q : view(p, q) == view(p, point)}``, by definition."""
    points = interpretation.points
    view = interpretation.view.view
    classes = {}
    for processor in interpretation.system.processors:
        views = {point: view(processor, point.run, point.time) for point in points}
        classes[processor] = {
            point: frozenset(q for q in points if views[q] == views[point])
            for point in points
        }
    return classes


def _groups(processors):
    ordered = sorted(processors, key=repr)
    return [
        group
        for size in range(1, len(ordered) + 1)
        for group in combinations(ordered, size)
    ]


def _bfs(classes, group, start, max_steps=None):
    visited = {start}
    frontier = [start]
    steps = 0
    while frontier and (max_steps is None or steps < max_steps):
        next_frontier = []
        for current in frontier:
            for processor in group:
                for neighbour in classes[processor][current]:
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append(neighbour)
        frontier = next_frontier
        steps += 1
    return frozenset(visited)


def _frozenset_block_export(interpretation, classes):
    """The Kripke export as built from per-point frozenset classes."""
    system = interpretation.system
    label = {point: (point.run.name, point.time) for point in interpretation.points}
    valuation = {
        label[point]: interpretation.valuation.facts_at(point)
        for point in interpretation.points
    }
    partitions = {}
    for processor in system.processors:
        seen = set()
        blocks = []
        for point in interpretation.points:
            if point in seen:
                continue
            block = classes[processor][point]
            seen.update(block)
            blocks.append({label[member] for member in block})
        partitions[processor] = blocks
    return KripkeStructure(set(label.values()), system.processors, valuation, partitions)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("system", SYSTEM_CASES)
def test_classes_match_equal_views(system, backend):
    interpretation = ViewBasedInterpretation(system, backend=backend)
    classes = _brute_force_classes(interpretation)
    for processor, class_of in classes.items():
        for point, expected in class_of.items():
            assert interpretation.equivalence_class(processor, point) == expected
    for group in _groups(system.processors):
        for point in interpretation.points:
            expected = frozenset.intersection(*(classes[p][point] for p in group))
            assert interpretation.joint_class(group, point) == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("system", SYSTEM_CASES)
def test_reachable_matches_bfs_over_equal_views(system, backend):
    interpretation = ViewBasedInterpretation(system, backend=backend)
    classes = _brute_force_classes(interpretation)
    for group in _groups(system.processors):
        for point in interpretation.points:
            assert interpretation.reachable(group, point) == _bfs(classes, group, point)
            for max_steps in (0, 1, 2):
                assert interpretation.reachable(
                    group, point, max_steps=max_steps
                ) == _bfs(classes, group, point, max_steps)


def _public_constructor_export(interpretation):
    """``to_kripke()`` as it was built before class ids: each block mask read
    off as a frozenset of labels, through the validating public constructor."""
    labels = IndexedUniverse(
        (point.run.name, point.time) for point in interpretation.points
    )
    valuation = {
        label: interpretation.valuation.facts_at(point)
        for label, point in zip(labels, interpretation.points)
    }
    partitions = {
        processor: [labels.to_frozenset(mask) for mask in interpretation._blocks[processor]]
        for processor in interpretation.system.processors
    }
    return KripkeStructure(labels, interpretation.system.processors, valuation, partitions)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("system", SYSTEM_CASES)
def test_to_kripke_matches_frozenset_block_export(system, backend):
    interpretation = ViewBasedInterpretation(system, backend=backend)
    exported = interpretation.to_kripke()
    for expected in (
        _frozenset_block_export(interpretation, _brute_force_classes(interpretation)),
        _public_constructor_export(interpretation),
    ):
        assert exported == expected
        exported_masks, expected_masks = exported.evaluation_masks(), expected.evaluation_masks()
        assert exported_masks.universe.elements == expected_masks.universe.elements
        assert exported_masks.full == expected_masks.full
        for processor in system.processors:
            assert exported.partition(processor) == expected.partition(processor)
            assert exported_masks.blocks[processor] == expected_masks.blocks[processor]
            assert exported_masks.class_at[processor] == expected_masks.class_at[processor]
        for world in expected_masks.universe.elements:
            assert exported.facts_at(world) == expected.facts_at(world)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reachable_rejects_unknown_processor(backend):
    system = get_scenario("random_protocol").build().model
    interpretation = ViewBasedInterpretation(system, backend=backend)
    point = interpretation.points[0]
    with pytest.raises(UnknownAgentError, match="'Z'"):
        interpretation.reachable(["p0", "Z"], point)
    with pytest.raises(UnknownAgentError, match="'Z'"):
        interpretation.joint_class(["p0", "Z"], point)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reachable_rejects_negative_max_steps(backend):
    system = get_scenario("random_protocol").build().model
    interpretation = ViewBasedInterpretation(system, backend=backend)
    point = interpretation.points[0]
    with pytest.raises(ModelError, match="steps must be non-negative"):
        interpretation.reachable(["p0"], point, max_steps=-1)
    assert interpretation.reachable(["p0"], point, max_steps=0) == frozenset({point})
