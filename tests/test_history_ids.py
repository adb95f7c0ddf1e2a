"""Differential tests for the complete-history class ids.

:meth:`CompleteHistoryView.class_ids` numbers ``h(p, r, t)`` without building
any :class:`~repro.systems.runs.LocalHistory`: it interns the event and reading
sequences as trie paths.  The ids must be exactly the first-appearance
numbering of the histories themselves, list for list, so the partitions and
everything downstream of them are unchanged.  The reference here builds every
history with ``Run.history`` and interns it with a dict.

The hand-built systems aim at the ways a per-step key would go wrong: events
split over steps without a clock, repeated clock readings, wake-ups that a
clockless processor cannot see, asleep points, and ``1`` against ``1.0``.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import KIND_SYSTEM, ScenarioSpec, all_scenarios, get_scenario
from repro.simulation.fuzz import DELIVERY_KINDS
from repro.systems.events import InternalEvent
from repro.systems.runs import Run
from repro.systems.system import System
from repro.systems.views import CompleteHistoryView, ViewFunction


def _interned_histories(system, processor):
    """First-appearance ids of the full histories, in ``system.points()`` order."""
    ids = {}
    return [ids.setdefault(run.history(processor, time), len(ids)) for run, time in system.points()]


def _assert_ids_match(system):
    view = CompleteHistoryView()
    for processor in sorted(system.processors, key=repr):
        expected = _interned_histories(system, processor)
        assert view.class_ids(system, processor) == expected
        assert ViewFunction.class_ids(view, system, processor) == expected


def _registered_systems():
    cases = []
    for spec in all_scenarios():
        model = spec.build(spec.validate_params({})).model
        if ScenarioSpec.kind_of(model) == KIND_SYSTEM:
            cases.append(pytest.param(model, id=f"{spec.name}-default"))
    return cases


@pytest.mark.parametrize("system", _registered_systems())
def test_registered_scenarios(system):
    _assert_ids_match(system)


@pytest.mark.parametrize("delivery", DELIVERY_KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_protocol(seed, delivery):
    spec = get_scenario("random_protocol")
    params = {"seed": seed, "n_agents": 2 + seed % 2, "horizon": 3, "delivery": delivery}
    _assert_ids_match(spec.build(spec.validate_params(params)).model)


E1, E2, E3 = InternalEvent("a"), InternalEvent("b"), InternalEvent("c")


def _ids_by_point(*runs, processor="p"):
    """Check ``runs`` as one system and return ``(run name, time) -> class id``."""
    system = System(runs, name="hand-built")
    _assert_ids_match(system)
    ids = CompleteHistoryView().class_ids(system, processor)
    return {(run.name, time): class_id for (run, time), class_id in zip(system.points(), ids)}


def test_clockless_events_split_across_steps_or_in_one_step():
    # Without a clock the history keeps no step boundaries: by time 2 both
    # runs have observed (a, b), once over two steps and once in one.
    ids = _ids_by_point(
        Run("split", ["p"], 3, events={"p": {0: [E1], 1: [E2]}}),
        Run("joined", ["p"], 3, events={"p": {1: [E1, E2]}}),
        Run("later", ["p"], 3, events={"p": {2: [E1, E2]}}),
    )
    assert ids["split", 1] != ids["joined", 1]
    assert ids["split", 2] == ids["joined", 2] != ids["later", 2]
    assert ids["split", 3] == ids["joined", 3] == ids["later", 3]


def test_repeated_clock_readings():
    clock = (5, 5, 5, 6)
    ids = _ids_by_point(
        Run("early", ["p"], 3, events={"p": {0: [E1]}}, clocks={"p": clock}),
        Run("late", ["p"], 3, events={"p": {1: [E1]}}, clocks={"p": clock}),
        Run("other", ["p"], 3, events={"p": {1: [E1]}}, clocks={"p": (5, 5, 6, 6)}),
    )
    assert ids["early", 1] != ids["late", 1]  # one has seen the event, one has not
    assert ids["early", 2] == ids["late", 2]  # both saw (5, a), readings (5, 5, 5)
    assert ids["early", 3] == ids["late", 3]
    assert ids["other", 2] != ids["late", 2]


def test_different_wake_times_without_events():
    # A clockless processor cannot tell when it woke up; a clocked one can.
    ids = _ids_by_point(
        Run("w0", ["p"], 3, wake_times={"p": 0}),
        Run("w1", ["p"], 3, wake_times={"p": 1}),
        Run("w2", ["p"], 3, wake_times={"p": 2}, initial_states={"p": "s"}),
    )
    assert ids["w0", 3] == ids["w1", 3] != ids["w2", 3]
    assert ids["w1", 0] != ids["w0", 0] == ids["w1", 1]
    clock = (0.0, 1.0, 2.0, 3.0)
    ids = _ids_by_point(
        Run("w0", ["p"], 3, wake_times={"p": 0}, clocks={"p": clock}),
        Run("w1", ["p"], 3, wake_times={"p": 1}, clocks={"p": clock}),
    )
    assert ids["w0", 3] != ids["w1", 3]


def test_asleep_points():
    runs = (
        Run("a", ["p", "q"], 2, wake_times={"p": 2, "q": 0}, events={"q": {0: [E1]}}),
        Run("b", ["p", "q"], 2, wake_times={"p": 5, "q": 1}, clocks={"p": (1, 2, 3)}),
        Run("c", ["p", "q"], 2, wake_times={"p": 1}, events={"p": {1: [E2]}}),
    )
    ids = _ids_by_point(*runs)
    asleep = {ids["a", 0], ids["a", 1], ids["b", 0], ids["b", 1], ids["b", 2], ids["c", 0]}
    assert len(asleep) == 1
    assert asleep.isdisjoint({ids["a", 2], ids["c", 1], ids["c", 2]})
    ids = _ids_by_point(*runs, processor="q")
    assert ids["b", 0] != ids["a", 0] == ids["c", 0]


def test_int_and_float_values_intern_alike():
    ids = _ids_by_point(
        Run("int", ["p"], 2, initial_states={"p": 1}, clocks={"p": (1, 2, 3)},
            events={"p": {0: [E1]}}),
        Run("float", ["p"], 2, initial_states={"p": 1.0}, clocks={"p": (1.0, 2.0, 3.0)},
            events={"p": {0: [E1]}}),
        Run("mixed", ["p"], 2, initial_states={"p": 1}, clocks={"p": (1, 2.5, 3)},
            events={"p": {0: [E3]}}),
    )
    assert all(ids["int", t] == ids["float", t] for t in range(3))
    assert ids["mixed", 0] == ids["int", 0] and ids["mixed", 1] != ids["int", 1]


def test_clocked_and_clockless_runs_never_share_ids():
    ids = _ids_by_point(Run("clockless", ["p"], 1), Run("clocked", ["p"], 1, clocks={"p": (0, 1)}))
    assert {ids["clockless", 0], ids["clockless", 1]}.isdisjoint(
        {ids["clocked", 0], ids["clocked", 1]}
    )
