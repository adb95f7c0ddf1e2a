"""E18 — indexing a system by interned history ids instead of whole histories.

A processor cannot tell two points apart exactly when its local histories
there are equal (Sections 5-6), so indexing a system under the complete-history
view numbers each processor's histories.  The default
:meth:`~repro.systems.views.ViewFunction.class_ids` body builds
``h(p, r, t)`` with ``Run.history`` at every point and hashes all of it;
:meth:`~repro.systems.views.CompleteHistoryView.class_ids` interns the event
and reading sequences as trie paths in one pass per (processor, run) and never
builds a history.

``test_history_ids_speedup`` pins the claim on ``sequence_transmission
n_bits=3 horizon=4`` (224 runs, 1120 points): after checking that the two
id lists are equal, the interned path is at least :data:`SPEEDUP_FLOOR` times
faster than the default body on the same system.  Each repetition builds a
fresh system, because ``Run.history`` caches what it builds, and times the
two paths back to back; the gate reads the median of the per-pair ratios, so
a slow spell of the host hits both sides of a pair.
"""

import statistics
import time

from repro.experiments.registry import get_scenario
from repro.systems.views import CompleteHistoryView, ViewFunction

SPEEDUP_FLOOR = 3.0
PAIRS = 15
PARAMS = {"n_bits": 3, "horizon": 4}

VIEW = CompleteHistoryView()


def build_system():
    spec = get_scenario("sequence_transmission")
    return spec.build(spec.validate_params(PARAMS)).model


def interned_ids(system):
    """Every processor's ids through the complete-history trie path."""
    return [VIEW.class_ids(system, p) for p in sorted(system.processors, key=repr)]


def default_ids(system):
    """Every processor's ids through the default body: one ``view()`` per point."""
    return [
        ViewFunction.class_ids(VIEW, system, p) for p in sorted(system.processors, key=repr)
    ]


def _seconds(callable_, system):
    start = time.perf_counter()
    callable_(system)
    return time.perf_counter() - start


def test_interned_ids_wall_clock(benchmark):
    system = build_system()
    benchmark.extra_info["points"] = system.point_count()
    benchmark.pedantic(interned_ids, args=(system,), rounds=5, iterations=1, warmup_rounds=1)


def test_history_ids_speedup():
    """The interned ids equal the default ones and come >= 3x faster."""
    assert interned_ids(build_system()) == default_ids(build_system())
    ratios = []
    for _ in range(PAIRS):
        system = build_system()
        interned = _seconds(interned_ids, system)
        default = _seconds(default_ids, system)
        ratios.append(default / interned)
    ratio = statistics.median(ratios)
    assert ratio >= SPEEDUP_FLOOR, (
        f"interned history ids should be at least {SPEEDUP_FLOOR}x faster than "
        f"the default view() body; median ratio {ratio:.2f} over {PAIRS} pairs"
    )
