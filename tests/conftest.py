"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest

from repro.engine import set_default_backend
from repro.kripke.builders import others_attribute_model, shared_memory_model
from repro.kripke.checker import ModelChecker
from repro.logic.syntax import prop
from repro.scenarios.coordinated_attack import build_handshake_system
from repro.simulation.network import Unreliable
from repro.simulation.protocol import Action, Protocol
from repro.simulation.simulator import simulate
from repro.systems.interpretation import ViewBasedInterpretation


THREE_CHILDREN = ("a", "b", "c")


def pytest_addoption(parser):
    parser.addoption(
        "--engine-backend",
        action="store",
        default="bitset",
        choices=("frozenset", "bitset", "both"),
        help=(
            "Which repro.engine backend evaluators default to for the whole suite: "
            "the bitset production backend (default), the frozenset oracle, or "
            "both (parametrizes every test over the two backends)."
        ),
    )
    parser.addoption(
        "--fuzz-extended",
        action="store_true",
        default=False,
        help=(
            "Widen the random-protocol fuzz matrix (tests/test_dsl_fuzz.py) from "
            "the fixed PR seeds to the extended range; combine with the "
            "FUZZ_SEED_OFFSET environment variable to rotate which seeds the "
            "scheduled CI run draws."
        ),
    )


@pytest.fixture(scope="session")
def fuzz_seeds(request):
    """The fuzz-seed range for this test run.

    The default (tier-1/PR) range is fixed so failures reproduce exactly;
    ``--fuzz-extended`` widens it and honours ``FUZZ_SEED_OFFSET`` so the
    scheduled CI job sweeps a rotating window of the seed space.
    """
    import os

    offset = int(os.environ.get("FUZZ_SEED_OFFSET", "0"))
    count = 200 if request.config.getoption("--fuzz-extended") else 50
    return range(offset, offset + count)


def pytest_generate_tests(metafunc):
    if "engine_backend" in metafunc.fixturenames:
        option = metafunc.config.getoption("--engine-backend")
        if option == "both":
            metafunc.parametrize(
                "engine_backend", ["frozenset", "bitset"], indirect=True
            )


@pytest.fixture(autouse=True)
def engine_backend(request):
    """Run every test under the backend selected by ``--engine-backend``.

    Tier-1 (`pytest -x -q`) runs the bitset production backend; a second pass
    with ``--engine-backend frozenset`` (or one combined run with ``both``) puts
    the exact same suite on the frozenset oracle.  Evaluators constructed without
    an explicit ``backend=`` argument pick up this process-wide default, and so
    do the runner, the CLI and the service.
    """
    backend = getattr(request, "param", None)
    if backend is None:
        backend = request.config.getoption("--engine-backend")
        if backend == "both":
            backend = "bitset"
    previous = set_default_backend(backend)
    try:
        yield backend
    finally:
        set_default_backend(previous)


@pytest.fixture
def pool_after_first_point(monkeypatch):
    """Make every ``jobs > 1`` sweep hand its misses to the pool after one point.

    A ``jobs > 1`` sweep starts in-process and moves to the pool only once
    the measured work pays for the pool's start-up
    (:func:`repro.experiments.runner.pool_pays`), which the test grids never
    reach.  With ``POOL_START_SECONDS`` at 0 the first in-process point
    always pays for it, as long as at least two points remain.  Returns a
    callable counting the pools the test's sweeps started, so a test can
    assert that it really reached the pool.
    """
    from repro.experiments import runner, supervise

    monkeypatch.setattr(runner, "POOL_START_SECONDS", 0.0)
    supervisors = []
    run = supervise.SweepSupervisor.run

    def recording_run(self):
        supervisors.append(self)
        return run(self)

    monkeypatch.setattr(supervise.SweepSupervisor, "run", recording_run)
    return lambda: sum(supervisor.pool_starts for supervisor in supervisors)


@pytest.fixture(scope="session")
def muddy_model():
    """The 8-world muddy-children model for three children."""
    return others_attribute_model(THREE_CHILDREN)


@pytest.fixture
def muddy_checker(muddy_model, engine_backend):
    # Function-scoped on purpose: a checker captures the engine backend at
    # construction, so a session-scoped instance would silently keep the first
    # test's backend for the whole run under ``--engine-backend both``.  The
    # model itself is backend-free and stays session-scoped.
    return ModelChecker(muddy_model)


class _SendOnce(Protocol):
    """A sends a single message to B at time 0 (used by several system fixtures)."""

    def step(self, processor, history, time):
        if processor == "A" and time == 0 and not history.sent_messages():
            return Action.send("B", "hello")
        return Action.nothing()


def _delivered_fact(run):
    facts = {}
    for t in run.times():
        if run.history("B", t).received_messages():
            facts[t] = {"delivered"}
    # The fact is about the point itself, so also mark the time of receipt.
    for t in run.times():
        if any(type(e).__name__ == "ReceiveEvent" for e in run.events_at("B", t)):
            for later in range(t, run.duration + 1):
                facts.setdefault(later, set()).add("delivered")
    return {t: frozenset(v) for t, v in facts.items()}


@pytest.fixture(scope="session")
def lossy_two_processor_system():
    """A two-processor system over an unreliable link (one message, lost or delivered)."""
    return simulate(
        _SendOnce(),
        ["A", "B"],
        duration=3,
        delivery=Unreliable(delay=1),
        fact_rules=[_delivered_fact],
        system_name="lossy-two",
    )


@pytest.fixture
def lossy_interpretation(lossy_two_processor_system, engine_backend):
    # Function-scoped for the same reason as muddy_checker: the interpretation
    # binds its backend at construction time.
    return ViewBasedInterpretation(lossy_two_processor_system)


@pytest.fixture(scope="session")
def handshake_system():
    """The depth-2 coordinated-attack handshake system (small but rich)."""
    return build_handshake_system(depth=2, horizon=5)
