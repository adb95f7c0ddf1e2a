"""Tests for protocols, delivery models and the exhaustive simulator."""

import sys

import pytest

from repro.errors import ModelError, ProtocolError, SimulationError
from repro.experiments.registry import get_scenario
from repro.simulation.network import (
    Asynchronous,
    BoundedUncertain,
    ReliableSynchronous,
    Unreliable,
)
from repro.simulation.protocol import (
    Action,
    FunctionProtocol,
    JointProtocol,
    SilentProtocol,
    as_joint_protocol,
)
from repro.simulation.simulator import Environment, Simulator, simulate
from repro.systems.events import Message
from repro.systems.runs import Run


class TestActions:
    def test_action_builders_compose(self):
        action = Action.send("B", "x").also_act("decide", 1).also_send("C", "y")
        assert len(action.sends) == 2
        assert action.internal[0].label == "decide"

    def test_nothing_is_empty(self):
        assert Action.nothing().sends == ()
        assert Action.nothing().internal == ()


class TestJointProtocols:
    def test_single_protocol_is_broadcast_to_all(self):
        joint = as_joint_protocol(SilentProtocol(), ["A", "B"])
        assert set(joint.processors) == {"A", "B"}

    def test_mapping_must_cover_all_processors(self):
        with pytest.raises(ProtocolError):
            as_joint_protocol({"A": SilentProtocol()}, ["A", "B"])

    def test_function_protocol_validates_return_type(self):
        bad = FunctionProtocol(lambda processor, history, time: "not an action")
        with pytest.raises(ProtocolError):
            bad.step("A", None, 0)


class TestDeliveryModels:
    MESSAGE = Message("A", "B", "x", uid=0)

    def test_reliable_synchronous(self):
        assert ReliableSynchronous(2).outcomes(self.MESSAGE, 1, 10) == (3,)
        assert ReliableSynchronous(2).outcomes(self.MESSAGE, 9, 10) == (None,)

    def test_bounded_uncertain(self):
        assert BoundedUncertain(1, 3).outcomes(self.MESSAGE, 0, 10) == (1, 2, 3)

    def test_unreliable_always_includes_loss(self):
        assert None in Unreliable(delay=1).outcomes(self.MESSAGE, 0, 10)

    def test_asynchronous_covers_horizon_and_beyond(self):
        outcomes = Asynchronous(1).outcomes(self.MESSAGE, 0, 3)
        assert outcomes == (1, 2, 3, None)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SimulationError):
            BoundedUncertain(3, 1)
        with pytest.raises(SimulationError):
            ReliableSynchronous(-1)


class TestDeliveryModelEdgeCases:
    """Boundary semantics of the delivery models (the environment half of NG1/NG2)."""

    MESSAGE = Message("A", "B", "x", uid=0)

    def test_unreliable_beyond_horizon_drops_everything(self):
        """When every delay overshoots the horizon, loss is the *only* outcome."""
        assert Unreliable(delay=5).outcomes(self.MESSAGE, 0, 3) == (None,)
        assert Unreliable(delay_range=(4, 9)).outcomes(self.MESSAGE, 0, 3) == (None,)
        # ... and right at the edge the arrival is kept alongside the loss.
        assert Unreliable(delay=3).outcomes(self.MESSAGE, 0, 3) == (3, None)

    def test_bounded_uncertain_zero_bound_equals_reliable_synchronous(self):
        """BoundedUncertain(d, d) is ReliableSynchronous(d), outcome for outcome."""
        for delay in (0, 1, 3):
            degenerate = BoundedUncertain(delay, delay)
            reliable = ReliableSynchronous(delay)
            for send_time in range(0, 6):
                assert degenerate.outcomes(self.MESSAGE, send_time, 4) == reliable.outcomes(
                    self.MESSAGE, send_time, 4
                ), (delay, send_time)

    def test_bounded_uncertain_zero_delay_is_same_step_delivery(self):
        assert BoundedUncertain(0, 0).outcomes(self.MESSAGE, 2, 4) == (2,)

    def test_bounded_uncertain_truncates_tail_at_horizon(self):
        # Only the arrivals inside the horizon survive; past it, loss.
        assert BoundedUncertain(1, 3).outcomes(self.MESSAGE, 8, 10) == (9, 10)
        assert BoundedUncertain(2, 3).outcomes(self.MESSAGE, 9, 10) == (None,)

    def test_asynchronous_zero_min_delay_includes_same_step(self):
        assert Asynchronous(0).outcomes(self.MESSAGE, 2, 4) == (2, 3, 4, None)

    def test_asynchronous_late_send_only_pending(self):
        # A message sent at the horizon with min_delay > 0 can only be in flight.
        assert Asynchronous(1).outcomes(self.MESSAGE, 4, 4) == (None,)


class TestSimulator:
    class PingPong:
        """A sends ping; B replies pong upon receipt."""

        name = "ping-pong"

        def step(self, processor, history, time):
            if processor == "A" and time == 0:
                return Action.send("B", "ping")
            if processor == "B" and history.received_messages() and not history.sent_messages():
                return Action.send("A", "pong")
            return Action.nothing()

    def _wrap(self):
        from repro.simulation.protocol import FunctionProtocol

        pingpong = self.PingPong()
        return FunctionProtocol(pingpong.step, name="ping-pong")

    def test_reliable_delivery_gives_single_run(self):
        system = simulate(self._wrap(), ["A", "B"], duration=4, delivery=ReliableSynchronous(1))
        assert len(system.runs) == 1
        run = system.runs[0]
        assert run.history("A", 4).received_messages()[0].content == "pong"

    def test_unreliable_delivery_enumerates_all_loss_patterns(self):
        system = simulate(self._wrap(), ["A", "B"], duration=4, delivery=Unreliable(delay=1))
        # ping lost; ping delivered & pong lost; ping delivered & pong delivered.
        assert len(system.runs) == 3
        assert len(system.runs_with_no_deliveries()) == 1

    def test_initial_configuration_choices_multiply_runs(self):
        system = simulate(
            SilentProtocol(),
            ["A", "B"],
            duration=1,
            initial_states={"A": ("x", "y")},
            wake_times={"B": (0, 1)},
        )
        assert len(system.runs) == 4

    def test_run_names_are_unique(self):
        system = simulate(self._wrap(), ["A", "B"], duration=4, delivery=Unreliable(delay=1))
        names = [run.name for run in system.runs]
        assert len(names) == len(set(names))

    def test_max_runs_guard(self):
        with pytest.raises(SimulationError):
            simulate(
                self._wrap(),
                ["A", "B"],
                duration=6,
                delivery=Asynchronous(1),
                max_runs=3,
            )

    def test_fact_rules_are_applied(self):
        def pong_fact(run):
            received = [
                t
                for t in run.times()
                if any(
                    type(e).__name__ == "ReceiveEvent"
                    and e.message.content == "pong"
                    for e in run.events_at("A", t)
                )
            ]
            if not received:
                return {}
            return {t: {"pong_received"} for t in range(received[0], run.duration + 1)}

        system = simulate(
            self._wrap(),
            ["A", "B"],
            duration=4,
            delivery=ReliableSynchronous(1),
            fact_rules=[pong_fact],
        )
        run = system.runs[0]
        assert "pong_received" in run.facts_at(4)
        assert "pong_received" not in run.facts_at(0)

    @pytest.mark.parametrize("time", [-1, 5])
    def test_fact_rule_outside_the_run_is_an_error(self, time):
        with pytest.raises(ModelError, match="outside 0..4"):
            simulate(
                self._wrap(),
                ["A", "B"],
                duration=4,
                delivery=ReliableSynchronous(1),
                fact_rules=[lambda run: {0: {"fine"}}, lambda run: {time: {"late"}}],
            )

    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("sequence_transmission", {"n_bits": 2, "horizon": 3}),
            ("broadcast", {"variant": "sync", "latency": 1, "spread": 1}),
            ("broadcast", {"variant": "async", "horizon": 3}),
        ],
    )
    def test_runs_equal_the_two_step_construction(self, monkeypatch, scenario, params):
        """Attaching the rule facts to the one built run gives the same runs as
        building a fact-less run for the rules and then a second run with facts."""

        def two_step_finish(
            self, events, choices, config_index, initial_states, wake_times, clocks, finished
        ):
            env = self._environment
            suffix = ".".join(choices) if choices else "quiet"
            arguments = dict(
                name=f"{self._name_prefix}{config_index}-{suffix}",
                processors=env.processors,
                duration=env.duration,
                initial_states=initial_states,
                wake_times=wake_times,
                events={p: {t: tuple(evs) for t, evs in per.items()} for p, per in events.items()},
                clocks=clocks,
            )
            facts = {}
            for rule in self._fact_rules:
                for time, names in rule(Run(**arguments)).items():
                    facts.setdefault(time, set()).update(names)
            finished.append(Run(**arguments, facts=facts))

        spec = get_scenario(scenario)
        params = spec.validate_params(params)
        built = spec.build(params).model
        monkeypatch.setattr(Simulator, "_finish", two_step_finish)
        expected = spec.build(params).model
        assert any(run.facts_at(run.duration) for run in expected.runs)
        assert [run.name for run in built.runs] == [run.name for run in expected.runs]
        assert built.runs == expected.runs

    def test_protocol_sending_to_unknown_processor_is_an_error(self):
        class Rogue:
            name = "rogue"

            def step(self, processor, history, time):
                return Action.send("nobody", "x") if processor == "A" else Action.nothing()

        from repro.simulation.protocol import FunctionProtocol

        with pytest.raises(SimulationError):
            simulate(FunctionProtocol(Rogue().step), ["A", "B"], duration=1)

    def test_environment_validates_clocks(self):
        from repro.systems.clocks import perfect_clock

        with pytest.raises(Exception):
            Environment(
                processors=("A",),
                duration=5,
                clocks={"A": (perfect_clock(1),)},  # too short for the duration
            )

    def test_deterministic_enumeration_order(self):
        first = simulate(self._wrap(), ["A", "B"], duration=4, delivery=Unreliable(delay=1))
        second = simulate(self._wrap(), ["A", "B"], duration=4, delivery=Unreliable(delay=1))
        assert [r.name for r in first.runs] == [r.name for r in second.runs]

    def test_runs_come_out_depth_first_over_delivery_choices(self):
        """Two sends per tick for two ticks: the first tick's outcome
        combination varies slowest, each message's outcomes in the delivery
        model's order (lost first)."""

        def step(processor, history, time):
            if processor == "A" and time < 2:
                return Action.send("B", time).also_send("B", -time)
            return Action.nothing()

        system = simulate(
            FunctionProtocol(step, name="two-by-two"),
            ["A", "B"],
            duration=3,
            delivery=Unreliable(delay=1),
        )
        first, second = ("m0:lost.m1:lost", "m0:lost.m1@1", "m0@1.m1:lost", "m0@1.m1@1"), (
            "m2:lost.m3:lost", "m2:lost.m3@2", "m2@2.m3:lost", "m2@2.m3@2",
        )
        assert [run.name for run in system.runs] == [
            f"r0-{a}.{b}" for a in first for b in second
        ]

    def test_horizon_deeper_than_the_recursion_limit_enumerates(self):
        """Enumeration keeps an explicit stack, one level per tick, so a run
        may be longer than the interpreter's recursion limit."""
        duration = 3000
        assert duration > sys.getrecursionlimit()
        system = simulate(SilentProtocol(), ["A"], duration=duration)
        assert [run.duration for run in system.runs] == [duration]


def _send_once(processor, history, time):
    """A sends one message to B at time 0; everyone else stays silent."""
    if processor == "A" and time == 0 and not history.sent_messages():
        return Action.send("B", "hello")
    return Action.nothing()


def _send_once_protocol():
    from repro.simulation.protocol import FunctionProtocol

    return FunctionProtocol(_send_once, name="send-once")


def _fingerprint(system):
    """Runs as comparable data: names plus every processor's event trace."""
    return [
        (
            run.name,
            {
                p: {
                    t: [type(e).__name__ for e in run.events_at(p, t)]
                    for t in run.times()
                }
                for p in run.processors
            },
        )
        for run in system.runs
    ]


def _delivery_times(system, recipient="B"):
    """For each run, when (if ever) the recipient saw a ReceiveEvent."""
    times = []
    for run in system.runs:
        received = [
            t
            for t in run.times()
            if any(type(e).__name__ == "ReceiveEvent" for e in run.events_at(recipient, t))
        ]
        times.append(received[0] if received else None)
    return times


class TestDeliverySemanticsThroughTheSimulator:
    """The delivery edge cases observed through whole-system run enumeration."""

    def test_unreliable_drop_all_collapses_to_one_quiet_run(self):
        """With every delay beyond the horizon the only branch is total loss."""
        system = simulate(
            _send_once_protocol(), ["A", "B"], duration=3, delivery=Unreliable(delay=9)
        )
        assert len(system.runs) == 1
        assert len(system.runs_with_no_deliveries()) == 1
        assert _delivery_times(system) == [None]

    def test_degenerate_bounded_uncertain_generates_the_reliable_system(self):
        """BoundedUncertain(d, d) and ReliableSynchronous(d) enumerate identical
        runs — same names (the delivery-choice encoding) and same event traces —
        including the bound=0 same-step case."""
        for delay in (0, 1):
            bounded = simulate(
                _send_once_protocol(),
                ["A", "B"],
                duration=3,
                delivery=BoundedUncertain(delay, delay),
            )
            reliable = simulate(
                _send_once_protocol(),
                ["A", "B"],
                duration=3,
                delivery=ReliableSynchronous(delay),
            )
            assert _fingerprint(bounded) == _fingerprint(reliable), delay
            assert _delivery_times(bounded) == [delay]

    def test_asynchronous_enumerates_every_tail(self):
        """One message under Asynchronous(m) on horizon H branches into one run
        per arrival time m..H plus exactly one still-in-flight run."""
        horizon = 4
        for min_delay in (0, 1, 2):
            system = simulate(
                _send_once_protocol(),
                ["A", "B"],
                duration=horizon,
                delivery=Asynchronous(min_delay),
            )
            times = _delivery_times(system)
            assert len(system.runs) == horizon - min_delay + 2
            assert sorted(t for t in times if t is not None) == list(
                range(min_delay, horizon + 1)
            )
            assert times.count(None) == 1
            assert len(system.runs_with_no_deliveries()) == 1


class TestDeliveryInvariantsOverGeneratedProtocols:
    """The drop-all and tail-enumeration invariants, as *properties*.

    The hand-written cases above pin the edge semantics for one fixed
    protocol; these tests quantify over seeded random protocols (see
    :mod:`repro.simulation.fuzz`), parsing the delivery choices back out of
    the run names (``m{uid}@{t}`` / ``m{uid}:lost``) and checking each
    branch point against the delivery model's own ``outcomes``.
    """

    SEEDS = range(12)
    HORIZON = 3

    @staticmethod
    def _choices(run):
        suffix = run.name.split("-", 1)[1]
        return () if suffix == "quiet" else tuple(suffix.split("."))

    @staticmethod
    def _sent_messages(run):
        """uid -> (message, send time), read off the run's send events."""
        sent = {}
        for processor in run.processors:
            for time in run.times():
                for event in run.events_at(processor, time):
                    if type(event).__name__ == "SendEvent":
                        sent[event.message.uid] = (event.message, time)
        return sent

    def test_unreliable_beyond_horizon_is_the_adversarial_drop_all(self):
        """When every delay overshoots the horizon, the system is exactly the
        one an adversary that drops everything produces: a single run per
        initial configuration, no deliveries, identical events."""
        from repro.simulation.fuzz import fuzz_initial_states, random_protocol
        from repro.simulation.network import AdversarialDrops

        for seed in self.SEEDS:
            protocol = random_protocol(seed, horizon=self.HORIZON)
            kwargs = dict(
                processors=protocol.processors,
                duration=self.HORIZON,
                initial_states=fuzz_initial_states(seed, 2, self.HORIZON),
            )
            lossy = simulate(
                protocol, delivery=Unreliable(delay=self.HORIZON + 5), **kwargs
            )
            adversarial = simulate(
                protocol,
                delivery=AdversarialDrops(
                    ReliableSynchronous(1), lambda message, time: True
                ),
                **kwargs,
            )
            assert len(lossy.runs) == 1
            assert lossy.runs_with_no_deliveries() == lossy.runs
            assert list(lossy.runs) == list(adversarial.runs), seed

    @pytest.mark.parametrize("kind", ["bounded", "unreliable", "async"])
    def test_every_branch_point_enumerates_the_full_outcome_set(self, kind):
        """At each delivery-choice position, the runs sharing that choice
        prefix realise *exactly* the model's outcome set for the message —
        every arrival time in the window, plus loss where the model allows it
        (the tail-enumeration/drop invariants, over generated protocols)."""
        from repro.simulation.fuzz import delivery_models, random_system

        model = delivery_models(kind, self.HORIZON)
        for seed in self.SEEDS:
            system = random_system(seed, horizon=self.HORIZON, delivery=kind)
            runs = list(system.runs)
            for run in runs:
                choices = self._choices(run)
                sent = self._sent_messages(run)
                for position, entry in enumerate(choices):
                    uid = int(entry[1:].split("@")[0].split(":")[0])
                    message, send_time = sent[uid]
                    expected = {
                        f"m{uid}:lost" if outcome is None else f"m{uid}@{outcome}"
                        for outcome in model.outcomes(message, send_time, self.HORIZON)
                    }
                    siblings = {
                        self._choices(other)[position]
                        for other in runs
                        if self._choices(other)[:position] == choices[:position]
                    }
                    assert siblings == expected, (seed, run.name, position)

    def test_asynchronous_exactly_one_still_in_flight_branch_per_message(self):
        """Under Asynchronous every sent message has exactly one lost branch
        among the runs sharing its choice prefix (the in-flight tail)."""
        from repro.simulation.fuzz import random_system

        for seed in self.SEEDS:
            system = random_system(seed, horizon=self.HORIZON, delivery="async")
            runs = list(system.runs)
            for run in runs:
                choices = self._choices(run)
                for position in range(len(choices)):
                    siblings = [
                        self._choices(other)[position]
                        for other in runs
                        if self._choices(other)[:position] == choices[:position]
                        and self._choices(other)[position : position + 1]
                    ]
                    lost = [entry for entry in set(siblings) if entry.endswith(":lost")]
                    assert len(lost) == 1, (seed, run.name, position)


# -- Section 5: a protocol sees exactly its local history -----------------------


@pytest.fixture
def recorded_histories(monkeypatch):
    """Record every history handed to a protocol during enumeration.

    Each ``Simulator.runs`` call appends ``(runs, seen)``, where ``seen`` maps
    ``(processor, time)`` to the set of histories the protocol was asked
    to act on there, over every branch of the enumeration.
    """
    recorded = []
    original = Simulator.runs

    def runs(self):
        joint = self._joint
        seen = {}

        class Recorder:
            def step(self, processor, history, time):
                seen.setdefault((processor, time), set()).add(history)
                return joint.step(processor, history, time)

        self._joint = Recorder()
        try:
            result = original(self)
        finally:
            self._joint = joint
        recorded.append((result, seen))
        return result

    monkeypatch.setattr(Simulator, "runs", runs)
    return recorded


def assert_protocols_saw_run_histories(recorded):
    """Every ``(p, t)`` a protocol acted at: the histories it was handed are
    exactly ``Run.history(p, t)`` over the produced runs where ``p`` is awake.

    Every branch of the enumeration ends in at least one run, so a history
    handed to a protocol that no produced run has (or the converse) means the
    simulator and ``Run.history`` disagree about ``h(p, r, t)``.
    """
    checked = 0
    for runs, seen in recorded:
        for (processor, time), histories in seen.items():
            produced = {run.history(processor, time) for run in runs}
            assert histories == {h for h in produced if h.awake}, (processor, time)
            checked += 1
    return checked


def test_protocols_see_run_histories_on_every_system_scenario(recorded_histories):
    from repro.experiments.registry import KIND_SYSTEM, ScenarioSpec, all_scenarios

    simulated = []
    for spec in all_scenarios():
        if any(parameter.required for parameter in spec.parameters):
            continue
        built = spec.build(spec.validate_params({}))
        if ScenarioSpec.kind_of(built.model) == KIND_SYSTEM:
            # Every system scenario enumerates its runs through the simulator.
            assert assert_protocols_saw_run_histories(recorded_histories) > 0, spec.name
            simulated.append(spec.name)
        recorded_histories.clear()
    assert simulated


def test_protocols_see_run_histories_on_random_protocols(recorded_histories, fuzz_seeds):
    from repro.simulation.fuzz import random_system

    for seed in list(fuzz_seeds)[:12]:
        for delivery in ("reliable", "unreliable", "bounded"):
            random_system(seed, horizon=3, delivery=delivery)
    assert assert_protocols_saw_run_histories(recorded_histories) > 0
