"""Scenario tests: the paper's worked examples behave as the paper predicts."""

import pytest

from repro.experiments import ExperimentRunner
from repro.logic.syntax import C, E, K, prop
from repro.kripke.checker import ModelChecker
from repro.scenarios.cheating_husbands import run_cheating_husbands
from repro.scenarios.muddy_children import MuddyChildren, run_muddy_children
from repro.scenarios import broadcast, ok_protocol, phases, r2d2
from repro.scenarios.coordinated_attack import (
    GENERALS,
    INTEND,
    alternating_knowledge_formula,
    attack_implies_common_knowledge,
    build_handshake_system,
    evaluate_attack_policy,
    knowledge_depth_after_deliveries,
    search_for_correct_policy,
    AttackPolicy,
)
from repro.systems.interpretation import ViewBasedInterpretation


class TestMuddyChildren:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3)])
    def test_muddy_children_answer_yes_in_round_k(self, n, k):
        result = run_muddy_children(n, k)
        assert result.first_yes_round == k
        assert result.muddy_children_answered_yes

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 3)])
    def test_without_announcement_nobody_ever_answers(self, n, k):
        result = run_muddy_children(n, k, father_announces=False, rounds=n + 2)
        assert result.first_yes_round == 0

    def test_e_level_before_announcement_is_k_minus_one(self):
        for k in (1, 2, 3):
            puzzle = MuddyChildren(3, muddy=list(range(k)))
            assert puzzle.e_level_of_m() == k - 1

    def test_announcement_makes_m_common_knowledge(self):
        puzzle = MuddyChildren(4, muddy=[0, 1])
        assert not puzzle.holds_initially(C(puzzle.children, puzzle.at_least_one_muddy))
        assert puzzle.common_knowledge_of_m_after_announcement()

    def test_k_zero_cannot_be_announced(self):
        puzzle = MuddyChildren(3, muddy=[])
        with pytest.raises(Exception):
            puzzle.play()

    def test_clean_children_never_answer_yes(self):
        result = run_muddy_children(4, 2)
        for outcome in result.rounds:
            for child, answer in outcome.answers.items():
                if child not in result.muddy:
                    assert not answer

    def test_cheating_husbands_matches_muddy_children(self):
        result = run_cheating_husbands(4, 3)
        assert result.first_yes_round == 3
        assert result.muddy_children_answered_yes


class TestCoordinatedAttack:
    def test_knowledge_depth_tracks_deliveries(self, handshake_system):
        # The run in which both handshake messages are delivered.
        run = max(
            handshake_system.runs,
            key=lambda r: r.messages_received_before(r.duration + 1),
        )
        assert run.messages_received_before(run.duration + 1) == 2
        depth_by_time = [
            knowledge_depth_after_deliveries(handshake_system, run, t) for t in run.times()
        ]
        # One level per delivered message (with the one-step observation lag).
        assert max(depth_by_time) == 2
        assert depth_by_time == sorted(depth_by_time)

    def test_no_message_run_gives_no_knowledge_of_intent(self, handshake_system):
        interp = ViewBasedInterpretation(handshake_system)
        silent = next(
            r
            for r in handshake_system.runs
            if r.no_messages_received() and r.initial_state("A") == "attack"
        )
        assert not interp.holds(alternating_knowledge_formula(1), silent, silent.duration)

    def test_intend_never_becomes_common_knowledge(self, handshake_system):
        interp = ViewBasedInterpretation(handshake_system)
        assert interp.extension(C(GENERALS, INTEND)) == frozenset()

    def test_proposition4_holds_vacuously_or_not_attacks_are_ck(self, handshake_system):
        assert attack_implies_common_knowledge(handshake_system)

    def test_no_threshold_policy_is_a_correct_protocol(self):
        outcomes = search_for_correct_policy(depth=2, horizon=5)
        assert outcomes
        assert not any(outcome.is_correct for outcome in outcomes)

    def test_aggressive_policy_attacks_but_uncoordinated(self):
        outcome = evaluate_attack_policy(
            depth=2, horizon=5, policy=AttackPolicy(threshold_a=0, threshold_b=1, attack_time=5)
        )
        assert outcome.attacks_in_some_run
        assert outcome.uncoordinated_run is not None

    def test_never_attacking_policy_never_attacks(self):
        outcome = evaluate_attack_policy(
            depth=2, horizon=5, policy=AttackPolicy(threshold_a=None, threshold_b=None, attack_time=5)
        )
        assert outcome.never_attacks


class TestR2D2:
    def test_knowledge_staircase(self):
        system = r2d2.build_uncertain_system(epsilon=1, send_window=5)
        run = next(
            r
            for r in system.runs
            if r.initial_state(r2d2.R2) == 0 and not r.no_messages_received()
            and "@1" in r.name
        )
        steps = r2d2.knowledge_staircase(system, run, epsilon=1, max_level=3, send_time=0)
        # Each level costs one more epsilon (plus the fixed one-tick observation lag).
        first_times = [step.first_time for step in steps]
        assert first_times == [step.predicted_time + 1 for step in steps]

    def test_common_knowledge_not_attained_in_the_uncertain_window(self):
        system = r2d2.build_uncertain_system(epsilon=1, send_window=5)
        run = next(
            r
            for r in system.runs
            if r.initial_state(r2d2.R2) == 0 and "@1" in r.name
        )
        last_send_time = 4  # send_window - 1 with epsilon = 1
        assert not r2d2.common_knowledge_ever_holds(system, run, before_time=last_send_time)

    def test_exact_delivery_gives_common_knowledge_after_epsilon(self):
        epsilon = 2
        system = r2d2.build_exact_delivery_system(epsilon=epsilon, send_window=3)
        interp = ViewBasedInterpretation(system)
        run = next(r for r in system.runs if r.initial_state(r2d2.R2) == 0)
        claim = C((r2d2.R2, r2d2.D2), r2d2.SENT)
        assert not interp.holds(claim, run, epsilon)
        assert interp.holds(claim, run, epsilon + 1)

    def test_global_clock_with_timestamp_gives_common_knowledge(self):
        epsilon = 2
        system = r2d2.build_global_clock_system(epsilon=epsilon, send_window=3)
        interp = ViewBasedInterpretation(system)
        run = next(
            r
            for r in system.runs
            if r.initial_state(r2d2.R2) == 0 and f"@{epsilon}" in r.name
        )
        claim = C((r2d2.R2, r2d2.D2), r2d2.SENT)
        assert not interp.holds(claim, run, epsilon - 1)
        assert interp.holds(claim, run, epsilon + 1)


class TestBroadcastAndVariants:
    def test_synchronous_broadcast_attains_eps_common_knowledge(self):
        system = broadcast.build_synchronous_broadcast_system(latency=1, spread=1)
        interp = ViewBasedInterpretation(system)
        claim = broadcast.eps_common_knowledge(eps=2)
        sending_runs = [r for r in system.runs if r.receive_times()]
        assert sending_runs
        # Once the broadcast is out, sent(m) is eps-common knowledge (spread + the
        # one-tick observation lag) in every run where it is delivered.
        assert all(interp.holds(claim, run, run.duration) for run in sending_runs)

    def test_synchronous_broadcast_has_no_common_knowledge_before_delivery_bound(self):
        system = broadcast.build_synchronous_broadcast_system(latency=1, spread=1)
        interp = ViewBasedInterpretation(system)
        group = (broadcast.SENDER,) + broadcast.RECEIVERS
        claim = C(group, broadcast.SENT)
        extension = interp.extension(claim)
        # Before every receiver can possibly have observed the broadcast
        # (latency + spread + the one-tick observation lag), sent(m) is not common
        # knowledge at any point, although it is already eps-common knowledge.
        assert all(point.time > 2 for point in extension)

    def test_asynchronous_broadcast_everyone_eventually_knows(self):
        from repro.logic import EDiamond

        system = broadcast.build_asynchronous_broadcast_system(horizon=3)
        interp = ViewBasedInterpretation(system)
        group = (broadcast.SENDER,) + broadcast.RECEIVERS
        claim = EDiamond(group, broadcast.SENT)
        delivered_everywhere = [
            run
            for run in system.runs
            if all(
                run.history(p, run.duration).received_messages()
                for p in broadcast.RECEIVERS
            )
        ]
        assert delivered_everywhere
        # In every run where the broadcast reaches everyone, everyone eventually
        # knows sent(m).  (The full C^<> fixed point requires the delivery guarantee
        # to be visible beyond the finite horizon; see EXPERIMENTS.md.)
        assert all(
            interp.holds(claim, run, 0) for run in delivered_everywhere
        )

    def test_asynchronous_broadcast_does_not_attain_eps_common_knowledge(self):
        system = broadcast.build_asynchronous_broadcast_system(horizon=3)
        interp = ViewBasedInterpretation(system)
        claim = broadcast.eps_common_knowledge(eps=1)
        # Theorem 11: unbounded delivery uncertainty rules out eps-common knowledge.
        assert interp.extension(claim) == frozenset()

    def test_ok_protocol_psi_holds_only_when_communication_fails(self):
        system = ok_protocol.build_ok_system(horizon=2)
        psi_name = ok_protocol.DELAYED.name
        for run in system.runs:
            psi_somewhere = any(psi_name in run.facts_at(t) for t in run.times())
            lossy = "lost" in run.name
            assert psi_somewhere == lossy

    def test_ok_protocol_total_loss_becomes_mutually_known(self):
        # The interior-point instance of the paper's "psi -> E psi" argument: in the
        # run where both time-0 "OK" messages are lost, each processor fails to see
        # the expected message and therefore knows psi two ticks later.  (The full
        # C^eps fixed point needs unbounded runs; EXPERIMENTS.md records this
        # truncation.)
        from repro.logic import E as EveryoneKnows

        system = ok_protocol.build_ok_system(horizon=2)
        interp = ViewBasedInterpretation(system)
        psi = ok_protocol.psi_formula()
        group = (ok_protocol.LEFT, ok_protocol.RIGHT)
        all_lost = next(r for r in system.runs if r.no_messages_received())
        assert interp.holds(EveryoneKnows(group, psi), all_lost, 2)

    def test_ok_protocol_successful_communication_prevents_eps_ck(self):
        system = ok_protocol.build_ok_system(horizon=2)
        interp = ViewBasedInterpretation(system)
        claim = ok_protocol.eps_common_knowledge_of_psi(eps=1)
        fully_prompt = [
            r
            for r in system.runs
            if r.receive_times()
            and all(
                ok_protocol.DELAYED.name not in r.facts_at(t) for t in r.times()
            )
        ]
        assert fully_prompt
        for run in fully_prompt:
            assert not any(interp.holds(claim, run, t) for t in run.times())


class TestPhases:
    def test_timestamped_common_knowledge_attained_despite_skew(self):
        system = phases.build_phase_system(phase_end=2, skew=1)
        interp = ViewBasedInterpretation(system)
        claim = phases.timestamped_common_knowledge(phase_end=2)
        assert interp.extension(claim)

    def test_plain_common_knowledge_with_zero_skew(self):
        system = phases.build_phase_system(phase_end=2, skew=0)
        interp = ViewBasedInterpretation(system)
        ct_points = interp.extension(phases.timestamped_common_knowledge(phase_end=2))
        c_points = interp.extension(phases.common_knowledge())
        assert ct_points
        # With identical clocks the two notions agree at the points where the clock
        # reads the phase-end time (Theorem 12(a)); in this single-run system C holds
        # from the decision onward.
        assert c_points

    def test_timestamped_implies_eventual(self):
        system = phases.build_phase_system(phase_end=2, skew=1)
        interp = ViewBasedInterpretation(system)
        ct_points = interp.extension(phases.timestamped_common_knowledge(phase_end=2))
        cd_points = interp.extension(phases.eventual_common_knowledge())
        assert ct_points <= cd_points


# -- gossip, sequence transmission, byzantine general ------------------------------


def test_gossip_secret_spreads_but_is_not_common():
    report = ExperimentRunner().run("gossip", {"n": 3, "horizon": 4})
    rows = {row.label: row for row in report.rows}
    assert report.universe == 8 * 5  # 2^3 secret assignments x 5 points each
    assert rows["E whether secret_0"].valid
    assert rows["K_g1 whether secret_0"].satisfiable
    assert not rows["C secret_0"].valid
    assert rows["C secret_0"].satisfiable


def test_gossip_run_count_scales_with_ring_size():
    for n in (2, 4):
        report = ExperimentRunner().run("gossip", {"n": n, "horizon": 2})
        assert report.universe == (2 ** n) * 3


def test_sequence_transmission_knowledge_without_common_knowledge():
    """Over the unreliable line the receiver can know the bit; C never holds."""
    report = ExperimentRunner().run(
        "sequence_transmission",
        {"n_bits": 1, "horizon": 3, "delivery": "unreliable"},
    )
    rows = {row.label: row for row in report.rows}
    assert rows["K_R whether bit_0"].satisfiable
    assert not rows["C whether bit_0"].satisfiable
    assert not rows["K_S got_0"].satisfiable  # no ack arrives within horizon 3


def test_sequence_transmission_reliable_delivers_eventually():
    report = ExperimentRunner().run(
        "sequence_transmission",
        {"n_bits": 1, "horizon": 3, "delivery": "reliable"},
    )
    rows = {row.label: row for row in report.rows}
    assert rows["<> got_0"].valid
    assert rows["C whether bit_0"].satisfiable


def test_byzantine_detection_climbs_to_common_knowledge():
    report = ExperimentRunner().run(
        "byzantine_general", {"horizon": 4, "drop_first": 0}
    )
    rows = {row.label: row for row in report.rows}
    assert rows["detect_r0"].satisfiable
    assert rows["K_r0 faulty"].satisfiable
    assert rows["C faulty"].satisfiable
    assert not rows["faulty"].valid  # the honest runs exist


def test_byzantine_adversary_destroys_detection():
    report = ExperimentRunner().run(
        "byzantine_general", {"horizon": 4, "drop_first": 6}
    )
    rows = {row.label: row for row in report.rows}
    assert rows["faulty"].satisfiable  # the fact still varies with the run
    assert not rows["detect_r0"].satisfiable
    assert not rows["K_r0 faulty"].satisfiable
    assert not rows["C faulty"].satisfiable
