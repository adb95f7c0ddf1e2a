"""The built-in scenario catalogue: every worked example's metadata, nothing else.

One :class:`~repro.experiments.registry.ScenarioSpec` per scenario of
:mod:`repro.scenarios`: its name, summary, paper section, typed
:class:`~repro.experiments.registry.Parameter` schema and details, with the
builder, default-formula factory and signature factory named as
``module:attribute`` :class:`~repro.experiments.registry.Deferred` callables.
The registry reads this tuple on its first lookup; a scenario module is
imported only when one of its callables is first called, so listing the
scenarios, describing their schemas and validating parameters import no
scenario module and no part of the model stack.  ``tools/lint_repo.py``
(rule LNT005) keeps this module's imports to that light set.

A ``maximum`` on a parameter that sizes a system of runs is the largest value
whose model builds in about 2 s at otherwise default parameters (measured on
Python 3.11, 2 CPUs); larger values are refused before anything is built.

Adding a built-in scenario: write its builder (a function of the declared
parameters, see :func:`~repro.experiments.registry.register_scenario`) in a
module under :mod:`repro.scenarios`, then add its entry here.  The tests
check that every entry resolves and that each builder accepts exactly the
declared parameter names; ``python tools/gen_scenario_docs.py`` regenerates
``docs/scenarios.md``.  Plugins and tests that add scenarios at run time call
:func:`~repro.experiments.registry.register_scenario` instead.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.registry import Deferred, Parameter, ScenarioSpec

__all__ = ["BUILTIN_SCENARIOS"]

BUILTIN_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="broadcast",
        summary="synchronous vs asynchronous broadcast channels (system of runs)",
        section="Section 11",
        parameters=(
            Parameter(
                "variant", str, default="sync", choices=("sync", "async"),
                description=(
                    "sync: delivery within latency..latency+spread; async: eventually"
                ),
            ),
            Parameter(
                "latency", int, default=1, minimum=0,
                description="minimum delivery latency (sync variant)",
            ),
            Parameter(
                "spread", int, default=1, minimum=0, maximum=33,
                description="the epsilon of delivery uncertainty (sync variant)",
            ),
            Parameter(
                "horizon", int, default=3, minimum=1, maximum=36,
                description="run length (async variant; sync computes its own)",
            ),
        ),
        builder=Deferred("repro.scenarios.broadcast:build_broadcast_scenario"),
        formulas=Deferred("repro.scenarios.broadcast:_registry_formulas"),
        signature=Deferred("repro.scenarios.broadcast:_registry_signature"),
        details=(
            "The paper: the synchronous channel attains C^eps sent(m) (eps = spread) "
            "at the points of receipt but not plain C there (C sent(m) only holds at "
            "late points, once latency+spread has passed on every clock and the "
            "uncertainty is resolved); the asynchronous channel attains eventual "
            "common knowledge and, by Theorem 11, never C^eps.  Finite-horizon "
            "caveat: the C^<> fixed point needs the delivery guarantee to be visible "
            "beyond the horizon, so in this truncated reproduction C^<> sent "
            "evaluates empty on the async variant (E^<> sent is the observable "
            "approximation; see tests/test_scenarios.py)."
        ),
    ),
    ScenarioSpec(
        name="byzantine_general",
        summary=(
            "an equivocating general: receivers detect faultiness by echo (system of "
            "runs)"
        ),
        section="Section 5 (framework); byzantine folklore",
        parameters=(
            Parameter(
                "horizon", int, default=4, minimum=1, maximum=8,
                description="how many time steps each run lasts",
            ),
            Parameter(
                "drop_first", int, default=0, minimum=0, maximum=6,
                description="adversary drops the first k messages sent in each run",
            ),
        ),
        builder=Deferred("repro.scenarios.byzantine:build_byzantine_general_scenario"),
        formulas=Deferred("repro.scenarios.byzantine:_formulas"),
        signature=Deferred("repro.scenarios.byzantine:_registry_signature"),
        details=(
            "The general broadcasts its vote once; each receiver echoes the first "
            "vote it hears to the other.  In the `byz` run the echoes contradict the "
            "votes and `detect_r` fires; because the echo channel is *reliable*, the "
            "contradiction eventually makes the faulty run's local histories unique, "
            "so `faulty` climbs all the way from private detection to `C faulty` — "
            "exactly the reliable-channel escape hatch the coordinated-attack "
            "scenarios lack.  The `drop_first` adversary (an `AdversarialDrops` "
            "schedule over the reliable channel) suppresses early messages; dropping "
            "the broadcast destroys detection and every knowledge level above it."
        ),
    ),
    ScenarioSpec(
        name="cheating_husbands",
        summary=(
            "n queens, k unfaithful husbands; the Queen Mother speaks (Kripke model)"
        ),
        section="Section 2 (the wise-men/cheating-wives family)",
        parameters=(
            Parameter("n", int, default=3, minimum=1, maximum=16, description="number of queens"),
            Parameter(
                "k", int, default=2, minimum=0,
                description="how many husbands are unfaithful (the first k)",
            ),
        ),
        builder=Deferred("repro.scenarios.cheating_husbands:build_cheating_husbands_scenario"),
        formulas=Deferred("repro.scenarios.cheating_husbands:_registry_formulas"),
        signature=Deferred("repro.scenarios.cheating_husbands:_registry_signature"),
        details=(
            "Epistemically identical to muddy_children with the story's vocabulary: "
            "queens observe every marriage but their own; the shootings happen on "
            "night k."
        ),
    ),
    ScenarioSpec(
        name="commit",
        summary=(
            "one-message distributed commit over a 0..1-tick channel (system of runs)"
        ),
        section="Sections 8 and 13",
        parameters=(
            Parameter(
                "min_delay", int, default=0, minimum=0,
                description="fastest possible delivery in ticks",
            ),
            Parameter(
                "max_delay", int, default=1, minimum=0,
                description="slowest possible delivery in ticks",
            ),
            Parameter(
                "horizon", int, default=3, minimum=1, maximum=2500,
                description="how many time steps each run lasts",
            ),
        ),
        builder=Deferred("repro.scenarios.commit:build_commit_scenario"),
        formulas=Deferred("repro.scenarios.commit:_registry_formulas"),
        signature=Deferred("repro.scenarios.commit:_registry_signature"),
        details=(
            "During the delivery window the sites' views of the commit disagree, so "
            "the eager interpretation ('the commit is common knowledge as soon as I "
            "learn of it') is not knowledge consistent — but it is *internally* "
            "knowledge consistent (Section 13), witnessed by the "
            "instantaneous-delivery subsystem."
        ),
    ),
    ScenarioSpec(
        name="coordinated_attack",
        summary=(
            "two generals, an unreliable messenger, a depth-k handshake (system of "
            "runs)"
        ),
        section="Sections 4 and 7",
        parameters=(
            Parameter(
                "depth", int, default=2, minimum=1,
                description="handshake depth (messages in the chain)",
            ),
            Parameter("horizon", int, default=4, minimum=1, description="how many time steps each run lasts"),
            Parameter(
                "include_peace_runs", bool, default=True,
                description="include the runs in which A never wanted to attack",
            ),
        ),
        builder=Deferred("repro.scenarios.coordinated_attack:build_coordinated_attack_scenario"),
        formulas=Deferred("repro.scenarios.coordinated_attack:_registry_formulas"),
        signature=Deferred("repro.scenarios.coordinated_attack:_registry_signature"),
        details=(
            "Every run of the handshake over the lossy messenger is enumerated.  "
            "Each delivered message adds one level to the nested knowledge of A's "
            "intention (K_B intend, K_A K_B intend, ...), but C intend never holds — "
            "the paper's impossibility of coordinated attack."
        ),
    ),
    ScenarioSpec(
        name="gossip",
        summary=(
            "rumor spreading on a ring: when does a secret become known? (system of "
            "runs)"
        ),
        section="Section 5 (framework); gossip folklore",
        parameters=(
            Parameter("n", int, default=3, minimum=2, maximum=6, description="ring size"),
            Parameter(
                "horizon", int, default=4, minimum=1, maximum=10,
                description="how many time steps each run lasts",
            ),
        ),
        builder=Deferred("repro.scenarios.gossip:build_gossip_scenario"),
        formulas=Deferred("repro.scenarios.gossip:_formulas"),
        signature=Deferred("repro.scenarios.gossip:_registry_signature"),
        details=(
            "Each processor forwards everything it has learned to its clockwise "
            "neighbour under reliable synchronous delivery.  A secret crosses one "
            "hop every two steps (send, deliver), so `K_g1 whether secret_0` turns "
            "true at time 2, the far neighbour learns it after ~2(n-1) steps, and `C "
            "secret_0` stays false until the valuation is common to the whole ring."
        ),
    ),
    ScenarioSpec(
        name="muddy_children",
        summary=(
            "n children, k muddy foreheads; the father's announcement (Kripke model)"
        ),
        section="Sections 2 and 10",
        parameters=(
            Parameter("n", int, default=3, minimum=1, maximum=16, description="number of children"),
            Parameter(
                "k", int, default=2, minimum=0,
                description="how many children are muddy (the first k)",
            ),
            Parameter(
                "announced", bool, default=False,
                description=(
                    "apply the father's public announcement of m before evaluating"
                ),
            ),
        ),
        builder=Deferred("repro.scenarios.muddy_children:build_muddy_children_scenario"),
        formulas=Deferred("repro.scenarios.muddy_children:_registry_formulas"),
        signature=Deferred("repro.scenarios.muddy_children:_registry_signature"),
        details=(
            "Worlds are muddiness vectors; each child observes every forehead but "
            "its own.  Before the announcement E^{k-1} m holds at the actual world "
            "but E^k m does not; after the announcement m is common knowledge."
        ),
    ),
    ScenarioSpec(
        name="ok_protocol",
        summary="the \"OK\" protocol: eps-common knowledge of failure (system of runs)",
        section="Section 11",
        parameters=(
            Parameter(
                "horizon", int, default=3, minimum=1, maximum=1400,
                description="how many time steps each run lasts",
            ),
            Parameter(
                "eps", int, default=1, minimum=0,
                description="the epsilon of C^eps in the formula set",
            ),
        ),
        builder=Deferred("repro.scenarios.ok_protocol:build_ok_protocol_scenario"),
        formulas=Deferred("repro.scenarios.ok_protocol:_registry_formulas"),
        signature=Deferred("repro.scenarios.ok_protocol:_registry_signature"),
        details=(
            "psi says some message was not delivered within one time unit.  In this "
            "system psi -> E^1 psi is valid, so psi -> C^1 psi is valid too: "
            "epsilon-common knowledge of psi is attained exactly when communication "
            "fails."
        ),
    ),
    ScenarioSpec(
        name="phases",
        summary=(
            "phase-end decisions under clock skew: timestamped common knowledge "
            "(system of runs)"
        ),
        section="Section 12",
        parameters=(
            Parameter(
                "phase_end", int, default=2, minimum=0, maximum=1500,
                description="the clock reading T at which each processor decides",
            ),
            Parameter(
                "skew", int, default=1, minimum=0, maximum=128,
                description="maximum clock skew in ticks (one run per lag)",
            ),
        ),
        builder=Deferred("repro.scenarios.phases:build_phases_scenario"),
        formulas=Deferred("repro.scenarios.phases:_registry_formulas"),
        signature=Deferred("repro.scenarios.phases:_registry_signature"),
        details=(
            "With skewed clocks the phases do not end simultaneously, so plain C "
            "decided is out of reach (Theorem 8); the processors attain C^T decided "
            "with timestamp 'end of phase', which implies C^skew and C^<> (Theorem "
            "12)."
        ),
    ),
    ScenarioSpec(
        name="r2d2",
        summary=(
            "message delivery within {0, eps}: the knowledge staircase (system of "
            "runs)"
        ),
        section="Section 8",
        parameters=(
            Parameter("epsilon", int, default=1, minimum=1, description="the delivery uncertainty in ticks"),
            Parameter(
                "send_window", int, default=2, minimum=1, maximum=140,
                description="number of possible send times",
            ),
            Parameter(
                "variant", str, default="uncertain", choices=("exact", "global_clock", "uncertain"),
                description=(
                    "delivery regime: uncertain {0,eps}, exact eps, or global_clock "
                    "with timestamps"
                ),
            ),
        ),
        builder=Deferred("repro.scenarios.r2d2:build_r2d2_scenario"),
        formulas=Deferred("repro.scenarios.r2d2:_registry_formulas"),
        signature=Deferred("repro.scenarios.r2d2:_registry_signature"),
        details=(
            "In the uncertain variant each level (K_R K_D)^k sent(m) first holds eps "
            "later than the previous one and C sent(m) never holds; the exact and "
            "global_clock variants remove the uncertainty and with it the staircase."
        ),
    ),
    ScenarioSpec(
        name="random_protocol",
        summary="a seeded random protocol under a chosen delivery model (fuzz harness)",
        section="Section 5 (framework); differential testing",
        parameters=(
            Parameter(
                "seed", int, default=0, minimum=0,
                description="fuzz seed; every decision of the protocol derives from it",
            ),
            Parameter(
                "n_agents", int, default=2, minimum=1, maximum=4,
                description="number of processors p0..p{n-1}",
            ),
            Parameter(
                "horizon", int, default=3, minimum=1, maximum=5,
                description="how many time steps each run lasts",
            ),
            Parameter(
                "delivery", str, default="reliable", choices=("reliable", "bounded", "unreliable", "async"),
                description="communication assumption (fuzz-matrix delivery kind)",
            ),
        ),
        builder=Deferred("repro.scenarios.fuzzed:build_random_protocol_scenario"),
        formulas=Deferred("repro.scenarios.fuzzed:_formulas"),
        signature=Deferred("repro.scenarios.fuzzed:_registry_signature"),
        details=(
            "Every decision of the generated protocol is a keyed blake2b digest of "
            "the acting processor's canonical local history, so the same seed always "
            "yields the same system of runs — in any process, which is what lets "
            "`--jobs` sweeps rebuild the scenario inside workers and still match the "
            "serial rows bit for bit.  `random_system(seed, ...)` in "
            "`repro.simulation.fuzz` builds the identical system without the "
            "registry."
        ),
    ),
    ScenarioSpec(
        name="sequence_transmission",
        summary="stop-and-wait bit transmission over a faulty line (system of runs)",
        section="Section 9 / Theorem 7 (NG1' channels)",
        parameters=(
            Parameter(
                "n_bits", int, default=1, minimum=1, maximum=3,
                description="length of the transmitted bit sequence",
            ),
            Parameter(
                "horizon", int, default=3, minimum=1, maximum=6,
                description="how many time steps each run lasts",
            ),
            Parameter(
                "delivery", str, default="unreliable", choices=("reliable", "bounded", "unreliable", "async"),
                description="communication assumption (fuzz-matrix delivery kind)",
            ),
        ),
        builder=Deferred("repro.scenarios.sequence_transmission:build_sequence_transmission_scenario"),
        formulas=Deferred("repro.scenarios.sequence_transmission:_formulas"),
        signature=Deferred("repro.scenarios.sequence_transmission:_registry_signature"),
        details=(
            "The sender retransmits the lowest unacknowledged bit; the receiver "
            "acknowledges each index once.  Over the lossy/asynchronous kinds the "
            "channel satisfies NG1', so `K_R whether bit_0` is attainable but `C "
            "whether bit_0` never holds before the horizon — sequence transmission "
            "needs only knowledge, not common knowledge."
        ),
    ),
)
"""Every built-in scenario, sorted by name."""
