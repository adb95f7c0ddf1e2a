"""The deterministic fault-injection harness (:mod:`repro.experiments.chaos`).

The harness is the test instrument the supervision suite leans on, so its own
contract is pinned tightly: strict config validation (a malformed config must
never silently skip its faults), content-addressed point matching, and
cross-process attempt counting for transient-then-succeed faults.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ChaosError, ChaosInjectedError
from repro.experiments import chaos
from repro.experiments.chaos import (
    ENV_VAR,
    ChaosFault,
    maybe_inject,
    parse_config,
)

POINT = ("muddy_children", {"n": 4, "k": 1, "announced": False})


def set_chaos(monkeypatch, config):
    monkeypatch.setenv(ENV_VAR, json.dumps(config))


# -- config validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "raw, match",
    [
        ("not json", "not valid JSON"),
        ('["raise"]', "object with a 'faults' list"),
        ('{"faults": {}}', "must be a list"),
        ('{"faults": [], "bogus": 1}', "unknown field"),
        ('{"faults": [[]]}', "must be an object"),
        ('{"faults": [{"kind": "explode"}]}', "kind must be one of"),
        ('{"faults": [{"kind": "raise", "typo": 1}]}', "unknown field"),
        ('{"faults": [{"kind": "raise", "backend": "bitset"}]}', "unknown field"),
        ('{"faults": [{"kind": "raise", "params": 3}]}', "params must be an object"),
        ('{"faults": [{"kind": "raise", "failures": 0}]}', "positive integer"),
        ('{"faults": [{"kind": "hang", "hang_seconds": -1}]}', "positive number"),
        ('{"faults": [{"kind": "raise", "failures": 1}]}', "need a 'state_dir'"),
        ('{"faults": [], "state_dir": 3}', "path string"),
    ],
)
def test_malformed_configs_fail_loudly(raw, match):
    with pytest.raises(ChaosError, match=match):
        parse_config(raw)


def test_malformed_env_config_fails_at_injection_time(monkeypatch):
    """A bad REPRO_CHAOS must error on use, not silently disable the faults."""
    monkeypatch.setenv(ENV_VAR, "{broken")
    with pytest.raises(ChaosError, match="not valid JSON"):
        maybe_inject(*POINT)


# -- point matching -------------------------------------------------------------


def test_fault_matching_is_a_params_subset_with_optional_scenario():
    fault = ChaosFault(kind="raise", params=(("n", 4),))
    assert fault.matches(*POINT)
    assert not fault.matches("muddy_children", {"n": 5})
    assert not fault.matches("muddy_children", {"k": 1})  # n absent
    scoped = ChaosFault(kind="raise", scenario="gossip", params=(("n", 4),))
    assert not scoped.matches(*POINT)
    assert scoped.matches("gossip", {"n": 4})


def test_unset_env_is_a_no_op(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    maybe_inject(*POINT)  # must not raise


def test_raise_fault_fires_only_at_its_point(monkeypatch):
    set_chaos(monkeypatch, {"faults": [{"kind": "raise", "params": {"n": 4}}]})
    with pytest.raises(ChaosInjectedError, match="injected failure"):
        maybe_inject(*POINT)
    maybe_inject("muddy_children", {"n": 5})  # unaffected


def test_config_cache_follows_the_env_string(monkeypatch):
    set_chaos(monkeypatch, {"faults": [{"kind": "raise", "params": {"n": 4}}]})
    with pytest.raises(ChaosInjectedError):
        maybe_inject(*POINT)
    set_chaos(monkeypatch, {"faults": []})
    maybe_inject(*POINT)  # the old fault list must not linger in the cache


# -- counted (transient) faults -------------------------------------------------


def test_counted_fault_heals_after_its_quota(monkeypatch, tmp_path):
    state = tmp_path / "chaos-state"
    state.mkdir()
    set_chaos(
        monkeypatch,
        {
            "state_dir": str(state),
            "faults": [{"kind": "raise", "params": {"n": 4}, "failures": 2}],
        },
    )
    for _ in range(2):
        with pytest.raises(ChaosInjectedError):
            maybe_inject(*POINT)
    maybe_inject(*POINT)  # third and later attempts succeed
    maybe_inject(*POINT)
    # Attempt claims are plain files, one per attempt — the cross-process
    # counting mechanism pool workers rely on.
    assert len(list(state.iterdir())) == 4


def test_counted_faults_track_points_independently(monkeypatch, tmp_path):
    state = tmp_path / "chaos-state"
    state.mkdir()
    set_chaos(
        monkeypatch,
        {
            "state_dir": str(state),
            "faults": [{"kind": "raise", "failures": 1}],
        },
    )
    with pytest.raises(ChaosInjectedError):
        maybe_inject(*POINT)
    # A *different* grid point has its own attempt counter.
    with pytest.raises(ChaosInjectedError):
        maybe_inject("muddy_children", {"n": 5})
    maybe_inject(*POINT)


def test_counted_fault_requires_existing_state_dir(monkeypatch, tmp_path):
    set_chaos(
        monkeypatch,
        {
            "state_dir": str(tmp_path / "missing"),
            "faults": [{"kind": "raise", "params": {"n": 4}, "failures": 1}],
        },
    )
    with pytest.raises(ChaosError, match="does not exist"):
        maybe_inject(*POINT)


def test_point_digest_is_deterministic_and_distinct():
    digest = chaos._point_digest(*POINT, fault_index=0)
    assert digest == chaos._point_digest(*POINT, fault_index=0)
    assert digest != chaos._point_digest(*POINT, fault_index=1)
    assert digest != chaos._point_digest("muddy_children", {"n": 5}, fault_index=0)


def test_hang_fault_sleeps_then_proceeds(monkeypatch):
    """An unsupervised run of a hung point is slow, not wedged forever."""
    set_chaos(
        monkeypatch,
        {"faults": [{"kind": "hang", "params": {"n": 4}, "hang_seconds": 0.01}]},
    )
    maybe_inject(*POINT)  # returns after the (tiny) sleep
