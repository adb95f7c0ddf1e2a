"""Pinned results of every catalogue scenario's default point.

Each entry fixes, as literals, what one scenario point produces:

* the store digest of its default formula batch
  (:meth:`~repro.experiments.store.StoreKey.for_request` on the bitset
  backend, passed explicitly so the pin holds under ``--engine-backend
  frozenset`` too);
* a sha256 of its report rendering without the backend, the timings and
  ``from_store``;
* for a system of runs, the system's name and a sha256 of its run names in
  order.

Every catalogue scenario is pinned at its default parameters; the byzantine
general, gossip, OK protocol, random protocol and sequence transmission
scenarios also at one other point each.  A refactor of a builder that
changes nothing a user sees keeps every value; a change that moves one of
them changes results already recorded in result stores, which needs a
``SEMANTICS_VERSION`` bump and new pins.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import ExperimentRunner
from repro.experiments.catalogue import BUILTIN_SCENARIOS
from repro.experiments.registry import get_scenario, params_to_key
from repro.experiments.store import StoreKey

PINS = (
    (
        "broadcast",
        {},
        "6ebdb36fdf093f705e77a92ef2c854d0ead9c9d55631890e7433e661ad68b064",
        "1eb9ed570b2c75474008303c83a52fbe055db56f85686315586cab132b07214b",
        (
            "sync-broadcast-L1-eps1",
            "61903c78ba42b485124502dfb88b251e9eaa67bf16507053dcb304848b6b078d",
        ),
    ),
    (
        "byzantine_general",
        {},
        "35591e10a8d47f7c2a6d2efcd4a1605f1e4a889a18a6c5b4245b4ef8b0271f31",
        "0e355409b53d52d0bb2656abf81f219848d310f7645a288b7b8b28d894c3f596",
        (
            "byzantine-h4-d0",
            "f4e28e72870b31a2311c580ff9b9299dc121ff7e32db23f053e07acc8f86459f",
        ),
    ),
    (
        "cheating_husbands",
        {},
        "b14776bbe1d6f79b597334eed71da89f4213d35c15f376730069cbc38396e12d",
        "757b68fdb9a7968a2812e21133fc66d02c449eab3d466f0f220ef487dbb187f0",
        None,
    ),
    (
        "commit",
        {},
        "c0acc68706cb7bdd1a39c15db27eb3467dfbc2522539eb5a58bb9d4bf7c6b65c",
        "7bb0a24c39499fa542191355fccb2dd05bb7e8f046e89b75ec3d85d598a28662",
        (
            "commit-0-1",
            "3d24c5d89e0d6a586ef5f5c4f0a0bd8725bc2ba9cfabcb037edd197aee1e9829",
        ),
    ),
    (
        "coordinated_attack",
        {},
        "db1a79f4902d55b48b1a0be65c29f69b9911c9cf60a09b879ac005c57797fbc9",
        "7dc4ec552db0cda723666e62a8a8246868e6b729ff621fe7445d3e30dce85bae",
        (
            "coordinated-attack-depth2",
            "af4526485ff6787427359431db015e89e7de2f512ccfc85facd311957a5d57e0",
        ),
    ),
    (
        "gossip",
        {},
        "0ee20d26b3b802f59e7c661f1c8914bc9947469f6e0ffda7b4831cf054ff0de5",
        "cd93324fdb9e5706cbe6dcb9db0445a3e4a22f1c7c8cb165b88547ac4726d749",
        (
            "gossip-n3-h4",
            "03722e6b3edb300d6ac1fbd233f792cd1ccb972b62b1606e7626746143529499",
        ),
    ),
    (
        "muddy_children",
        {},
        "5dab14779987fb43bf486253178f1e064f6cf9b123d7a728ac0151c250262a34",
        "5d315e5c03d9c115d32f86dff3e4865926f6755555859b556db93809a969453e",
        None,
    ),
    (
        "ok_protocol",
        {},
        "8edb01bb80ddc6a3738f314ddd1d5bf1eb57acc09e276d108124344cf0bf3a23",
        "ae4d04858b38d88a784f3cc52133ce776bcfff3dfeae38f55d6a4aa340ce41b3",
        (
            "ok-protocol-h3",
            "dcc5ffd827906ddf6017f6fc208ecae5c79c683e96659faef7edc3524db478b0",
        ),
    ),
    (
        "phases",
        {},
        "a5c05bdf1eb9358d214a39017ab0893b50b3f2d89a525d5c9bede2f683c139f1",
        "e7b98c9d9edfcffa67632ec9b5a7c96416660c461d8b46572ef7c7a342261f7e",
        (
            "phases-T2-skew1",
            "65752e50f5a441ea770d56e9ff9aaec0354c5118ff3a00ebd2f772eff55b128b",
        ),
    ),
    (
        "r2d2",
        {},
        "e64c7d202158c70da726840166e98893a2af6345a3f04fa3d7508f15f1c43a65",
        "182f76090d3c70d8333730975d9a6e88876a7c305d13ca9a994eb55d86f9ed61",
        (
            "r2d2-uncertain-eps1",
            "1913f1f298f4cca162b604bdb504e1763ff499cfe706109a8c14234a24a4ca65",
        ),
    ),
    (
        "random_protocol",
        {},
        "9fa8e364adada0a7f9f49e9b5a3f74db99c85c70efc8292c8184950944cae7a4",
        "c178850eab204ef1ece95b340551c4e74c6bd24c901448979b8dd0e3ee64f2e7",
        (
            "fuzz-s0-n2-h3-reliable",
            "1008191f22c59ac86bf54fa4de0ce288b5747ab57ede1dda1b192b6f60c9d981",
        ),
    ),
    (
        "sequence_transmission",
        {},
        "afbf0096c53742ccc114d808911ccd7644ef457c202342cd7f813fc036245477",
        "24ffd1347a62fef65b928d7dd6d107d5ad2c823945ca67a3a42ccc0f0b44f3fb",
        (
            "seqtx-b1-h3-unreliable",
            "68ed5d8e5a107858d78d98d26d2631596f6e058a8d6608862f14bd6b51e8a854",
        ),
    ),
    (
        "byzantine_general",
        {"horizon": 6, "drop_first": 1},
        "cde73fe320ad3246ba1c08f2e9552d189608f5745ca9547612ab51d7bcc086a7",
        "4c500d06e568569849aed5bc576e18e884d3d03dc7586e5084853d42b88074ca",
        (
            "byzantine-h6-d1",
            "580905309e2b50f0c0b079d3338c55405b3ce869d6559d1ce927c96929ccd9df",
        ),
    ),
    (
        "gossip",
        {"n": 4, "horizon": 2},
        "dfc6871f53bcc8d5a9eb833acf646b366a40e595ace7d0fe4fc388be2c0471b8",
        "0032c32e601821a402d3c7346d3cdc9e65d030efbe4a45ce0be1022a4b48e696",
        (
            "gossip-n4-h2",
            "135361e809914154e1fd188e21eae466b55849005e9fffa24b374a6d2aec23ba",
        ),
    ),
    (
        "ok_protocol",
        {"horizon": 4, "eps": 2},
        "2ba298163887ef4d76bec39a4989cfab2a14958962568d81126137b5db70fd61",
        "69002ed590703ec91e67cd362dc5b93734be8239d24947153e0306cba52d765f",
        (
            "ok-protocol-h4",
            "dcc5ffd827906ddf6017f6fc208ecae5c79c683e96659faef7edc3524db478b0",
        ),
    ),
    (
        "random_protocol",
        {"seed": 7, "n_agents": 3, "delivery": "async"},
        "26a85a2c7691d1c4d87a18e55a4e644c731b862a3ef1c5ba63cc3ecd6cd18f9b",
        "c35d6f7789f827a0cb35b6c7a9fa95c45f66be29449fd70971160a340f769f20",
        (
            "fuzz-s7-n3-h3-async",
            "cf289bd592fd96a0180ab431e4d278b4f10cddb899c225e4b4ca0b0144e62e3b",
        ),
    ),
    (
        "sequence_transmission",
        {"n_bits": 2, "horizon": 4, "delivery": "bounded"},
        "ff9a93497ca7d47f088d9b8c0747121e75929d19079305b3ba97aa9c9d944f75",
        "19dae526c19314b122225bfacf1cbb4155839e61aa12ae3c1fc632f28fa749ea",
        (
            "seqtx-b2-h4-bounded",
            "6cb0c4d76c3d1aebc25da0049006a2140fe916573d7e11bb748ab390ce85cc50",
        ),
    ),
)
"""``(scenario, params, store digest, report sha256, (system name, run-names
sha256) or None)`` per pinned point."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


def test_every_catalogue_scenario_is_pinned_at_its_defaults():
    defaults = sorted(name for name, params, *_ in PINS if not params)
    assert defaults == [spec.name for spec in BUILTIN_SCENARIOS]


@pytest.mark.parametrize(
    "scenario, params, digest, report_sha, system",
    PINS,
    ids=[
        "-".join([name] + [f"{key}={value}" for key, value in params.items()])
        for name, params, *_ in PINS
    ],
)
def test_point_matches_its_pins(runner, scenario, params, digest, report_sha, system):
    spec = get_scenario(scenario)
    validated = spec.validate_params(params)
    batch = list(spec.default_formulas(validated).items())
    key = StoreKey.for_request(scenario, params_to_key(validated), batch, "bitset", False)
    assert key.digest == digest

    report = runner.run(scenario, params).to_dict()
    for field in list(report):
        if field in ("backend", "from_store") or field.endswith("_seconds"):
            del report[field]
    assert _sha256(json.dumps(report, sort_keys=True)) == report_sha

    model = runner.instance(scenario, params).built.model
    if system is None:
        assert report["kind"] == "kripke"
    else:
        name, runs_sha = system
        assert model.name == name
        assert _sha256("\n".join(run.name for run in model.runs)) == runs_sha
