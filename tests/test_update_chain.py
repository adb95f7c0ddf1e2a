"""Mechanism: a chain of model updates keeps one world numbering.

Every structure derived from a build (a public announcement, a round of
public answers, a new valuation) is a survivor mask over the numbering the
build made.  So the evaluator at every step of the chain gets the first
structure's universe object, and no mask is compressed into the survivors'
own numbering until a public accessor asks for it.  The differential tests
(``test_derived_structures.py``, ``test_hypercube.py``) check that the
answers are still the rebuilds' answers.
"""

import pytest

from repro.kripke import structure as kripke_structure
from repro.kripke.announcement import UpdateChain
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.kripke.reference import others_attribute_class_ids
from repro.logic.parser import parse

AGENTS = ["c0", "c1", "c2", "c3"]
BATCH = [
    parse(text)
    for text in (
        "at_least_one",
        "K_c0 muddy_c0",
        "E_{c0,c1,c2,c3} at_least_one",
        "D_{c0,c1} muddy_c2",
        "C_{c0,c1,c2,c3} at_least_one",
        "C_{c1,c2} !muddy_c3",
    )
]


@pytest.mark.parametrize("build", [others_attribute_model, others_attribute_class_ids])
def test_an_update_chain_never_renumbers(monkeypatch, build):
    def no_compressor(*args):
        raise AssertionError("compressed a mask before a public accessor asked")

    monkeypatch.setattr(kripke_structure, "MaskCompressor", no_compressor)
    chain = UpdateChain(build(AGENTS))
    universe = chain.model.evaluation_masks().universe
    sizes = []

    def step():
        model = chain.model
        assert model.evaluation_masks().universe is universe
        assert ModelChecker(model).extensions(BATCH)
        sizes.append(len(model))

    step()
    chain.announce(parse("at_least_one"))
    step()
    chain.answer_round([(agent, parse(f"muddy_{agent}")) for agent in AGENTS])
    step()
    chain.announce(parse("!muddy_c0 | !muddy_c1"))
    step()
    relabelled = chain.model.with_valuation({w: {"p"} for w in chain.model.worlds if w[0]})
    assert relabelled.evaluation_masks().universe is universe
    assert ModelChecker(relabelled).extensions(BATCH + [parse("K_c1 p")])
    assert sizes == [16, 15, 15, 11]
    # The survivors' own numbering is what the public accessors answer in.
    with pytest.raises(AssertionError, match="compressed a mask"):
        relabelled.indexed_universe()
