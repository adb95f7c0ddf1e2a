"""Finite Kripke-structure substrate (the Kripke layer of ``docs/architecture.md``).

Provides S5 Kripke structures, a model checker for the full static epistemic language
(including distributed and common knowledge and the fixpoint operators of Appendix A),
public/private announcement updates, bisimulation minimisation, and builders for the
model shapes the paper's examples use.
"""

from repro.kripke.announcement import (
    UpdateChain,
    announce_sequence,
    private_announce,
    public_announce,
    simultaneous_answers,
)
from repro.kripke.bisimulation import (
    are_bisimilar,
    bisimulation_classes,
    minimize,
    quotient,
)
from repro.kripke.builders import (
    blind_model,
    from_worlds,
    muddy_children_worlds,
    observed_variable_model,
    others_attribute_model,
    shared_memory_model,
)
from repro.kripke.checker import CommonKnowledgeStrategy, ModelChecker
from repro.kripke.structure import KripkeStructure, World

__all__ = [
    "UpdateChain",
    "announce_sequence",
    "private_announce",
    "public_announce",
    "simultaneous_answers",
    "are_bisimilar",
    "bisimulation_classes",
    "minimize",
    "quotient",
    "blind_model",
    "from_worlds",
    "muddy_children_worlds",
    "observed_variable_model",
    "others_attribute_model",
    "shared_memory_model",
    "CommonKnowledgeStrategy",
    "ModelChecker",
    "KripkeStructure",
    "World",
]
