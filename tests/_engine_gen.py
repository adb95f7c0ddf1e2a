"""Seeded random model and formula generators for the engine differential tests.

Everything here is deterministic given a seed (plain ``random.Random``, no network,
no wall clock), so the differential harness in ``test_engine_equivalence.py`` and the
bitset property tests replay identically on every run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

from repro.kripke.structure import KripkeStructure
from repro.logic.syntax import (
    FALSE,
    TRUE,
    And,
    Common,
    CommonAt,
    CommonDiamond,
    CommonEps,
    Distributed,
    Everyone,
    EveryoneAt,
    EveryoneDiamond,
    EveryoneEps,
    Eventually,
    Always,
    FalseFormula,
    Formula,
    GreatestFixpoint,
    Iff,
    Implies,
    Knows,
    KnowsAt,
    LeastFixpoint,
    Not,
    Or,
    Prop,
    Someone,
    TrueFormula,
    Var,
)

# Every node type the bare-Kripke ModelChecker supports.
STATIC_NODE_TYPES = (
    TrueFormula,
    FalseFormula,
    Prop,
    Var,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Knows,
    Someone,
    Everyone,
    Distributed,
    Common,
    GreatestFixpoint,
    LeastFixpoint,
)

# The run/time-dependent node types only ViewBasedInterpretation supports.
TEMPORAL_NODE_TYPES = (
    Eventually,
    Always,
    EveryoneEps,
    CommonEps,
    EveryoneDiamond,
    CommonDiamond,
    KnowsAt,
    EveryoneAt,
    CommonAt,
)


# ---------------------------------------------------------------------------
# Random Kripke structures
# ---------------------------------------------------------------------------


def random_partition(rng: random.Random, worlds: Sequence) -> List[Set]:
    """A uniform-ish random partition: shuffle, then cut at random positions.

    Occasionally leaves a tail of worlds out of the partition entirely, to exercise
    the singleton-completion rule of :class:`KripkeStructure`.
    """
    shuffled = list(worlds)
    rng.shuffle(shuffled)
    if len(shuffled) > 2 and rng.random() < 0.3:
        shuffled = shuffled[: rng.randint(2, len(shuffled) - 1)]
    blocks: List[Set] = []
    start = 0
    while start < len(shuffled):
        size = rng.randint(1, len(shuffled) - start)
        blocks.append(set(shuffled[start : start + size]))
        start += size
    return blocks


def random_structure(
    seed: int,
    n_worlds: int = 12,
    n_agents: int = 3,
    n_props: int = 4,
) -> KripkeStructure:
    """A random S5 structure with random partitions and a random valuation."""
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(n_worlds)]
    agents = [f"a{i}" for i in range(n_agents)]
    props = [f"p{i}" for i in range(n_props)]
    valuation = {
        world: {name for name in props if rng.random() < 0.5} for world in worlds
    }
    partitions = {agent: random_partition(rng, worlds) for agent in agents}
    return KripkeStructure(worlds, agents, valuation, partitions)


# ---------------------------------------------------------------------------
# Random formulas
# ---------------------------------------------------------------------------


def _random_group(rng: random.Random, agents: Sequence) -> Tuple:
    return tuple(rng.sample(list(agents), rng.randint(1, len(agents))))


def random_positive_body(
    rng: random.Random,
    props: Sequence[str],
    agents: Sequence,
    variable: str,
    depth: int,
) -> Formula:
    """A random formula in which ``variable`` occurs only positively.

    The grammar deliberately omits negation-introducing nodes above the variable, so
    the fixpoint binders' positivity check always passes.
    """
    if depth <= 0:
        return Var(variable) if rng.random() < 0.5 else Prop(rng.choice(list(props)))
    choice = rng.choice(("and", "or", "K", "E", "S", "D", "C", "var", "prop"))
    sub = lambda: random_positive_body(rng, props, agents, variable, depth - 1)
    if choice == "and":
        return And((sub(), sub()))
    if choice == "or":
        return Or((sub(), sub()))
    if choice == "K":
        return Knows(rng.choice(list(agents)), sub())
    if choice == "E":
        return Everyone(_random_group(rng, agents), sub())
    if choice == "S":
        return Someone(_random_group(rng, agents), sub())
    if choice == "D":
        return Distributed(_random_group(rng, agents), sub())
    if choice == "C":
        return Common(_random_group(rng, agents), sub())
    if choice == "var":
        return Var(variable)
    return Prop(rng.choice(list(props)))


_STATIC_CHOICES = (
    "prop",
    "true",
    "false",
    "not",
    "and",
    "or",
    "implies",
    "iff",
    "K",
    "S",
    "E",
    "D",
    "C",
    "nu",
    "mu",
)

_TEMPORAL_CHOICES = (
    "eventually",
    "always",
    "eeps",
    "ceps",
    "ediamond",
    "cdiamond",
    "kt",
    "et",
    "ct",
)


def random_formula(
    rng: random.Random,
    props: Sequence[str],
    agents: Sequence,
    depth: int,
    temporal: bool = False,
) -> Formula:
    """A random closed formula of the given maximum depth.

    With ``temporal=True`` the generator also emits the Sections 11/12 operators
    (only meaningful for runs-and-systems interpretations).
    """
    if depth <= 0:
        return Prop(rng.choice(list(props)))
    choices = _STATIC_CHOICES + (_TEMPORAL_CHOICES if temporal else ())
    choice = rng.choice(choices)
    sub = lambda: random_formula(rng, props, agents, depth - 1, temporal)
    agent = lambda: rng.choice(list(agents))
    group = lambda: _random_group(rng, agents)
    if choice == "prop":
        return Prop(rng.choice(list(props)))
    if choice == "true":
        return TRUE
    if choice == "false":
        return FALSE
    if choice == "not":
        return Not(sub())
    if choice == "and":
        return And(tuple(sub() for _ in range(rng.randint(2, 3))))
    if choice == "or":
        return Or(tuple(sub() for _ in range(rng.randint(2, 3))))
    if choice == "implies":
        return Implies(sub(), sub())
    if choice == "iff":
        return Iff(sub(), sub())
    if choice == "K":
        return Knows(agent(), sub())
    if choice == "S":
        return Someone(group(), sub())
    if choice == "E":
        return Everyone(group(), sub())
    if choice == "D":
        return Distributed(group(), sub())
    if choice == "C":
        return Common(group(), sub())
    if choice == "nu":
        variable = f"X{depth}"
        return GreatestFixpoint(
            variable, random_positive_body(rng, props, agents, variable, depth - 1)
        )
    if choice == "mu":
        variable = f"Y{depth}"
        return LeastFixpoint(
            variable, random_positive_body(rng, props, agents, variable, depth - 1)
        )
    if choice == "eventually":
        return Eventually(sub())
    if choice == "always":
        return Always(sub())
    if choice == "eeps":
        return EveryoneEps(group(), sub(), rng.randint(0, 2))
    if choice == "ceps":
        return CommonEps(group(), sub(), rng.randint(0, 2))
    if choice == "ediamond":
        return EveryoneDiamond(group(), sub())
    if choice == "cdiamond":
        return CommonDiamond(group(), sub())
    if choice == "kt":
        return KnowsAt(agent(), sub(), rng.randint(0, 3))
    if choice == "et":
        return EveryoneAt(group(), sub(), rng.randint(0, 3))
    return CommonAt(group(), sub(), rng.randint(0, 3))


def formula_suite(
    seed: int,
    props: Sequence[str],
    agents: Sequence,
    count: int,
    temporal: bool = False,
    max_depth: int = 4,
) -> List[Formula]:
    """``count`` random closed formulas over the given vocabulary, deterministically."""
    rng = random.Random(seed)
    return [
        random_formula(rng, props, agents, rng.randint(1, max_depth), temporal)
        for _ in range(count)
    ]


def node_types_used(formulas: Sequence[Formula]) -> Set[type]:
    """Every syntax-node type occurring in ``formulas`` (including subformulas)."""
    used: Set[type] = set()
    for formula in formulas:
        for node in formula.subformulas():
            used.add(type(node))
    return used



def common_as_fixpoint(formula: Formula) -> Formula:
    """``formula`` with every ``C_G phi`` written as ``nu Y. E_G(phi & Y)``.

    Appendix A equates the two, so the rewrite has the same extension; it
    computes common knowledge a second way, by iterating ``E_G`` instead of
    taking G-reachability components.  ``Y`` is renamed until it is fresh.
    """
    used = set()
    for sub in formula.subformulas():
        if isinstance(sub, Var):
            used.add(sub.name)
        elif isinstance(sub, (GreatestFixpoint, LeastFixpoint)):
            used.add(sub.variable)
    name = "Y"
    while name in used:
        name += "_"

    def rewrite(node: Formula) -> Formula:
        children = node.children()
        if children:
            node = node.with_children(tuple(rewrite(child) for child in children))
        if isinstance(node, Common):
            return GreatestFixpoint(
                name, Everyone(node.group, And((node.operand, Var(name))))
            )
        return node

    return rewrite(formula)
