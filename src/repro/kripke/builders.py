"""Constructing Kripke structures from higher-level descriptions.

Most of the structures used in the paper's examples have the same shape: each agent
holds some local attribute, each world is an assignment of attributes to agents, and
an agent considers two worlds indistinguishable when everything it *observes* agrees.
The builders here capture that pattern once so the scenario modules stay small:

* :func:`from_worlds` — the fully general builder: give an observation function
  and the partitions are computed for you.
* :func:`observed_variable_model` — worlds are assignments of values to variables;
  each agent observes a stated subset of the variables.
* :func:`others_attribute_model` — the "muddy children" shape: every agent has a
  boolean attribute and sees everyone's attribute *except its own*.
* :func:`shared_memory_model` — all agents observe the entire world; the knowledge
  hierarchy collapses (Section 3's common-memory example).
* :func:`blind_model` — no agent observes anything; every fact valid in the model is
  common knowledge (the single-view interpretation discussed in Section 6).

Partitions leave the builders in one of two forms:

* a *cube* (:meth:`KripkeStructure._from_cube`), from
  :func:`others_attribute_model`: world ``w`` is the ``w``-th boolean tuple, and
  each agent's classes are fixed by the index bits it cannot see.  The bitset
  backend evaluates knowledge on it with shift-and-mask closures, and the
  worlds, the per-world valuation and the block masks are only built when an
  accessor asks for them;
* *class ids* (:meth:`KripkeStructure._from_class_ids`), from every other
  builder: per agent, one small integer per world naming what the agent
  observes there.  The three other shaped builders compute those ids by
  arithmetic on the world's index, so no per-world observation value is built;
  :func:`from_worlds` interns its callable's observations into ids.
"""

from __future__ import annotations

import functools
import itertools
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.universe import Hypercube
from repro.errors import ModelError
from repro.logic.agents import Agent
from repro.kripke.structure import KripkeStructure, World

__all__ = [
    "from_worlds",
    "observed_variable_model",
    "others_attribute_model",
    "shared_memory_model",
    "blind_model",
    "muddy_children_worlds",
]


def from_worlds(
    worlds: Iterable[World],
    agents: Iterable[Agent],
    valuation: Callable[[World], AbstractSet[str]],
    observation: Callable[[Agent, World], Hashable],
) -> KripkeStructure:
    """Build a structure from an observation function.

    ``observation(agent, world)`` returns whatever the agent observes at the world;
    two worlds are indistinguishable to the agent exactly when the observations are
    equal.  This mirrors the paper's view functions: "a processor is said to know a
    fact at a given point exactly if the fact holds at all of the points that the
    processor cannot distinguish from the given one".  Each agent's observations
    are interned into class ids in order of first appearance.
    """
    world_list = _distinct(worlds)
    agent_list = list(agents)
    class_ids: Dict[Agent, List[int]] = {}
    for agent in agent_list:
        seen: Dict[Hashable, int] = {}
        class_ids[agent] = [
            seen.setdefault(observation(agent, world), len(seen)) for world in world_list
        ]
    return _build(world_list, agent_list, valuation, class_ids)


def _distinct(worlds: Iterable[World]) -> List[World]:
    world_list = list(dict.fromkeys(worlds))
    if not world_list:
        raise ModelError("from_worlds requires at least one world")
    return world_list


def _build(
    world_list: List[World],
    agents: List[Agent],
    valuation: Callable[[World], AbstractSet[str]],
    class_ids: Mapping[Agent, Sequence[int]],
) -> KripkeStructure:
    valuation_map = {world: frozenset(valuation(world)) for world in world_list}
    return KripkeStructure._from_class_ids(world_list, agents, valuation_map, class_ids)


def observed_variable_model(
    agents: Sequence[Agent],
    variables: Mapping[str, Sequence[Hashable]],
    observes: Mapping[Agent, AbstractSet[str]],
    valuation: Optional[Callable[[Mapping[str, Hashable]], AbstractSet[str]]] = None,
) -> KripkeStructure:
    """Worlds are assignments of values to named variables.

    Parameters
    ----------
    variables:
        Maps each variable name to its domain of possible values.
    observes:
        Maps each agent to the set of variable names it can see.  Naming a
        variable or an agent that does not exist raises
        :class:`~repro.errors.ModelError`; agents without an entry see nothing.
    valuation:
        Maps an assignment to the set of proposition names true in it.  By default,
        the proposition ``"{var}={value}"`` holds for every variable.

    The worlds are tuples of ``(variable, value)`` pairs sorted by variable name, so
    they are hashable and deterministic.  An agent's class id is the mixed-radix
    number formed by the value indices of the variables it sees.
    """
    agent_list = list(agents)
    names = sorted(variables)
    domains = [list(dict.fromkeys(variables[name])) for name in names]
    unknown_agents = set(observes) - set(agent_list)
    if unknown_agents:
        raise ModelError(
            f"observes mentions unknown agents: {sorted(map(repr, unknown_agents))}"
        )
    for agent, visible in observes.items():
        unknown = set(visible) - set(names)
        if unknown:
            raise ModelError(
                f"agent {agent!r} observes unknown variables: {sorted(map(repr, unknown))}"
            )
    assignments = [
        tuple(zip(names, combo)) for combo in itertools.product(*domains)
    ]
    if not assignments:
        raise ModelError("from_worlds requires at least one world")

    def default_valuation(assignment: Mapping[str, Hashable]) -> AbstractSet[str]:
        return {f"{var}={value}" for var, value in assignment.items()}

    value_fn = valuation or default_valuation

    def world_valuation(world: Tuple[Tuple[str, Hashable], ...]) -> AbstractSet[str]:
        return value_fn(dict(world))

    class_ids: Dict[Agent, List[int]] = {}
    for agent in agent_list:
        visible = observes.get(agent, frozenset())
        # Expand in product order (the last variable varies fastest); a hidden
        # variable repeats the ids, a visible one appends its value index.
        ids = [0]
        for name, domain in zip(names, domains):
            size = len(domain)
            if name in visible:
                ids = [i * size + d for i in ids for d in range(size)]
            else:
                ids = [i for i in ids for _ in range(size)]
        class_ids[agent] = ids
    return _build(assignments, agent_list, world_valuation, class_ids)


def muddy_children_worlds(n: int) -> List[Tuple[bool, ...]]:
    """All 2^n assignments of muddy/clean foreheads to ``n`` children."""
    if n < 1:
        raise ModelError("the muddy children puzzle needs at least one child")
    return list(itertools.product((False, True), repeat=n))


def others_attribute_model(
    agents: Sequence[Agent],
    attribute_name: str = "muddy",
    include_at_least_one_prop: bool = True,
) -> KripkeStructure:
    """The muddy-children-shaped model: each agent has a boolean attribute, observes
    everyone else's attribute, but not its own (Section 2).

    Worlds are tuples of booleans, one per agent in the order given; the agents
    must be distinct.  Propositions:

    * ``"{attribute_name}_{agent}"`` — agent's attribute is set,
    * ``"at_least_one"`` — some agent's attribute is set (the father's announcement m),
      included when ``include_at_least_one_prop`` is true.

    World ``w`` is the ``w``-th tuple of :func:`muddy_children_worlds`, whose bit
    ``n - 1 - i`` is agent ``i``'s attribute.  Agent ``i`` cannot tell ``w`` from
    ``w ^ e_i``, so the model is a cube
    (:class:`~repro.engine.universe.Hypercube`) in which bit ``n - 1 - i`` is
    the one bit hidden from agent ``i``, and each proposition's extension is a
    periodic mask over the world indices.
    """
    agent_list = list(agents)
    if len(set(agent_list)) != len(agent_list):
        raise ModelError(
            f"others_attribute_model needs distinct agents, got {agent_list!r}"
        )
    n = len(agent_list)
    if n < 1:
        raise ModelError("the muddy children puzzle needs at least one child")
    cube = Hypercube(n, {agent: 1 << (n - 1 - i) for i, agent in enumerate(agent_list)})
    names = [f"{attribute_name}_{agent}" for agent in agent_list]
    bits_of: Dict[str, List[int]] = {}
    for i, name in enumerate(names):
        bits_of.setdefault(name, []).append(n - 1 - i)

    def atom(name: str) -> int:
        # Agent i's attribute is set exactly off the positions with bit
        # n - 1 - i clear; some attribute is set everywhere but position 0.
        mask = 0
        for bit in bits_of.get(name, ()):
            mask |= cube.full_mask ^ cube.low_mask(bit)
        if include_at_least_one_prop and name == "at_least_one":
            mask |= cube.full_mask ^ 1
        return mask

    return KripkeStructure._from_cube(
        agent_list,
        cube,
        lambda: muddy_children_worlds(n),
        functools.partial(_attribute_facts, names, include_at_least_one_prop),
        atom,
    )


def _attribute_facts(
    names: Sequence[str], include_at_least_one_prop: bool, world: Tuple[bool, ...]
) -> AbstractSet[str]:
    """The propositions :func:`others_attribute_model` makes true at ``world``."""
    facts = set(itertools.compress(names, world))
    if include_at_least_one_prop and facts:
        facts.add("at_least_one")
    return facts


def shared_memory_model(
    agents: Sequence[Agent],
    worlds: Iterable[World],
    valuation: Callable[[World], AbstractSet[str]],
) -> KripkeStructure:
    """Every agent observes the entire world.

    In this model the hierarchy of Section 3 collapses:
    ``C phi == E^k phi == E phi == S phi == D phi`` for every ``phi``, because each
    agent's equivalence classes are singletons.  Each world's position is its
    class id.
    """
    world_list = _distinct(worlds)
    agent_list = list(agents)
    ids = range(len(world_list))
    return _build(world_list, agent_list, valuation, dict.fromkeys(agent_list, ids))


def blind_model(
    agents: Sequence[Agent],
    worlds: Iterable[World],
    valuation: Callable[[World], AbstractSet[str]],
) -> KripkeStructure:
    """No agent observes anything (the single-view interpretation of Section 6).

    Every agent considers every world possible, so an agent knows exactly the facts
    that are valid in the model — and all of those are common knowledge.  Every
    world has class id 0.
    """
    world_list = _distinct(worlds)
    agent_list = list(agents)
    ids = [0] * len(world_list)
    return _build(world_list, agent_list, valuation, dict.fromkeys(agent_list, ids))
