"""Protocol/simulation substrate (the Simulation layer of ``docs/architecture.md``).

Deterministic protocols, message-delivery models, and exhaustive run enumeration that
turns "protocol + environment" into the systems of runs analysed by
:mod:`repro.systems`.  The substrate also carries the seeded random-protocol
fuzzer (:mod:`repro.simulation.fuzz`), which builds systems of runs from
generated protocols.
"""

from repro.simulation.fuzz import (
    RandomProtocol,
    delivery_models,
    fuzz_fact_rule,
    fuzz_formulas,
    fuzz_processors,
    random_protocol,
    random_system,
)
from repro.simulation.network import (
    AdversarialDrops,
    Asynchronous,
    BoundedUncertain,
    DeliveryModel,
    DropRule,
    ReliableSynchronous,
    Unreliable,
)
from repro.simulation.protocol import (
    Action,
    FunctionProtocol,
    JointProtocol,
    LocalAction,
    Outgoing,
    Protocol,
    SilentProtocol,
    as_joint_protocol,
)
from repro.simulation.simulator import Environment, FactRule, Simulator, simulate

__all__ = [
    "AdversarialDrops",
    "Asynchronous",
    "BoundedUncertain",
    "DeliveryModel",
    "DropRule",
    "ReliableSynchronous",
    "Unreliable",
    "Action",
    "FunctionProtocol",
    "JointProtocol",
    "LocalAction",
    "Outgoing",
    "Protocol",
    "SilentProtocol",
    "as_joint_protocol",
    "Environment",
    "FactRule",
    "Simulator",
    "simulate",
    "RandomProtocol",
    "random_protocol",
    "random_system",
    "fuzz_processors",
    "fuzz_fact_rule",
    "fuzz_formulas",
    "delivery_models",
]
