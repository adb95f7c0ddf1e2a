"""Protocol/simulation substrate (the Simulation layer of ``docs/architecture.md``).

Deterministic protocols, message-delivery models, and exhaustive run enumeration that
turns "protocol + environment" into the systems of runs analysed by
:mod:`repro.systems`.  The substrate also carries the seeded random-protocol
fuzzer (:mod:`repro.simulation.fuzz`) and the JSONL trace-ingestion path
(:mod:`repro.simulation.trace`), which build systems of runs from generated
protocols and recorded event logs respectively.
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
from repro.simulation.trace import (
    dump_lines,
    dump_path,
    dump_text,
    ingest_lines,
    ingest_path,
    ingest_text,
)

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
    "dump_lines",
    "dump_text",
    "dump_path",
    "ingest_lines",
    "ingest_text",
    "ingest_path",
]
