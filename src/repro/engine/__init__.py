"""Shared, backend-pluggable evaluation core for the epistemic language.

This package factors the structural-recursion semantics of Section 6 out of the two
evaluators (:class:`repro.kripke.checker.ModelChecker` and
:class:`repro.systems.interpretation.ViewBasedInterpretation`) into one engine with
two set representations:

* the ``bitset`` backend, the default and the only production backend
  (extensions as integer bitmasks over an indexed universe, with per-agent
  partition masks and per-group reachability components precomputed);
* the ``frozenset`` backend, the test oracle (the paper's clauses, transcribed
  literally), reachable only through an evaluator's ``backend=`` argument or
  the process-wide default the test suite sets.

Partitions enter the engine in one format: per-agent block masks and per-element
class masks over an :class:`IndexedUniverse`, grouped from small-int class ids by
:func:`~repro.engine.universe.partition_from_class_ids`.  Both hosts produce them
that way (Kripke builders from arithmetic ids, systems from interned views), and
both backends are built from them.  The differential tests in
``tests/test_engine_equivalence.py`` keep the two backends in lock-step on every
operator.
"""

from repro.engine.backends import (
    BACKENDS,
    BitsetBackend,
    EngineBackend,
    FrozensetBackend,
    get_default_backend,
    resolve_backend_name,
    set_default_backend,
)
from repro.engine.core import (
    COMMON_FIXPOINT,
    COMMON_REACHABILITY,
    EvaluationEngine,
)
from repro.engine.universe import IndexedUniverse, Segmentation

__all__ = [
    "BACKENDS",
    "BitsetBackend",
    "EngineBackend",
    "FrozensetBackend",
    "IndexedUniverse",
    "Segmentation",
    "EvaluationEngine",
    "COMMON_FIXPOINT",
    "COMMON_REACHABILITY",
    "get_default_backend",
    "resolve_backend_name",
    "set_default_backend",
]
