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

Partitions enter the engine as per-agent block masks and per-element class masks
over an :class:`IndexedUniverse`, grouped from small-int class ids by
:func:`~repro.engine.universe.partition_from_class_ids`.  Both hosts produce them
that way (Kripke builders from arithmetic ids, systems from interned views), and
both backends are built from them.  A muddy-children model also hands over a
:class:`Hypercube`, the index bits each agent cannot see, and the mask of its
surviving worlds; the bitset backend then evaluates ``K``, ``D`` and ``C`` by
shift-and-mask closures and never reads the block masks.  The differential tests in
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
from repro.engine.core import EvaluationEngine
from repro.engine.universe import Hypercube, IndexedUniverse, Segmentation

__all__ = [
    "BACKENDS",
    "BitsetBackend",
    "EngineBackend",
    "FrozensetBackend",
    "Hypercube",
    "IndexedUniverse",
    "Segmentation",
    "EvaluationEngine",
    "get_default_backend",
    "resolve_backend_name",
    "set_default_backend",
]
