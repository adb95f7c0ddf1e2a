"""Cache coherence and error-path behaviour of the shared evaluation engine.

The engine refactor moved memoisation out of the two evaluators into
:class:`repro.engine.EvaluationEngine`.  The latent bug class this guards against:
an evaluator-level ``clear_cache()`` that empties the host's cache but leaves the
engine memo populated, so a later query silently serves stale extensions.  Both
evaluators now keep *no* cache of their own and delegate, which these tests pin.

The error paths must also survive the refactor byte-for-byte: temporal operators on
a bare Kripke structure raise :class:`~repro.errors.EvaluationError` with the same
message the pre-engine checker produced.
"""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError, UnknownAgentError
from repro.kripke.builders import others_attribute_model
from repro.kripke.checker import ModelChecker
from repro.logic.syntax import (
    Always,
    C,
    CDiamond,
    CEps,
    CT,
    E,
    EDiamond,
    EEps,
    ET,
    Eventually,
    Formula,
    K,
    KT,
    Var,
    prop,
)
from repro.scenarios.coordinated_attack import build_handshake_system
from repro.systems.interpretation import ViewBasedInterpretation

CHILDREN = ("a", "b", "c")
M = prop("at_least_one")

pytestmark = pytest.mark.usefixtures("engine_backend")


@pytest.fixture(params=["frozenset", "bitset"])
def backend(request):
    return request.param


# ---------------------------------------------------------------------------
# clear_cache coherence
# ---------------------------------------------------------------------------


def test_checker_clear_cache_clears_engine_memo(backend):
    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    before = checker.extension(C(CHILDREN, M))
    assert checker.engine.cache_size > 0
    checker.clear_cache()
    assert checker.engine.cache_size == 0
    assert checker.extension(C(CHILDREN, M)) == before


def test_interpretation_clear_cache_clears_engine_memo(backend):
    system = build_handshake_system(depth=2, horizon=5)
    interp = ViewBasedInterpretation(system, backend=backend)
    fact = prop("intend_attack")
    before = interp.extension(CDiamond(("A", "B"), fact))
    assert interp.engine.cache_size > 0
    interp.clear_cache()
    assert interp.engine.cache_size == 0
    assert interp.extension(CDiamond(("A", "B"), fact)) == before


def test_checker_options_are_keyword_only(backend):
    """The checker has one evaluation configuration: a positional second
    argument (such as a stale common-knowledge strategy name) is refused
    instead of being read as a backend name."""
    model = others_attribute_model(CHILDREN)
    with pytest.raises(TypeError):
        ModelChecker(model, "fixpoint", backend=backend)
    with pytest.raises(TypeError):
        ModelChecker(model, common_strategy="fixpoint", backend=backend)
    assert ModelChecker(model, backend=backend).backend == backend


def test_batch_queries_share_one_memo(backend):
    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    formulas = [E(CHILDREN, M, k) for k in range(1, 4)] + [C(CHILDREN, M)]
    extensions = checker.extensions(formulas)
    assert extensions == [checker.extension(f) for f in formulas]
    populated = checker.engine.cache_size
    # Re-running the batch is pure cache hits: the memo does not grow.
    checker.extensions(formulas)
    assert checker.engine.cache_size == populated


# ---------------------------------------------------------------------------
# Error paths through the engine
# ---------------------------------------------------------------------------

_TEMPORAL_FORMULAS = [
    EEps(CHILDREN, M, 1),
    CEps(CHILDREN, M, 1),
    EDiamond(CHILDREN, M),
    CDiamond(CHILDREN, M),
    KT("a", M, 0),
    ET(CHILDREN, M, 0),
    CT(CHILDREN, M, 0),
    Eventually(M),
    Always(M),
]


@pytest.mark.parametrize(
    "formula", _TEMPORAL_FORMULAS, ids=lambda f: type(f).__name__
)
def test_temporal_operators_raise_on_bare_kripke(backend, formula):
    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    expected = (
        f"{type(formula).__name__} requires a runs-and-systems model; "
        "use repro.systems.ViewBasedInterpretation instead of a bare Kripke "
        "structure"
    )
    with pytest.raises(EvaluationError) as excinfo:
        checker.extension(formula)
    assert str(excinfo.value) == expected


def test_temporal_operators_raise_even_when_nested(backend):
    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    with pytest.raises(EvaluationError, match="requires a runs-and-systems model"):
        checker.extension(K("a", Eventually(M)))


def test_unbound_fixpoint_variable_message(backend):
    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    with pytest.raises(EvaluationError) as excinfo:
        checker.extension(Var("X"))
    assert str(excinfo.value) == "fixpoint variable 'X' is free and unbound"
    # ...but an environment binding makes it evaluable.
    bound = checker.extension(Var("X"), {"X": checker.extension(M)})
    assert bound == checker.extension(M)


def test_unsupported_node_message(backend):
    class Mystery(Formula):
        def children(self):
            return ()

        def _key(self):
            return ()

        def __repr__(self):
            return "mystery"

    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    with pytest.raises(EvaluationError) as excinfo:
        checker.extension(Mystery())
    assert str(excinfo.value) == "unsupported formula node Mystery"


def test_unknown_agent_in_knows_raises_host_error(backend):
    checker = ModelChecker(others_attribute_model(CHILDREN), backend=backend)
    with pytest.raises(UnknownAgentError, match="unknown agent"):
        checker.extension(K("zz", M))
    system = build_handshake_system(depth=1, horizon=3)
    interp = ViewBasedInterpretation(system, backend=backend)
    with pytest.raises(UnknownAgentError, match="unknown processor"):
        interp.extension(K("zz", prop("intend_attack")))


def test_unknown_backend_is_rejected():
    with pytest.raises(EvaluationError, match="unknown engine backend"):
        ModelChecker(others_attribute_model(CHILDREN), backend="abacus")
