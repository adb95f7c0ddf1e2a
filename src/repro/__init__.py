"""repro — an executable reproduction of Halpern & Moses, "Knowledge and Common
Knowledge in a Distributed Environment" (PODC 1984 / JACM 1990).

The library is organised in layers (see the layer map in ``docs/architecture.md``):

* :mod:`repro.logic` — the epistemic language: ``K_i``, ``S_G``, ``E_G``, ``D_G``,
  ``C_G``, the temporal variants ``C^eps`` / ``C^<>`` / ``C^T``, and the fixpoint
  operators of Appendix A.
* :mod:`repro.engine` — the shared formula-evaluation core: the ``bitset``
  production backend, with the ``frozenset`` transcription kept as the test oracle.
* :mod:`repro.kripke` — finite S5 Kripke structures, model checking, public
  announcements, bisimulation.
* :mod:`repro.systems` — the runs-and-systems model of Section 5, view-based and
  general epistemic interpretations, and the communication-property conditions of
  Section 8 / Appendix B.
* :mod:`repro.simulation` — deterministic protocols, delivery models, and exhaustive
  run enumeration.
* :mod:`repro.scenarios` — the paper's worked examples (muddy children, coordinated
  attack, R2–D2, the OK protocol, phases, distributed commit).
* :mod:`repro.experiments` — the scenario registry and the batch
  :class:`~repro.experiments.runner.ExperimentRunner` (parameter grids, sweeps,
  structure caching).
* :mod:`repro.analysis` — executable forms of the paper's theorems.
* :mod:`repro.cli` — the ``python -m repro`` / ``repro`` command line interface
  (``list`` / ``describe`` / ``run`` / ``sweep``).

Quickstart::

    from repro.logic import C, E, prop
    from repro.kripke import ModelChecker, others_attribute_model, public_announce

    children = ["a", "b", "c"]
    model = others_attribute_model(children)
    m = prop("at_least_one")
    checker = ModelChecker(model)
    checker.holds(E(children, m, 2), (True, True, False))   # False: E^2 m fails
    after = public_announce(model, m)
    ModelChecker(after).holds(C(children, m), (True, True, False))  # True
"""

from repro.errors import (
    EvaluationError,
    FormulaError,
    ModelError,
    ParseError,
    ProtocolError,
    ReproError,
    ScenarioError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "EvaluationError",
    "FormulaError",
    "ModelError",
    "ParseError",
    "ProtocolError",
    "ReproError",
    "ScenarioError",
    "SimulationError",
    "__version__",
]
