"""The scenario registry: the paper's worked examples as declarative data.

A scenario is a :class:`ScenarioSpec`: a name, the paper section it
reproduces, a typed :class:`Parameter` schema, a builder and optional
default-formula and signature factories.  The registry is the shared on-ramp
for everything that wants to enumerate or instantiate scenarios uniformly:
the batch :class:`~repro.experiments.runner.ExperimentRunner`, the
``python -m repro`` CLI, the evaluation service, the benchmarks and the
generated ``docs/scenarios.md`` page.

The built-in scenarios' metadata lives in one light module,
:mod:`repro.experiments.catalogue`.  Its entries name their callables as
``module:attribute`` strings (:class:`Deferred`), imported on first call, so
listing, describing the schema of and validating parameters for every
scenario never imports a scenario module or the model stack
(:mod:`repro.kripke`, :mod:`repro.systems`, :mod:`repro.simulation`,
:mod:`repro.engine`); this module itself imports none of them either.

Plugins and tests register more scenarios at run time::

    @register_scenario(
        name="two_agents",
        summary="a two-world toy model",
        section="tests",
        parameters=(Parameter("n", int, default=2, minimum=1),),
        formulas=lambda params: {"p": prop("p")},   # params -> {label: Formula}
    )
    def build(n):
        return BuiltScenario(model=..., focus=...)

The builder receives validated keyword parameters and returns either a bare model
(a :class:`~repro.kripke.structure.KripkeStructure` or a
:class:`~repro.systems.system.System`) or a :class:`BuiltScenario` when it also
wants to designate a focus world/point.  Model *construction* stays in the
scenario modules; the registry only holds the schema and the callable.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover - the model stack stays unimported here
    from repro.kripke.structure import KripkeStructure
    from repro.logic.check import ScenarioSignature
    from repro.logic.syntax import Formula
    from repro.systems.system import System

__all__ = [
    "Parameter",
    "BuiltScenario",
    "Deferred",
    "ScenarioSignature",
    "ScenarioSpec",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "scenario_listing",
    "scenario_description",
    "load_builtin_scenarios",
    "params_to_key",
    "params_from_key",
    "KIND_KRIPKE",
    "KIND_SYSTEM",
]

ParamKey = Tuple[Tuple[str, object], ...]
"""A validated parameter assignment as a canonical, hashable, picklable tuple."""


def params_to_key(params: Mapping[str, object]) -> ParamKey:
    """Flatten a parameter assignment into its canonical key.

    The key is sorted by parameter name, so two assignments spelled in
    different orders map to the same key — this is what the runner's instance
    cache indexes on, and the shape parameter assignments travel in across the
    parallel sweep's process-pool boundary (values are the already-coerced
    scalars of the schema, all picklable).  :func:`params_from_key` is the
    exact inverse.
    """
    return tuple(sorted(params.items()))


def params_from_key(key: ParamKey) -> Dict[str, object]:
    """Rebuild the parameter dict a :func:`params_to_key` key came from."""
    return dict(key)

KIND_KRIPKE = "kripke"
"""Scenario kind: the builder produced a finite Kripke structure."""

KIND_SYSTEM = "system"
"""Scenario kind: the builder produced a runs-and-systems model."""

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class Parameter:
    """One typed parameter of a scenario.

    Parameters
    ----------
    name:
        The keyword the builder receives.
    type:
        One of ``int``, ``float``, ``str``, ``bool``.  String inputs (from the
        CLI) are coerced through this type; already-typed inputs are checked
        against it.
    default:
        The value used when the caller omits the parameter.  ``None`` marks the
        parameter as required.
    description:
        One line for ``describe`` output and the generated docs.
    minimum / maximum:
        Optional inclusive bounds for numeric parameters.
    choices:
        Optional closed set of allowed values (checked after coercion).
    """

    name: str
    type: type = int
    default: Optional[object] = None
    description: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Optional[Tuple[object, ...]] = None

    @property
    def required(self) -> bool:
        """Whether the caller must supply this parameter explicitly."""
        return self.default is None

    def coerce(self, value: object) -> object:
        """Coerce and validate ``value``, raising :class:`ScenarioError` on misuse.

        Strings are parsed according to :attr:`type` (so CLI ``-p n=5`` works);
        non-string inputs must already have a compatible Python type.
        """
        coerced = self._coerce_type(value)
        if self.minimum is not None and coerced < self.minimum:
            raise ScenarioError(
                f"parameter {self.name!r} must be >= {self.minimum}, got {coerced!r}"
            )
        if self.maximum is not None and coerced > self.maximum:
            raise ScenarioError(
                f"parameter {self.name!r} must be <= {self.maximum}, got {coerced!r}"
            )
        if self.choices is not None and coerced not in self.choices:
            raise ScenarioError(
                f"parameter {self.name!r} must be one of {self.choices}, got {coerced!r}"
            )
        return coerced

    def _coerce_type(self, value: object) -> object:
        if self.type is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in _TRUE_STRINGS:
                    return True
                if lowered in _FALSE_STRINGS:
                    return False
            raise ScenarioError(
                f"parameter {self.name!r} expects a boolean "
                f"(true/false/1/0), got {value!r}"
            )
        if isinstance(value, str) and self.type is not str:
            try:
                return self.type(value)
            except ValueError:
                raise ScenarioError(
                    f"parameter {self.name!r} expects {self.type.__name__}, "
                    f"got {value!r}"
                ) from None
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if self.type is int and isinstance(value, float):
            # JSON has one number type, so an integer parameter routinely
            # arrives as 4.0 from HTTP clients (and from CLI step grids).
            # Integral floats coerce exactly; anything fractional is a real
            # type error.  Every entry point shares this path, so the same
            # logical request always canonicalises to the same value — and
            # therefore the same store key.
            if value.is_integer():
                return int(value)
            raise ScenarioError(
                f"parameter {self.name!r} expects int, got {value!r} "
                "(a fractional value cannot be coerced)"
            )
        if not isinstance(value, self.type) or isinstance(value, bool) != (self.type is bool):
            raise ScenarioError(
                f"parameter {self.name!r} expects {self.type.__name__}, got {value!r}"
            )
        return value

    def describe(self) -> str:
        """A one-line human-readable rendering of the schema entry."""
        parts = [f"{self.name}: {self.type.__name__}"]
        parts.append("required" if self.required else f"default {self.default!r}")
        if self.minimum is not None or self.maximum is not None:
            low = "-inf" if self.minimum is None else self.minimum
            high = "inf" if self.maximum is None else self.maximum
            parts.append(f"range [{low}, {high}]")
        if self.choices is not None:
            parts.append("choices " + "/".join(str(c) for c in self.choices))
        return ", ".join(str(p) for p in parts)


@dataclass(frozen=True)
class BuiltScenario:
    """What a scenario builder returns: a model plus optional metadata.

    ``model`` is a :class:`~repro.kripke.structure.KripkeStructure` or a
    :class:`~repro.systems.system.System`; ``focus`` optionally designates the
    "actual" world (Kripke) or point (system) that reports single out.
    """

    model: Union["KripkeStructure", "System"]
    focus: Optional[object] = None
    note: str = ""
    """Free-form remark shown by ``describe`` (e.g. what the focus world is)."""


FormulaFactory = Callable[[Mapping[str, object]], "Mapping[str, Formula]"]

SignatureFactory = Callable[[Mapping[str, object]], "ScenarioSignature"]
"""``validated params -> ScenarioSignature`` — static shape, no model build."""


@dataclass(frozen=True)
class Deferred:
    """A callable named ``"package.module:attribute"``, imported on first call.

    The catalogue's builders and factories are deferred so that reading a
    scenario's metadata never imports its module; the first call imports it,
    and later calls find it in :data:`sys.modules`.
    """

    target: str

    @property
    def module(self) -> str:
        """The module the target lives in (imported by :meth:`resolve`)."""
        return self.target.partition(":")[0]

    def resolve(self) -> Callable:
        """Import the module and return the named attribute."""
        module_name, _, attribute = self.target.partition(":")
        return getattr(importlib.import_module(module_name), attribute)

    def __call__(self, *args, **kwargs):
        return self.resolve()(*args, **kwargs)


def _model_kind(model: object) -> Optional[str]:
    """:data:`KIND_KRIPKE`, :data:`KIND_SYSTEM` or ``None`` for anything else.

    A model's class module is loaded whenever the model exists, so a module
    missing from :data:`sys.modules` cannot own the model's type; asking
    this way keeps the registry from importing either model stack.
    """
    structure = sys.modules.get("repro.kripke.structure")
    if structure is not None and isinstance(model, structure.KripkeStructure):
        return KIND_KRIPKE
    system = sys.modules.get("repro.systems.system")
    if system is not None and isinstance(model, system.System):
        return KIND_SYSTEM
    return None


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: schema + builder + default formulas.

    Built-in specs come from :mod:`repro.experiments.catalogue`, with
    :class:`Deferred` callables; :func:`register_scenario` creates the rest.
    User code normally only reads them (``spec.parameters``,
    ``spec.build(...)``, ``spec.default_formulas(...)``).
    """

    name: str
    summary: str
    section: str
    parameters: Tuple[Parameter, ...]
    builder: Callable[..., Union[BuiltScenario, KripkeStructure, System]]
    formulas: Optional[FormulaFactory] = None
    details: str = field(default="", compare=False)
    signature: Optional[SignatureFactory] = field(default=None, compare=False)

    def parameter(self, name: str) -> Parameter:
        """The schema entry called ``name`` (:class:`ScenarioError` if absent)."""
        for parameter in self.parameters:
            if parameter.name == name:
                return parameter
        raise ScenarioError(
            f"scenario {self.name!r} has no parameter {name!r}; "
            f"known parameters: {[p.name for p in self.parameters]}"
        )

    def validate_params(self, params: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Merge ``params`` with defaults, coercing and validating every value.

        Unknown names, missing required parameters, type mismatches and
        range/choice violations all raise :class:`ScenarioError`.
        """
        supplied = dict(params or {})
        known = {parameter.name for parameter in self.parameters}
        unknown = sorted(set(supplied) - known)
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} got unknown parameter(s) {unknown}; "
                f"known parameters: {sorted(known)}"
            )
        validated: Dict[str, object] = {}
        for parameter in self.parameters:
            if parameter.name in supplied:
                validated[parameter.name] = parameter.coerce(supplied[parameter.name])
            elif parameter.required:
                raise ScenarioError(
                    f"scenario {self.name!r} requires parameter {parameter.name!r}"
                )
            else:
                validated[parameter.name] = parameter.default
        return validated

    def build(self, params: Optional[Mapping[str, object]] = None) -> BuiltScenario:
        """Validate ``params`` and run the builder, normalising the result.

        Builders may return a bare model; it is wrapped into a
        :class:`BuiltScenario` so callers always see one shape.
        """
        validated = self.validate_params(params)
        built = self.builder(**validated)
        if _model_kind(built) is not None:
            built = BuiltScenario(model=built)
        if not isinstance(built, BuiltScenario):
            raise ScenarioError(
                f"builder for scenario {self.name!r} returned {type(built).__name__}; "
                "expected a KripkeStructure, a System, or a BuiltScenario"
            )
        return built

    def default_formulas(
        self, params: Optional[Mapping[str, object]] = None
    ) -> Dict[str, Formula]:
        """The scenario's default formula set for validated ``params``.

        Returns an ordered ``label -> Formula`` mapping; empty when the scenario
        registered no formula factory.
        """
        if self.formulas is None:
            return {}
        return dict(self.formulas(self.validate_params(params)))

    def signature_for(
        self, params: Optional[Mapping[str, object]] = None
    ) -> Optional[ScenarioSignature]:
        """The scenario's static signature for validated ``params``.

        Returns ``None`` when the scenario registered no signature factory —
        callers (the static checker, the runner pre-flight) then skip the
        signature-dependent checks.  Like :meth:`default_formulas`, this never
        builds the model: the signature is derived from the parameter schema
        alone, which is what makes pre-flight cheap enough to run on every
        grid point of a sweep.
        """
        if self.signature is None:
            return None
        derived = self.signature(self.validate_params(params))
        if derived.name:
            return derived
        # Stamp the registry name so diagnostics always name the scenario.
        from dataclasses import replace

        return replace(derived, name=self.name)

    @staticmethod
    def kind_of(model: Union[KripkeStructure, System]) -> str:
        """Classify a built model as :data:`KIND_KRIPKE` or :data:`KIND_SYSTEM`."""
        kind = _model_kind(model)
        if kind is None:
            raise ScenarioError(f"unsupported model type {type(model).__name__}")
        return kind


_REGISTRY: Dict[str, ScenarioSpec] = {}
_BUILTINS_LOADED = False


def register_scenario(
    name: str,
    summary: str,
    section: str,
    parameters: Sequence[Parameter] = (),
    formulas: Optional[FormulaFactory] = None,
    details: str = "",
    signature: Optional[SignatureFactory] = None,
) -> Callable[[Callable], Callable]:
    """Decorator factory registering a builder function as a scenario.

    Raises :class:`ScenarioError` when ``name`` is already taken or the schema
    repeats a parameter name.  Returns the builder unchanged, with the created
    :class:`ScenarioSpec` attached as ``builder.scenario_spec``.

    ``signature`` optionally maps validated parameters to a
    :class:`~repro.logic.check.ScenarioSignature` (agents, horizon,
    Kripke-vs-system capability) *without* building the model; when present,
    ``repro check`` and the runner pre-flight validate formula batches against
    it before any instance is built.
    """
    seen = set()
    for parameter in parameters:
        if parameter.name in seen:
            raise ScenarioError(
                f"scenario {name!r} declares parameter {parameter.name!r} twice"
            )
        seen.add(parameter.name)

    def decorator(builder: Callable) -> Callable:
        load_builtin_scenarios()
        if name in _REGISTRY:
            owner = _REGISTRY[name].builder
            raise ScenarioError(
                f"scenario {name!r} is already registered "
                f"(by {getattr(owner, 'module', owner.__module__)})"
            )
        spec = ScenarioSpec(
            name=name,
            summary=summary,
            section=section,
            parameters=tuple(parameters),
            builder=builder,
            formulas=formulas,
            details=details,
            signature=signature,
        )
        _REGISTRY[name] = spec
        builder.scenario_spec = spec
        return builder

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a registration (used by tests and by plugin teardown)."""
    _REGISTRY.pop(name, None)


def load_builtin_scenarios() -> None:
    """Put the paper's scenarios from :mod:`repro.experiments.catalogue` on the registry.

    Idempotent, and cheap: the catalogue holds metadata and
    :class:`Deferred` callables only, so no scenario module is imported
    until a scenario is built or its formulas or signature are asked for.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        from repro.experiments.catalogue import BUILTIN_SCENARIOS

        # One dict.update, so a thread listing the registry meanwhile never
        # sees it change size mid-iteration.
        _REGISTRY.update(
            {spec.name: spec for spec in BUILTIN_SCENARIOS if spec.name not in _REGISTRY}
        )
        _BUILTINS_LOADED = True


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name, raising :class:`ScenarioError` when unknown."""
    load_builtin_scenarios()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {scenario_names()}"
        )
    return spec


def scenario_names() -> Tuple[str, ...]:
    """Every registered scenario name, sorted."""
    load_builtin_scenarios()
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> Tuple[ScenarioSpec, ...]:
    """Every registered spec, sorted by name."""
    load_builtin_scenarios()
    return tuple(_REGISTRY[name] for name in scenario_names())


def scenario_listing() -> List[Dict[str, object]]:
    """The scenario catalogue as JSON-ready data, sorted by name.

    The one payload behind ``repro list --json`` and ``GET /scenarios``.
    """
    return [
        {
            "name": spec.name,
            "section": spec.section,
            "summary": spec.summary,
            "parameters": [parameter.name for parameter in spec.parameters],
        }
        for spec in all_scenarios()
    ]


def scenario_description(name: str) -> Dict[str, object]:
    """One scenario's schema and default formulas as JSON-ready data.

    The one payload behind ``repro describe --json`` and
    ``GET /scenarios/<name>``.  ``default_formulas`` is the suite at the
    default parameters, empty when a parameter is required; it is the only
    part that calls into the scenario (its formula factory, and so
    :mod:`repro.logic`), never the builder.  Unknown names
    raise :class:`ScenarioError`.
    """
    spec = get_scenario(name)
    formulas = (
        {}
        if any(parameter.required for parameter in spec.parameters)
        else spec.default_formulas()
    )
    return {
        "name": spec.name,
        "section": spec.section,
        "summary": spec.summary,
        "details": spec.details,
        "parameters": [
            {
                "name": parameter.name,
                "type": parameter.type.__name__,
                "required": parameter.required,
                "default": parameter.default,
                "minimum": parameter.minimum,
                "maximum": parameter.maximum,
                "choices": list(parameter.choices) if parameter.choices else None,
                "description": parameter.description,
            }
            for parameter in spec.parameters
        ],
        "default_formulas": {label: str(f) for label, f in formulas.items()},
    }


def __getattr__(name: str) -> object:
    # ScenarioSignature is re-exported for scenario authors; importing it
    # eagerly would pull the static checker into every registry import.
    if name == "ScenarioSignature":
        from repro.logic.check import ScenarioSignature

        return ScenarioSignature
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
