"""A declarative scenario DSL: (protocol x delivery model x formula suite) as data.

The paper's central move is that *any* protocol running under *any* assumption on
the communication medium induces a system of runs whose knowledge properties can
be checked.  The hand-written scenario modules each wire that product together
manually; a :class:`ScenarioRecipe` states it declaratively instead:

    RECIPE = ScenarioRecipe(
        name="ping",
        summary="one message over a lossy link",
        section="Section 5",
        processors=("A", "B"),
        protocol=lambda params: PingProtocol(),
        delivery=Unreliable(delay=1),
        horizon="horizon",
        parameters=(Parameter("horizon", int, default=3, minimum=1),),
        formulas={"delivered": "delivered", "K_B delivered": "K_B delivered"},
    )
    RECIPE.register()

``register()`` puts the recipe onto the scenario registry, so the typed
parameter validation, the ``repro list/describe/run/sweep`` CLI, the experiment
runner's caching and parallel sweeps, and the generated ``docs/scenarios.md``
page all apply to it with no further code.  The built-in recipes of
:mod:`repro.scenarios` are written with :meth:`ScenarioRecipe.catalogued`
instead: their metadata is an entry of :mod:`repro.experiments.catalogue`,
which the registry reads without importing the recipe's module.

Every ingredient can be a constant or a callable receiving the validated
parameter assignment (a ``dict``), so parameter-dependent protocols, delivery
models, clock assignments and formula suites are all one lambda away.  An
optional ``adversary`` composes a :data:`~repro.simulation.network.DropRule`
over the delivery model through
:class:`~repro.simulation.network.AdversarialDrops`.

Misuse raises :class:`~repro.errors.DSLError` (a :class:`ScenarioError`
subclass) with a message naming the offending ingredient — malformed recipes,
protocol/processor arity mismatches, non-delivery-model ``delivery`` fields and
unknown formula labels are all reported without tracebacks by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import DSLError, ParseError, ProtocolError, SimulationError
from repro.experiments.registry import (
    BuiltScenario,
    Parameter,
    ScenarioSpec,
    register_scenario,
)
from repro.logic.agents import Agent
from repro.logic.check import (
    ScenarioSignature,
    check_formulas,
    check_text,
)
from repro.logic.parser import parse
from repro.logic.syntax import Formula
from repro.simulation.network import AdversarialDrops, DeliveryModel, DropRule
from repro.simulation.protocol import JointProtocol, Protocol
from repro.simulation.simulator import FactRule, simulate
from repro.systems.system import System

__all__ = ["ScenarioRecipe", "Resolvable", "FormulaEntry"]

Params = Mapping[str, object]

Resolvable = Union[object, Callable[[Params], object]]
"""A recipe ingredient: either a constant, or a callable receiving the validated
parameter dict and returning the value to use for that parameter assignment."""

FormulaEntry = Union[str, Formula, Callable[[Params], Union[str, Formula]]]
"""One formula-suite entry: formula text (parsed by :mod:`repro.logic.parser`),
a built :class:`~repro.logic.syntax.Formula`, or a callable producing either."""


def _resolve(value: Resolvable, params: Params) -> object:
    """Evaluate an ingredient: call it with ``params`` if callable, else pass through.

    Delivery models, protocols and joint protocols are *instances* of callable
    classes in some codebases; here none of them are callable, so the rule is
    unambiguous.
    """
    if callable(value) and not isinstance(value, (Protocol, JointProtocol, DeliveryModel)):
        return value(params)
    return value


@dataclass(frozen=True)
class ScenarioRecipe:
    """A scenario stated as data: every ingredient of (protocol x environment).

    Required fields
    ---------------
    name / summary / section:
        Registry metadata, exactly as :func:`register_scenario` takes them.
    processors:
        The processor tuple, or a callable ``params -> tuple`` for
        parameter-sized families (e.g. ``lambda p: tuple(f"p{i}" for i in
        range(p["n"]))``).
    protocol:
        A :class:`~repro.simulation.protocol.Protocol` (applied to every
        processor), a :class:`~repro.simulation.protocol.JointProtocol`, a
        per-processor mapping, or a callable producing any of those.
    horizon:
        How many time steps each run lasts: an ``int``, the *name* of an
        ``int`` parameter, or a callable.

    Optional fields
    ---------------
    delivery:
        A :class:`~repro.simulation.network.DeliveryModel` or a callable
        producing one (default :class:`ReliableSynchronous`'s simulator
        default).
    adversary:
        A :data:`~repro.simulation.network.DropRule` (or callable producing
        one); composed over ``delivery`` through :class:`AdversarialDrops`.
    parameters:
        The typed :class:`~repro.experiments.registry.Parameter` schema.
    initial_states / wake_times / clocks:
        Environment maps (or callables), exactly as
        :func:`~repro.simulation.simulator.simulate` takes them; keys must
        name declared processors.
    fact_rules:
        Ground-fact rules applied to every finished run (or a callable
        producing the sequence).
    formulas:
        The formula suite: a ``label -> entry`` mapping or a callable
        producing one (entries per :data:`FormulaEntry`).
    default_labels:
        An optional subset of suite labels to expose as the registered default
        formula set; naming an unknown label raises :class:`DSLError`.
    focus:
        ``(system, params) -> point`` picking the designated point of the
        built system, when the scenario singles one out.
    note / system_name / max_runs / details:
        Presentation and simulator plumbing, all resolvable.
    """

    name: str
    summary: str
    section: str
    processors: Resolvable
    protocol: Resolvable
    horizon: Union[int, str, Callable[[Params], int]]
    delivery: Optional[Resolvable] = None
    adversary: Optional[Resolvable] = None
    parameters: Tuple[Parameter, ...] = ()
    initial_states: Optional[Resolvable] = None
    wake_times: Optional[Resolvable] = None
    clocks: Optional[Resolvable] = None
    fact_rules: Resolvable = ()
    formulas: Optional[Resolvable] = None
    default_labels: Optional[Tuple[str, ...]] = None
    focus: Optional[Callable[[System, Params], object]] = None
    note: Resolvable = ""
    system_name: Optional[Resolvable] = None
    max_runs: int = 20_000
    details: str = field(default="", compare=False)

    # -- definition-time validation -------------------------------------------
    def validate(self) -> None:
        """Check the recipe's shape before registration, raising :class:`DSLError`.

        Catches everything checkable without a parameter assignment: missing
        metadata, a schema that is not made of :class:`Parameter` objects, a
        ``horizon`` naming an unknown or non-``int`` parameter, constant
        ``delivery``/``protocol`` fields of the wrong type, static formula
        entries that do not parse, and ``default_labels`` naming labels a
        static suite does not define.
        """
        if not self.name or not isinstance(self.name, str):
            raise DSLError(f"a scenario recipe needs a non-empty name, got {self.name!r}")
        if not self.summary:
            raise DSLError(f"recipe {self.name!r} needs a summary")
        names = set()
        for parameter in self.parameters:
            if not isinstance(parameter, Parameter):
                raise DSLError(
                    f"recipe {self.name!r}: parameters must be Parameter objects, "
                    f"got {parameter!r}"
                )
            if parameter.name in names:
                raise DSLError(
                    f"recipe {self.name!r} declares parameter {parameter.name!r} twice"
                )
            names.add(parameter.name)
        if isinstance(self.horizon, str):
            matching = [p for p in self.parameters if p.name == self.horizon]
            if not matching:
                raise DSLError(
                    f"recipe {self.name!r}: horizon references unknown parameter "
                    f"{self.horizon!r}; declared parameters: {sorted(names)}"
                )
            if matching[0].type is not int:
                raise DSLError(
                    f"recipe {self.name!r}: horizon parameter {self.horizon!r} must "
                    f"be int-typed, is {matching[0].type.__name__}"
                )
        elif isinstance(self.horizon, bool) or (
            not callable(self.horizon) and not isinstance(self.horizon, int)
        ):
            raise DSLError(
                f"recipe {self.name!r}: horizon must be an int, a parameter name "
                f"or a callable, got {self.horizon!r}"
            )
        if self.delivery is not None and not callable(self.delivery):
            if not isinstance(self.delivery, DeliveryModel):
                raise DSLError(
                    f"recipe {self.name!r}: delivery must be a DeliveryModel "
                    f"(or a callable producing one), got {self.delivery!r}"
                )
        if not callable(self.protocol) and not isinstance(
            self.protocol, (Protocol, JointProtocol, Mapping)
        ):
            raise DSLError(
                f"recipe {self.name!r}: protocol must be a Protocol, a "
                f"JointProtocol, a per-processor mapping, or a callable, "
                f"got {self.protocol!r}"
            )
        if self.formulas is not None and isinstance(self.formulas, Mapping):
            for label, entry in self.formulas.items():
                if isinstance(entry, str):
                    # Route the entry through the static checker so a bad
                    # formula is reported with the same REP-coded diagnostics
                    # as `repro check`, not an ad-hoc message.
                    _, diagnostics = check_text(entry, label=str(label))
                    failures = [d for d in diagnostics if d.is_error]
                    if failures:
                        rendered = "; ".join(
                            f"{d.code}: {d.message}" for d in failures
                        )
                        raise DSLError(
                            f"recipe {self.name!r}: formula {label!r} does not "
                            f"parse or check: {rendered}"
                        )
                elif not isinstance(entry, Formula) and not callable(entry):
                    raise DSLError(
                        f"recipe {self.name!r}: formula {label!r} must be formula "
                        f"text, a Formula, or a callable, got {entry!r}"
                    )
            self._check_labels(tuple(self.formulas))
        if self.default_labels is not None and self.formulas is None:
            raise DSLError(
                f"recipe {self.name!r}: default_labels given but no formula suite"
            )

    def _check_labels(self, known: Tuple[str, ...]) -> None:
        if self.default_labels is None:
            return
        unknown = [label for label in self.default_labels if label not in known]
        if unknown:
            raise DSLError(
                f"recipe {self.name!r}: default_labels name unknown formula "
                f"label(s) {unknown}; suite defines {list(known)}"
            )

    # -- per-assignment resolution --------------------------------------------
    def _resolve_processors(self, params: Params) -> Tuple[Agent, ...]:
        processors = _resolve(self.processors, params)
        if isinstance(processors, (str, bytes)) or not isinstance(processors, Sequence):
            raise DSLError(
                f"recipe {self.name!r}: processors must resolve to a sequence "
                f"of agents, got {processors!r}"
            )
        resolved = tuple(processors)
        if not resolved:
            raise DSLError(f"recipe {self.name!r}: processors resolved to an empty tuple")
        if len(set(resolved)) != len(resolved):
            raise DSLError(f"recipe {self.name!r}: processor names must be unique")
        return resolved

    def _resolve_protocol(self, params: Params, processors: Tuple[Agent, ...]):
        protocol = _resolve(self.protocol, params)
        if isinstance(protocol, Mapping):
            missing = sorted(repr(p) for p in set(processors) - set(protocol))
            if missing:
                raise DSLError(
                    f"recipe {self.name!r}: protocol mapping is missing "
                    f"processors {missing} (protocol/processor arity mismatch)"
                )
            extra = sorted(repr(p) for p in set(protocol) - set(processors))
            if extra:
                raise DSLError(
                    f"recipe {self.name!r}: protocol mapping names processors "
                    f"{extra} that the recipe does not declare"
                )
            return protocol
        if isinstance(protocol, JointProtocol):
            missing = sorted(repr(p) for p in set(processors) - set(protocol.processors))
            if missing:
                raise DSLError(
                    f"recipe {self.name!r}: joint protocol is missing processors "
                    f"{missing} (protocol/processor arity mismatch)"
                )
            return protocol
        if isinstance(protocol, Protocol):
            return protocol
        raise DSLError(
            f"recipe {self.name!r}: protocol resolved to {protocol!r}; expected "
            "a Protocol, a JointProtocol, or a per-processor mapping"
        )

    def _resolve_horizon(self, params: Params) -> int:
        if isinstance(self.horizon, str):
            horizon = params[self.horizon]
        else:
            horizon = _resolve(self.horizon, params)
        if isinstance(horizon, bool) or not isinstance(horizon, int):
            raise DSLError(
                f"recipe {self.name!r}: horizon resolved to {horizon!r}, not an int"
            )
        if horizon < 0:
            raise DSLError(f"recipe {self.name!r}: horizon must be non-negative")
        return horizon

    def _resolve_delivery(self, params: Params) -> Optional[DeliveryModel]:
        delivery = _resolve(self.delivery, params) if self.delivery is not None else None
        if delivery is not None and not isinstance(delivery, DeliveryModel):
            raise DSLError(
                f"recipe {self.name!r}: delivery resolved to {delivery!r}, "
                "not a DeliveryModel"
            )
        if self.adversary is not None:
            rule = _resolve(self.adversary, params)
            if not callable(rule):
                raise DSLError(
                    f"recipe {self.name!r}: adversary resolved to {rule!r}, "
                    "not a callable drop rule"
                )
            from repro.simulation.network import ReliableSynchronous

            delivery = AdversarialDrops(
                delivery if delivery is not None else ReliableSynchronous(), rule
            )
        return delivery

    def _resolve_environment_map(
        self, label: str, value: Optional[Resolvable], params: Params,
        processors: Tuple[Agent, ...],
    ) -> Optional[Mapping]:
        if value is None:
            return None
        resolved = _resolve(value, params)
        if resolved is None:
            return None
        if not isinstance(resolved, Mapping):
            raise DSLError(
                f"recipe {self.name!r}: {label} must resolve to a mapping, "
                f"got {resolved!r}"
            )
        unknown = sorted(repr(p) for p in set(resolved) - set(processors))
        if unknown:
            raise DSLError(
                f"recipe {self.name!r}: {label} names unknown processors {unknown}"
            )
        return resolved

    def resolve_formulas(self, params: Params) -> Dict[str, Formula]:
        """The formula suite for ``params``: labels mapped to parsed formulas.

        Applies ``default_labels`` selection; raises :class:`DSLError` on a
        suite that is not a mapping, entries that fail to parse, entries of the
        wrong type, or selected labels the suite does not define.
        """
        if self.formulas is None:
            return {}
        suite = _resolve(self.formulas, params)
        if not isinstance(suite, Mapping):
            raise DSLError(
                f"recipe {self.name!r}: formula suite must resolve to a mapping, "
                f"got {suite!r}"
            )
        self._check_labels(tuple(suite))
        labels = self.default_labels if self.default_labels is not None else tuple(suite)
        resolved: Dict[str, Formula] = {}
        for label in labels:
            entry = suite[label]
            if callable(entry) and not isinstance(entry, Formula):
                entry = entry(params)
            if isinstance(entry, str):
                try:
                    entry = parse(entry)
                except ParseError as exc:
                    raise DSLError(
                        f"recipe {self.name!r}: formula {label!r} does not "
                        f"parse: {exc}"
                    ) from exc
            if not isinstance(entry, Formula):
                raise DSLError(
                    f"recipe {self.name!r}: formula {label!r} resolved to "
                    f"{entry!r}, not a Formula"
                )
            resolved[str(label)] = entry
        return resolved

    # -- static analysis ---------------------------------------------------------
    def signature_for(self, params: Optional[Params] = None) -> ScenarioSignature:
        """The recipe's static signature for ``params`` — derived, not simulated.

        Processors and horizon are resolvable from the parameter assignment
        alone, and ``clocks`` being set marks the scenario as using custom
        clocks; nothing here runs the protocol, so the registry can hand this
        to the checker before any instance exists.
        """
        assignment: Dict[str, object] = dict(params or {})
        return ScenarioSignature(
            agents=self._resolve_processors(assignment),
            horizon=self._resolve_horizon(assignment),
            custom_clocks=self.clocks is not None,
            name=self.name,
        )

    def lint(self, params: Optional[Params] = None) -> list:
        """Statically check the resolvable formula suite for ``params``.

        Resolves the suite (parsing string entries, applying
        ``default_labels``) and runs every formula through
        :func:`repro.logic.check.check_formulas` against the recipe's derived
        signature.  Returns the list of
        :class:`~repro.analysis.diagnostics.Diagnostic` records; an empty list
        means the suite is clean for this assignment.
        """
        assignment: Dict[str, object] = dict(params or {})
        suite = self.resolve_formulas(assignment)
        if not suite:
            return []
        return check_formulas(suite, self.signature_for(assignment))

    # -- building ---------------------------------------------------------------
    def build(self, params: Optional[Params] = None) -> BuiltScenario:
        """Simulate the recipe for one (already validated) parameter assignment.

        This is the function ``register()`` installs as the registry builder;
        it can also be called directly for ad-hoc use without registration
        (``params`` then defaults to the empty assignment — callers are
        responsible for validating against the schema, which the registry
        normally does).
        """
        assignment: Dict[str, object] = dict(params or {})
        processors = self._resolve_processors(assignment)
        protocol = self._resolve_protocol(assignment, processors)
        horizon = self._resolve_horizon(assignment)
        delivery = self._resolve_delivery(assignment)
        fact_rules = _resolve(self.fact_rules, assignment) or ()
        if not isinstance(fact_rules, Sequence) or isinstance(fact_rules, (str, bytes)):
            raise DSLError(
                f"recipe {self.name!r}: fact_rules must resolve to a sequence "
                f"of rules, got {fact_rules!r}"
            )
        system_name = (
            _resolve(self.system_name, assignment)
            if self.system_name is not None
            else self.name
        )
        try:
            system = simulate(
                protocol,
                processors,
                duration=horizon,
                delivery=delivery,
                initial_states=self._resolve_environment_map(
                    "initial_states", self.initial_states, assignment, processors
                ),
                wake_times=self._resolve_environment_map(
                    "wake_times", self.wake_times, assignment, processors
                ),
                clocks=self._resolve_environment_map(
                    "clocks", self.clocks, assignment, processors
                ),
                fact_rules=tuple(fact_rules),
                max_runs=self.max_runs,
                system_name=str(system_name),
            )
        except (ProtocolError, SimulationError) as exc:
            raise DSLError(
                f"recipe {self.name!r} failed to simulate: {exc}"
            ) from exc
        focus = self.focus(system, assignment) if self.focus is not None else None
        note = _resolve(self.note, assignment) or ""
        return BuiltScenario(model=system, focus=focus, note=str(note))

    def build_scenario(self, **params: object) -> BuiltScenario:
        """:meth:`build` with the parameters as keywords: the registry builder shape."""
        return self.build(params)

    # -- registration -----------------------------------------------------------
    @classmethod
    def catalogued(cls, name: str, **ingredients: object) -> "ScenarioRecipe":
        """A built-in recipe whose metadata is the catalogue entry ``name``.

        Name, summary, section, parameter schema and details come from
        :mod:`repro.experiments.catalogue`, whose entry names this recipe's
        :meth:`build_scenario`, :meth:`resolve_formulas` and
        :meth:`signature_for`; the module states only the ingredients.  The
        recipe is checked as :meth:`register` checks one (:meth:`check`).  A
        recipe's module is imported when the scenario is first built or its
        formulas or signature are first asked for, so that is when a built-in
        recipe is linted.
        """
        from repro.experiments.catalogue import builtin_spec

        spec = builtin_spec(name)
        recipe = cls(
            name=spec.name,
            summary=spec.summary,
            section=spec.section,
            parameters=spec.parameters,
            details=spec.details,
            **ingredients,
        )
        recipe.check()
        return recipe

    def check(self) -> None:
        """Everything registration checks, raising :class:`DSLError`.

        The structural :meth:`validate` pass, then a lint of the formula
        suite at the schema's default parameters through the static checker
        (when every parameter has a default), so a recipe whose resolvable
        suite names an unknown processor, violates positivity, or misuses
        timestamps is rejected with REP-coded diagnostics rather than at
        evaluation time.
        """
        self.validate()
        if all(not p.required for p in self.parameters):
            defaults = {p.name: p.default for p in self.parameters}
            failures = [d for d in self.lint(defaults) if d.is_error]
            if failures:
                rendered = "; ".join(
                    f"{d.code} [{d.label}]: {d.message}" for d in failures
                )
                raise DSLError(
                    f"recipe {self.name!r}: default formula suite fails the "
                    f"static checker: {rendered}"
                )

    def register(self) -> ScenarioSpec:
        """Validate the recipe and put it onto the scenario registry.

        The registered builder simulates the recipe per validated parameter
        assignment; the registered formula factory resolves the suite the same
        way.  Returns the created
        :class:`~repro.experiments.registry.ScenarioSpec` (also reachable via
        :func:`~repro.experiments.registry.get_scenario` afterwards); the
        recipe itself is attached to the spec's builder as ``recipe`` so
        introspection tools can recover the declarative form.

        Registration first runs :meth:`check` (the structural pass and the
        default-suite lint).  The derived :meth:`signature_for` is installed
        as the registry's signature factory, which is what lets ``repro
        check`` and the runner pre-flight cover DSL scenarios too.  The
        built-in recipes are not registered this way: the catalogue names
        them (see :meth:`catalogued`).
        """
        self.check()
        recipe = self

        def builder(**params: object) -> BuiltScenario:
            return recipe.build(params)

        builder.__name__ = f"build_{self.name}"
        builder.__qualname__ = builder.__name__
        builder.__doc__ = f"DSL-generated builder for scenario {self.name!r}."
        builder.__module__ = type(self).__module__
        formula_factory = None
        if self.formulas is not None:
            def formula_factory(params: Params) -> Dict[str, Formula]:
                return recipe.resolve_formulas(params)

        def signature_factory(params: Params) -> ScenarioSignature:
            return recipe.signature_for(params)

        decorator = register_scenario(
            name=self.name,
            summary=self.summary,
            section=self.section,
            parameters=self.parameters,
            formulas=formula_factory,
            details=self.details,
            signature=signature_factory,
        )
        registered = decorator(builder)
        registered.recipe = recipe
        return registered.scenario_spec
