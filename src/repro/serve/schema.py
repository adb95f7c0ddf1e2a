"""Request validation and planning for the evaluation service.

Every ``POST`` body the server accepts is validated *before* any model is
built or an executor slot is taken, through exactly the code paths the CLI
uses: parameters coerce via :meth:`repro.experiments.registry.Parameter.coerce`
(so a JSON ``4.0`` and a CLI ``-p n=4`` canonicalise to the same value — and
the same store key), formulas normalise via
:meth:`~repro.experiments.runner.ExperimentRunner.normalise_formulas`, and the
runner's planner (:meth:`~repro.experiments.runner.ExperimentRunner.plan_point`
for ``POST /run``, :meth:`~repro.experiments.runner.ExperimentRunner.plan`
for ``POST /sweep``) runs the :mod:`repro.logic.check` pre-flight and keys
the points (structured ``REPxxx`` diagnostics travel back in the error
body).  The parsers return the plan itself, and the handlers hand it to
:meth:`~repro.experiments.runner.ExperimentRunner.execute`: a request is
planned once.

Validation failures raise :class:`ServeRequestError`, which carries the HTTP
status and a JSON-ready payload; the transport layer never has to interpret
library exceptions itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CheckError, ReproError, ScenarioError
from repro.experiments.registry import ScenarioSpec, get_scenario, scenario_names
from repro.experiments.runner import ExperimentRunner, PlannedPoint
from repro.logic.syntax import Formula

__all__ = [
    "ServeRequestError",
    "parse_run_request",
    "parse_sweep_request",
]

class ServeRequestError(ReproError):
    """A request body the service refuses, with its HTTP rendering attached.

    ``status`` is the HTTP status code (400 for malformed/invalid requests,
    404 for unknown scenarios); ``payload`` is the JSON-ready error body —
    always ``{"error": {"type", "message", ...}}``, with a ``diagnostics``
    list of structured ``REPxxx`` records when the static checker produced
    them.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        error_type: str = "invalid_request",
        diagnostics: Optional[List[Dict[str, object]]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.diagnostics = diagnostics

    @property
    def payload(self) -> Dict[str, object]:
        """The JSON body the transport writes for this error."""
        error: Dict[str, object] = {
            "type": self.error_type,
            "message": str(self),
        }
        if self.diagnostics is not None:
            error["diagnostics"] = self.diagnostics
        return {"error": error}


def _reject(error: ReproError) -> ServeRequestError:
    """Translate a library exception into its HTTP rendering.

    Unknown scenarios are 404 (the resource does not exist); every other
    :class:`ScenarioError`/:class:`FormulaError` is a 400 whose body carries
    the library's message verbatim — and, for :class:`CheckError`, the full
    structured diagnostic list.
    """
    if isinstance(error, CheckError):
        return ServeRequestError(
            str(error),
            status=400,
            error_type="check_failed",
            diagnostics=[d.to_dict() for d in error.diagnostics],
        )
    message = str(error)
    if isinstance(error, ScenarioError) and message.startswith("unknown scenario"):
        return ServeRequestError(message, status=404, error_type="unknown_scenario")
    return ServeRequestError(message, status=400, error_type="invalid_request")


def _require_object(payload: object) -> Mapping[str, object]:
    if not isinstance(payload, Mapping):
        raise ServeRequestError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _check_fields(payload: Mapping[str, object], allowed: Sequence[str]) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ServeRequestError(
            f"unknown request field(s) {unknown}; allowed fields: {sorted(allowed)}"
        )


def _get_scenario(payload: Mapping[str, object]) -> ScenarioSpec:
    name = payload.get("scenario")
    if not isinstance(name, str) or not name:
        raise ServeRequestError(
            "request needs a 'scenario' string; registered scenarios: "
            f"{list(scenario_names())}"
        )
    try:
        return get_scenario(name)
    except ScenarioError as error:
        raise _reject(error) from None


def _validated_params(
    spec: ScenarioSpec, payload: Mapping[str, object], key: str = "params"
) -> Dict[str, object]:
    params = payload.get(key, {})
    if not isinstance(params, Mapping):
        raise ServeRequestError(
            f"'{key}' must be a JSON object of parameter values, "
            f"got {type(params).__name__}"
        )
    try:
        return spec.validate_params(params)
    except ScenarioError as error:
        raise _reject(error) from None


def _formula_entries(payload: Mapping[str, object]) -> Optional[List[object]]:
    """The raw ``formulas`` list, JSON pairs converted to the runner's tuples."""
    formulas = payload.get("formulas")
    if formulas is None:
        return None
    if not isinstance(formulas, list) or not formulas:
        raise ServeRequestError(
            "'formulas' must be a non-empty JSON array of formula strings "
            "or [label, formula] pairs"
        )
    entries: List[object] = []
    for entry in formulas:
        if isinstance(entry, str):
            entries.append(entry)
        elif (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(part, str) for part in entry)
        ):
            entries.append((entry[0], entry[1]))
        else:
            raise ServeRequestError(
                f"bad 'formulas' entry {entry!r}: expected a formula string "
                "or a [label, formula] pair of strings"
            )
    return entries


def _normalised_batch(
    entries: Optional[List[object]],
) -> Optional[List[Tuple[str, Formula]]]:
    if entries is None:
        return None
    try:
        return ExperimentRunner.normalise_formulas(entries)
    except ReproError as error:
        raise _reject(error) from None


def _bool_field(payload: Mapping[str, object], name: str) -> bool:
    value = payload.get(name, False)
    if not isinstance(value, bool):
        raise ServeRequestError(
            f"'{name}' must be a JSON boolean, got {value!r}"
        )
    return value


def parse_run_request(payload: object) -> PlannedPoint:
    """Validate and plan a ``POST /run`` body end to end.

    Runs the same planner as ``repro run``: parameter coercion, formula
    normalisation, the static pre-flight check and the store key — a request
    that fails any stage raises :class:`ServeRequestError` before anything is
    built.  The point is always keyed: its key's digest is the coalescing
    content address (``None`` when a formula has no canonical text form, and
    such requests never coalesce), and the runner executes this same point.
    """
    body = _require_object(payload)
    _check_fields(body, ("scenario", "params", "formulas", "minimize"))
    spec = _get_scenario(body)
    validated = _validated_params(spec, body)
    batch = _normalised_batch(_formula_entries(body))
    minimize = _bool_field(body, "minimize")
    try:
        return ExperimentRunner.plan_point(spec, validated, batch, minimize, keyed=True)
    except ReproError as error:
        raise _reject(error) from None


def _grid_axes(
    spec: ScenarioSpec, payload: Mapping[str, object]
) -> Dict[str, List[object]]:
    grid = payload.get("grid")
    if not isinstance(grid, Mapping) or not grid:
        raise ServeRequestError(
            "'grid' must be a non-empty JSON object mapping parameter names "
            "to arrays of values"
        )
    axes: Dict[str, List[object]] = {}
    for name, values in grid.items():
        try:
            parameter = spec.parameter(name)
        except ScenarioError as error:
            raise _reject(error) from None
        if not isinstance(values, list) or not values:
            raise ServeRequestError(
                f"grid axis {name!r} must be a non-empty JSON array of values"
            )
        try:
            axes[name] = [parameter.coerce(value) for value in values]
        except ScenarioError as error:
            raise _reject(error) from None
    return axes


def parse_sweep_request(payload: object) -> Tuple[List[PlannedPoint], Optional[int]]:
    """Validate and plan a ``POST /sweep`` body end to end.

    Mirrors ``repro sweep``: the planner merges the fixed parameters into the
    swept grid as single-value axes and pre-flights every distinct grid
    point's formula batch before the response stream starts — an invalid
    batch is a 400 error body, never a broken NDJSON stream.  Returns the
    keyed planned points and the requested ``jobs``; the stream executes
    exactly this plan.
    """
    body = _require_object(payload)
    _check_fields(
        body,
        ("scenario", "grid", "params", "formulas", "minimize", "jobs"),
    )
    spec = _get_scenario(body)
    axes = _grid_axes(spec, body)
    fixed = body.get("params", {})
    if not isinstance(fixed, Mapping):
        raise ServeRequestError(
            "'params' must be a JSON object of fixed parameter values, "
            f"got {type(fixed).__name__}"
        )
    batch = _normalised_batch(_formula_entries(body))
    minimize = _bool_field(body, "minimize")
    jobs = body.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0):
        raise ServeRequestError(f"'jobs' must be a non-negative integer, got {jobs!r}")
    try:
        points, _ = ExperimentRunner.plan(
            spec.name, axes, batch, minimize, keyed=True, params=fixed
        )
    except ReproError as error:
        raise _reject(error) from None
    return points, jobs
