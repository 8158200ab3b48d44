"""Request schema: JSON bodies → validated solve requests.

One function, :func:`parse_solve_request`, maps the wire format

.. code-block:: json

    {"scenario": {"num_sensors": 300, "sink_speed": 5.0},
     "algorithm": "Offline_Appro",
     "seed": 7}

to a :class:`SolveRequest` — a validated ``ScenarioConfig`` plus a
canonical algorithm name — or raises :class:`RequestError`, the typed
4xx error the HTTP layer serialises verbatim.  Validation reuses the
library's own guards end to end: ``ScenarioConfig.from_dict`` rejects
unknown/ill-typed/out-of-range fields,
:func:`repro.sim.algorithms.resolve_algorithm_name` supplies the
"unknown algorithm, choose from […]" message (the same one the CLI
prints), and the MaxMatch family is refused up front unless the
scenario pins ``fixed_power`` (Section VI's special case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.planning import PlannerConfig
from repro.service.cache import deployment_cache_key, solve_cache_key
from repro.sim.algorithms import requires_fixed_power, resolve_algorithm_name
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "RequestError",
    "SolveRequest",
    "parse_solve_request",
    "parse_batch_request",
    "DEFAULT_MAX_BATCH_ITEMS",
]

#: Top-level request fields the schema understands.  ``planner`` is
#: sugar for ``scenario.planner`` — it merges into the scenario config,
#: so the content-addressed cache key extends through
#: ``ScenarioConfig.to_dict()`` and planner-less requests keep their
#: historical keys.
_REQUEST_FIELDS = ("scenario", "algorithm", "seed", "certify", "planner")

#: Service-side guard against absurd problem sizes (a 400, not a crash).
DEFAULT_MAX_SENSORS = 20_000

#: Items one ``POST /v1/solve-batch`` body may carry.  A batch occupies
#: one worker slot for its whole duration, so the cap bounds head-of-line
#: blocking, not memory.
DEFAULT_MAX_BATCH_ITEMS = 32


class RequestError(Exception):
    """A client error with an HTTP status and optional offending field.

    The HTTP layer serialises :meth:`to_dict` as the response body, so
    every validation path below produces a machine-readable error.
    """

    def __init__(self, message: str, status: int = 400, field: Optional[str] = None):
        super().__init__(message)
        self.message = message
        self.status = status
        self.field = field

    def to_dict(self) -> dict:
        """JSON-ready error body (``error`` / ``status`` / ``field``)."""
        doc = {"error": self.message, "status": self.status}
        if self.field is not None:
            doc["field"] = self.field
        return doc


@dataclass(frozen=True)
class SolveRequest:
    """One validated solve: config + canonical algorithm + seed, plus
    the opt-in ``certify`` flag (solution certificate in the response)."""

    config: ScenarioConfig
    algorithm: str
    seed: Optional[int] = None
    certify: bool = False

    def cache_key(self) -> Optional[str]:
        """Content-addressed cache key of this request (certified and
        plain solves of the same scenario hash differently); ``None``
        for a seed-less request, which is never cached or coalesced."""
        return solve_cache_key(
            self.config.to_dict(), self.algorithm, self.seed, certify=self.certify
        )

    def deployment_key(self) -> Optional[str]:
        """Cache key of this request's deployment LP bound (``None``
        for a seed-less request)."""
        return deployment_cache_key(self.config.to_dict(), self.seed)

    def payload(
        self, trace: bool = False, lp_bound_bits: Optional[float] = None
    ) -> dict:
        """Picklable worker payload (plain dicts and scalars only).

        ``trace=True`` asks the worker to capture solver span events
        for slow-request trace persistence.  ``lp_bound_bits`` hands the
        worker this deployment's already-known LP bound, so it skips
        the LP solve; it is server-internal (clients cannot send it).
        Like ``certify``, each key is only added when set, so payloads
        of plain requests are byte-identical to the historical wire
        shape.
        """
        doc = {
            "scenario": self.config.to_dict(),
            "algorithm": self.algorithm,
            "seed": self.seed,
        }
        if trace:
            doc["trace"] = True
        if self.certify:
            doc["certify"] = True
        if lp_bound_bits is not None:
            doc["lp_bound_bits"] = lp_bound_bits
        return doc


def parse_solve_request(
    doc: object,
    max_sensors: int = DEFAULT_MAX_SENSORS,
) -> SolveRequest:
    """Validate a decoded JSON body into a :class:`SolveRequest`.

    Raises :class:`RequestError` (status 400) on: a non-object body,
    unknown top-level fields, an invalid scenario (unknown field, wrong
    type, out-of-range value — per ``ScenarioConfig.from_dict``),
    ``num_sensors`` beyond ``max_sensors``, a non-integer seed, a
    non-boolean ``certify`` flag, an invalid ``planner`` block (or one
    given both top-level and inside the scenario), an unknown algorithm
    (message lists the sorted choices), or a MaxMatch-family algorithm
    without ``scenario.fixed_power``.
    """
    if not isinstance(doc, Mapping):
        raise RequestError(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    unknown = sorted(set(doc) - set(_REQUEST_FIELDS))
    if unknown:
        raise RequestError(
            f"unknown request field(s): {', '.join(unknown)}; "
            f"expected {', '.join(_REQUEST_FIELDS)}",
            field=unknown[0],
        )

    scenario_doc = doc.get("scenario", {})
    if not isinstance(scenario_doc, Mapping):
        raise RequestError(
            f"'scenario' must be a JSON object, got {type(scenario_doc).__name__}",
            field="scenario",
        )
    try:
        config = ScenarioConfig.from_dict(scenario_doc)
    except (ValueError, TypeError) as exc:
        raise RequestError(str(exc), field="scenario") from None

    planner_doc = doc.get("planner")
    if planner_doc is not None:
        if not isinstance(planner_doc, Mapping):
            raise RequestError(
                f"'planner' must be a JSON object, got {type(planner_doc).__name__}",
                field="planner",
            )
        if config.planner is not None:
            raise RequestError(
                "planner specified both at top level and inside scenario; pick one",
                field="planner",
            )
        try:
            config = config.with_(planner=PlannerConfig.from_dict(planner_doc))
        except (ValueError, TypeError) as exc:
            raise RequestError(str(exc), field="planner") from None

    if config.num_sensors > max_sensors:
        raise RequestError(
            f"num_sensors {config.num_sensors} out of range "
            f"(this service accepts at most {max_sensors})",
            field="scenario",
        )

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise RequestError(
            f"seed must be an integer or null, got {seed!r}", field="seed"
        )

    certify = doc.get("certify", False)
    if not isinstance(certify, bool):
        raise RequestError(
            f"certify must be a boolean, got {certify!r}", field="certify"
        )

    algorithm = doc.get("algorithm", "Offline_Appro")
    if not isinstance(algorithm, str):
        raise RequestError(
            f"algorithm must be a string, got {algorithm!r}", field="algorithm"
        )
    try:
        algorithm = resolve_algorithm_name(algorithm)
    except KeyError as exc:
        raise RequestError(exc.args[0], field="algorithm") from None
    if requires_fixed_power(algorithm) and config.fixed_power is None:
        raise RequestError(
            f"{algorithm} is the fixed-power special case; set "
            "scenario.fixed_power (the paper uses 0.3)",
            field="scenario",
        )

    return SolveRequest(config=config, algorithm=algorithm, seed=seed, certify=certify)


def parse_batch_request(
    doc: object,
    max_sensors: int = DEFAULT_MAX_SENSORS,
    max_items: int = DEFAULT_MAX_BATCH_ITEMS,
) -> Tuple[SolveRequest, ...]:
    """Validate a ``POST /v1/solve-batch`` body into solve requests.

    The wire shape is ``{"items": [<solve body>, ...]}`` — each item the
    exact ``POST /v1/solve`` shape, validated by
    :func:`parse_solve_request` with any error re-raised with the item's
    index prefixed (``items[3]: …``) so clients can pinpoint the bad
    item.  Raises :class:`RequestError` on a non-object body, unknown
    top-level fields, a missing/non-array/empty ``items`` list, or more
    than ``max_items`` items.
    """
    if not isinstance(doc, Mapping):
        raise RequestError(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    unknown = sorted(set(doc) - {"items"})
    if unknown:
        raise RequestError(
            f"unknown request field(s): {', '.join(unknown)}; expected items",
            field=unknown[0],
        )
    items = doc.get("items")
    if not isinstance(items, (list, tuple)):
        raise RequestError(
            f"'items' must be a JSON array, got {type(items).__name__}",
            field="items",
        )
    if not items:
        raise RequestError("'items' must not be empty", field="items")
    if len(items) > max_items:
        raise RequestError(
            f"too many batch items ({len(items)} > {max_items})", field="items"
        )
    requests = []
    for position, item in enumerate(items):
        try:
            requests.append(parse_solve_request(item, max_sensors=max_sensors))
        except RequestError as exc:
            raise RequestError(
                f"items[{position}]: {exc.message}",
                status=exc.status,
                field=f"items[{position}]" + (f".{exc.field}" if exc.field else ""),
            ) from None
    return tuple(requests)
