"""repro.service — the HTTP planning service layer.

Turns the library into a long-running, zero-dependency server (stdlib
``http.server`` + ``concurrent.futures`` only): a sink operator POSTs a
scenario and gets back the planned tour — collected bits, the per-slot
schedule, the LP-bound fraction and the solver phase profile — over
these endpoints:

* ``POST /v1/solve`` — synchronous solve (content-addressed cache →
  in-flight coalescing → process-pool worker);
* ``POST /v1/jobs`` + ``GET /v1/jobs/{id}`` — async submit/poll for
  big sweeps (``DELETE`` cancels queued jobs);
* ``GET /v1/algorithms`` / ``GET /healthz`` / ``GET /metrics``.

The pieces (each its own module, composable without HTTP):

* :mod:`repro.service.schema` — JSON body → validated
  :class:`SolveRequest`, typed :class:`RequestError` 400s;
* :mod:`repro.service.cache` — :class:`ResultCache`, an LRU keyed on
  :func:`solve_cache_key` (canonical hash of scenario + algorithm +
  seed) with hit/miss counters in the metrics registry, which also
  keeps each deployment's LP bound under :func:`deployment_cache_key`;
* :mod:`repro.service.executor` — :class:`JobExecutor`, a bounded
  ``ProcessPoolExecutor`` with per-job timeouts, coalescing,
  cancellation and graceful drain;
* :mod:`repro.service.worker` — :func:`solve_payload`, the picklable
  solve that runs on worker processes;
* :mod:`repro.service.server` — :class:`PlanningService` (the
  transport-free facade) and the threaded HTTP server.

Start one from the CLI (see ``docs/SERVICE.md``)::

    python -m repro serve --port 8080 --workers 4 --cache-size 256

or in-process::

    from repro.service import PlanningService
    service = PlanningService(workers=2)
    result = service.solve({"scenario": {"num_sensors": 100}, "seed": 7})
    service.shutdown()
"""

from repro.service.cache import ResultCache, deployment_cache_key, solve_cache_key
from repro.service.executor import (
    Job,
    JobExecutor,
    JobState,
    JobTimeoutError,
    QueueFullError,
)
from repro.service.schema import RequestError, SolveRequest, parse_solve_request
from repro.service.server import (
    PlanningServer,
    PlanningService,
    create_server,
    run_server,
)
from repro.service.worker import solve_payload

__all__ = [
    # cache
    "ResultCache",
    "deployment_cache_key",
    "solve_cache_key",
    # executor
    "Job",
    "JobState",
    "JobExecutor",
    "QueueFullError",
    "JobTimeoutError",
    # schema
    "RequestError",
    "SolveRequest",
    "parse_solve_request",
    # worker
    "solve_payload",
    # server
    "PlanningService",
    "PlanningServer",
    "create_server",
    "run_server",
]
