"""The three workloads, as seen from a client of the ``repro`` package.

Each workload is a closed loop with one client: it issues op ``i + 1``
only after op ``i`` returned.  Its inputs derive from ``--seed`` alone:
op ``i`` solves the deployment seeded :func:`op_seed` ``(seed, i)``, and
warm-up ops use seeds no timed op uses.  Everything is timed from the
outside, around calls into public functions; the program is not changed.

An op returns an :class:`Op` record.  With a :class:`~metrics.Spans`
recorder the op also records spans around the public calls it makes, and
the work counters of a recording ``MetricsRegistry`` installed for that
op alone.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import ScenarioConfig, get_algorithm, run_tour
from repro.core.lp import dcmp_lp_upper_bound
from repro.obs.registry import MetricsRegistry, get_registry, use_registry
from repro.service.server import create_server
from repro.service.worker import (
    FOLDED_STACKS_KEY,
    TRACE_EVENTS_KEY,
    WORKER_METRICS_KEY,
    solve_payload,
)
from repro.sim.batch import TourSpec, run_tours
from repro.verify.certificate import certify

from metrics import NullSpans, Spans, work_counters

#: Span name of each algorithm's solve phase.
SOLVE_SPAN = {
    "Offline_Appro": "solve.offline_appro",
    "Online_Appro": "solve.online_appro",
    "Offline_MaxMatch": "solve.offline_maxmatch",
    "Online_MaxMatch": "solve.online_maxmatch",
    "Baseline[greedy_profit]": "solve.baseline",
}

_WARMUP_BASE = 900_000

_INTERNAL_KEYS = (WORKER_METRICS_KEY, TRACE_EVENTS_KEY, FOLDED_STACKS_KEY)


def op_seed(seed: int, index: int) -> int:
    """Deployment seed of timed op ``index`` (``index < 900000``) or of a
    warm-up op (``index >= 900000``) under benchmark seed ``seed``."""
    return seed * 1_000_000 + index


@dataclass
class Op:
    """What one op did: its latency and whether its outputs checked out."""

    latency: float = 0.0
    ok: bool = True
    error: Optional[str] = None
    megabits: List[float] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if self.ok:
            self.ok, self.error = False, message

    def as_dict(self) -> dict:
        return {"latency": self.latency, "ok": self.ok, "error": self.error,
                "megabits": self.megabits, "counts": self.counts, "extra": self.extra}


def _phases(span_solve: str, profile: Dict[str, float]) -> list:
    """The phases ``run_tour`` reports in ``TourResult.profile``, in order."""
    phases = [
        ("instance.build", profile["instance_build_s"]),
        (span_solve, profile["solve_s"]),
        ("verify", profile["verify_s"]),
    ]
    if "certify_s" in profile:
        phases.append(("certify", profile["certify_s"]))
    phases.append(("energy_update", profile["energy_update_s"]))
    return phases


def _counts(registry: MetricsRegistry) -> Dict[str, float]:
    return {name: registry.counter(name) for name in work_counters()}


class Workload:
    """Base: one closed-loop client whose ops call into the program."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self) -> None:
        """Bring up what the ops need (nothing for in-process workloads)."""

    def close(self) -> None:
        """Release what :meth:`start` brought up."""

    def restart(self) -> None:
        """Fresh state, so a repeat of an op does exactly its work again."""

    def warmup(self) -> None:
        self.run(_WARMUP_BASE)

    def run(self, index: int, spans: Optional[Spans] = None) -> Op:
        """Run op ``index``; never raises.

        The op's latency is the duration of its root span: the calls a
        client of the program waits for, not the benchmark's checks.
        Untraced ops time the same root span with :class:`NullSpans`.
        """
        op = Op()
        traced = spans is not None
        registry = MetricsRegistry() if traced else None
        started = time.perf_counter()
        try:
            if traced:
                with use_registry(registry):
                    self._run(op, index, spans, True)
            else:
                self._run(op, index, NullSpans(), False)
        except Exception as exc:  # a raise from the program is a failed op
            op.fail(f"{type(exc).__name__}: {exc}")
            op.latency = time.perf_counter() - started
        if traced:
            op.counts = _counts(registry)
        return op

    def _run(self, op: Op, index: int, spans, traced: bool) -> None:
        raise NotImplementedError


class Appro600(Workload):
    """A fresh paper-default n = 600 deployment, one ``Offline_Appro`` tour
    with ``mutate=True`` (battery debit and solar credit included)."""

    name = "appro-600"
    config = ScenarioConfig(num_sensors=600)

    def _run(self, op: Op, index: int, spans, traced: bool) -> None:
        seed = op_seed(self.seed, index)
        with spans.span("op", index) as root:
            with spans.span("scenario.build", index):
                scenario = self.config.build(seed=seed)
            with spans.span("run_tour", index) as call:
                result = run_tour(scenario, get_algorithm("Offline_Appro"))
        op.latency = root["end"] - root["start"]
        spans.add_phases(call, _phases(SOLVE_SPAN["Offline_Appro"], result.profile))
        op.megabits = [float(result.collected_megabits)]
        if not result.collected_bits > 0:
            op.fail(f"no data collected: {result.collected_bits}")


class Fig3Cell(Workload):
    """One Fig. 3 cell: a fresh fixed-power (0.3 W) n = 100 deployment
    solved by the four paper algorithms through ``run_tours``."""

    name = "fig3-100"
    config = ScenarioConfig(num_sensors=100, fixed_power=0.3)
    algorithms = ("Offline_Appro", "Online_Appro", "Offline_MaxMatch", "Online_MaxMatch")

    def _run(self, op: Op, index: int, spans, traced: bool) -> None:
        seed = op_seed(self.seed, index)
        specs = [TourSpec(self.config, name, seed=seed) for name in self.algorithms]
        with spans.span("run_tours", index) as call:
            results = run_tours(specs)
        op.latency = call["end"] - call["start"]
        if traced:
            # run_tours reports its shared build as the batch.prepare timer
            # and each tour's phases in TourResult.profile.
            prepare = get_registry().timer_stats("batch.prepare").total
            spans.add("batch.prepare", call["start"], call["start"] + prepare,
                      index, parent=call["id"])
            cursor = call["start"] + prepare
            for name, result in zip(self.algorithms, results):
                total = result.profile["total_s"]
                tour = spans.add("run_tour", cursor, cursor + total, index,
                                 parent=call["id"])
                spans.add_phases(
                    {"id": tour, "start": cursor, "op": index},
                    _phases(SOLVE_SPAN[name], result.profile),
                )
                cursor += total
        op.megabits = [float(r.collected_megabits) for r in results]
        bits = dict(zip(self.algorithms, (r.collected_bits for r in results)))
        # Offline_MaxMatch is exact under fixed power: nothing beats it,
        # and Offline_Appro keeps its 1/2 guarantee.
        optimum = bits["Offline_MaxMatch"]
        for name, value in bits.items():
            if value > optimum * (1 + 1e-9):
                op.fail(f"{name} collected {value} bits > optimum {optimum}")
        if bits["Offline_Appro"] < 0.5 * optimum * (1 - 1e-9):
            op.fail(f"Offline_Appro below 1/2 of optimum: {bits['Offline_Appro']} < {optimum}/2")


class Serve600(Workload):
    """HTTP sessions against an in-process ``create_server(workers=1)``.

    A session solves one fresh n = 600 deployment with certify on, for
    three algorithms (three cache misses sharing one instance), then
    replays its first request (a cache hit).  One op is one request.
    """

    name = "serve-600"
    algorithms = ("Offline_Appro", "Online_Appro", "Baseline[greedy_profit]")
    session = len(algorithms) + 1
    scenario = ScenarioConfig(num_sensors=600).to_dict()

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server = None
        self.thread = None
        self.conn = None
        self.first_bits: Dict[int, float] = {}

    def start(self) -> None:
        self.server = create_server(port=0, workers=1)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=120
        )

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.shutdown()
            self.thread.join()
            self.server.service.shutdown(drain=True)
            self.server.server_close()
        self.server = self.thread = self.conn = None

    def restart(self) -> None:
        # An empty cache, so every miss of a round is a miss again.
        self.server.service.cache.clear()

    def warmup(self) -> None:
        # One warm-up solve returning: the pool worker is up and warm.
        self.run(_WARMUP_BASE * self.session)

    def request(self, index: int) -> dict:
        session, position = divmod(index, self.session)
        algorithm = self.algorithms[position % len(self.algorithms)]
        return {"scenario": self.scenario, "algorithm": algorithm,
                "seed": op_seed(self.seed, session), "certify": True}

    def _run(self, op: Op, index: int, spans, traced: bool) -> None:
        doc = self.request(index)
        hit = index % self.session == len(self.algorithms)
        body = json.dumps(doc).encode("utf-8")
        with spans.span("service.hit" if hit else "service.request", index) as root:
            status, raw = self._post(body)
        op.latency = root["end"] - root["start"]
        op.extra["response_kb"] = len(raw) / 1024
        if status != 200:
            op.fail(f"HTTP {status}: {raw[:200]!r}")
            return
        reply = json.loads(raw)
        op.extra["cached"] = bool(reply.get("cached"))
        op.megabits = [float(reply["collected_megabits"])]
        if reply.get("cached") is not hit:
            op.fail(f"expected cached={hit}, got {reply.get('cached')!r}")
        failed = [c["name"] for c in reply["certificate"]["checks"] if not c["passed"]]
        if failed:
            op.fail(f"certificate checks failed: {failed}")
        session = index // self.session
        if hit:
            if reply["collected_bits"] != self.first_bits.get(session):
                op.fail("cache-hit replay collected_bits differs from its miss")
        elif index % self.session == 0:
            self.first_bits[session] = reply["collected_bits"]
        if traced and not hit:
            self._attribute(op, index, doc, spans, root)

    def _post(self, body: bytes):
        self.conn.request("POST", "/v1/solve", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def _attribute(self, op: Op, index: int, doc: dict, spans: Spans, root: dict) -> None:
        """Re-run the miss in-process, around the public calls the worker
        makes, as children of the round trip ``root``."""
        payload = {k: doc[k] for k in ("scenario", "algorithm", "seed", "certify")}
        with spans.span("worker.solve", index, parent=root["id"]) as worker:
            result_doc = solve_payload(payload)
        with spans.span("service.serialize", index, parent=root["id"]):
            # The server's response encoding: internal keys stripped.
            client = {k: v for k, v in result_doc.items() if k not in _INTERNAL_KEYS}
            json.dumps({**client, "cached": False}).encode("utf-8")
        algorithm = doc["algorithm"]
        with spans.span("scenario.build", index, parent=worker["id"]):
            config = ScenarioConfig.from_dict(doc["scenario"])
            scenario = config.build(seed=doc["seed"])
        with spans.span("instance.build", index, parent=worker["id"]):
            instance = scenario.instance()
        with spans.span("lp_bound", index, parent=worker["id"]):
            bound = float(dcmp_lp_upper_bound(instance))
        with spans.span("run_tour", index, parent=worker["id"]) as call:
            result = run_tour(scenario, get_algorithm(algorithm), mutate=False,
                              instance=instance)
        spans.add_phases(call, _phases(SOLVE_SPAN[algorithm], result.profile))
        with spans.span("certify", index, parent=worker["id"]):
            certificate = certify(instance, result.allocation, algorithm=algorithm,
                                  lp_bound_bits=bound)
        if float(result.collected_bits) != result_doc["collected_bits"]:
            op.fail("in-process worker replica disagrees with solve_payload")
        if not certificate.passed:
            op.fail("in-process certificate failed")
        worker_counts = MetricsRegistry()
        worker_counts.merge(result_doc[WORKER_METRICS_KEY])
        if _counts(worker_counts) != _counts(get_registry()):
            op.fail("in-process worker replica did different work than solve_payload")


WORKLOADS = {cls.name: cls for cls in (Appro600, Fig3Cell, Serve600)}
