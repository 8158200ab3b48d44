"""Arithmetic of the benchmark: percentiles, span self times, metric names.

Pure Python with no import of the program under test, so the launcher
(`run.py`) and the tests in `tests/` can use it without building
anything.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples the tail percentile leaves beyond itself.
TAIL_SAMPLES_BEYOND = 10


@functools.lru_cache(maxsize=None)
def load_layers() -> Dict[str, dict]:
    """The per-layer metrics: unit, layer, source, and the end-to-end
    metric and workloads each should move (``layers.json``)."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")) as fh:
        layers = json.load(fh)
    for name in layers:
        check_name(name)
    return layers


def work_counters() -> List[str]:
    """Registry counters the traced run reports per op."""
    return [spec["counter"] for spec in load_layers().values() if "counter" in spec]


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


# ----------------------------------------------------------------------
# Latency percentiles
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """The tail percentile for ``n`` ops: ``100 * (1 - 10 / n)``."""
    if n <= TAIL_SAMPLES_BEYOND:
        raise ValueError(
            f"need more than {TAIL_SAMPLES_BEYOND} ops for a tail percentile, got {n}"
        )
    return 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n)


def tail_index(n: int) -> int:
    """0-based rank of the tail percentile in ``n`` sorted samples.

    The nearest-rank percentile ``100 * (1 - 10 / n)`` is the
    ``(n - 10)``-th smallest sample, so exactly ten samples lie beyond it.
    """
    tail_percentile(n)  # validates n
    return n - TAIL_SAMPLES_BEYOND - 1


def ranked_latencies(latencies: Sequence[float], ok: Sequence[bool]) -> List[float]:
    """Latencies sorted so that every failed op ranks slower than every
    successful one (each keeps its own measured time)."""
    if len(latencies) != len(ok):
        raise ValueError("latencies and ok flags differ in length")
    return [lat for _, lat in sorted(zip((not flag for flag in ok), latencies))]


def latency_summary(latencies: Sequence[float], ok: Sequence[bool]) -> Dict[str, float]:
    """Median and tail of per-op latencies (seconds in, same unit out)."""
    ranked = ranked_latencies(latencies, ok)
    n = len(ranked)
    return {
        "n": n,
        "p50": ranked[(n - 1) // 2] if n % 2 else (ranked[n // 2 - 1] + ranked[n // 2]) / 2,
        "tail": ranked[tail_index(n)],
        "tail_percentile": tail_percentile(n),
    }


def best_of_rounds(rounds: Sequence[Sequence[Mapping]]) -> List[dict]:
    """Merge the records of R rounds of the same N ops.

    Op ``i``'s latency is the fastest of its R executions, which
    discounts host slow phases lasting seconds.  It is ok only when every
    execution was, and all collected the same megabits.
    """
    merged = []
    for runs in zip(*rounds):
        first = runs[0]
        errors = [r["error"] for r in runs if not r["ok"]]
        if not errors and any(r["megabits"] != first["megabits"] for r in runs):
            errors.append(f"megabits differ between rounds: {[r['megabits'] for r in runs]}")
        merged.append({
            "latency": min(r["latency"] for r in runs),
            "ok": not errors,
            "error": errors[0] if errors else None,
            "megabits": first["megabits"],
        })
    return merged


# ----------------------------------------------------------------------
# Spans and self times
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: name, start, end, parent and op id.

    Spans are appended as they close and never written until the run
    ends.  Children of one span are sequential calls, never concurrent.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._next_id = 0

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: Optional[int] = None,
    ) -> int:
        """Record a span measured elsewhere; returns its id."""
        span_id = self._next_id
        self._next_id += 1
        self.records.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "op": op}
        )
        return span_id

    @contextmanager
    def span(self, name: str, op: int, parent: Optional[int] = None) -> Iterator[dict]:
        """Time the block as a span under ``parent``, by default the
        innermost open span."""
        span_id = self._next_id
        self._next_id += 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": span_id, "name": name, "start": time.perf_counter(),
                  "end": None, "parent": parent, "op": op}
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            self.records.append(record)

    def add_phases(self, parent: dict, phases: Iterable[tuple]) -> None:
        """Record ``(name, seconds)`` phases a call reported about itself
        as consecutive children of the span ``parent``."""
        start = parent["start"]
        for name, seconds in phases:
            self.add(name, start, start + seconds, parent["op"], parent=parent["id"])
            start += seconds


class NullSpans:
    """Times the spans an untraced op needs for its latency; records none."""

    @contextmanager
    def span(self, name: str, op: int, parent: Optional[int] = None) -> Iterator[dict]:
        record = {"start": time.perf_counter(), "end": None}
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def add_phases(self, parent: dict, phases: Iterable[tuple]) -> None:
        return None


def self_times(records: Sequence[Mapping]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's.

    Children of a span are sequential, so the sum of their durations is
    the part of the parent they cover.
    """
    child_total: Dict[int, float] = {}
    for rec in records:
        if rec["parent"] is not None:
            child_total[rec["parent"]] = child_total.get(rec["parent"], 0.0) + (
                rec["end"] - rec["start"]
            )
    return {
        rec["id"]: (rec["end"] - rec["start"]) - child_total.get(rec["id"], 0.0)
        for rec in records
    }


def op_layers(
    records: Sequence[Mapping], layer_of: Mapping[str, str]
) -> Dict[int, Dict[str, float]]:
    """Per op: the summed self time (seconds) of each layer.

    ``layer_of`` maps span names to layer metric names.  Spans whose
    name it lacks (wrappers such as the op itself) are not a layer: their
    self time is the op's ``unattributed`` time, so for every op
    ``latency == sum(layers) + unattributed``.
    """
    selfs = self_times(records)
    per_op: Dict[int, Dict[str, float]] = {}
    for rec in records:
        layers = per_op.setdefault(rec["op"], {"unattributed": 0.0})
        key = layer_of.get(rec["name"], "unattributed")
        layers[key] = layers.get(key, 0.0) + selfs[rec["id"]]
    return per_op


def median_or_zero(values: Sequence[float]) -> float:
    """Median of ``values``; 0.0 when the layer never ran."""
    return float(statistics.median(values)) if values else 0.0
