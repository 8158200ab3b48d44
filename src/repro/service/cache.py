"""Content-addressed LRU result cache for the planning service.

A seeded solve is a pure function of ``(scenario config, algorithm,
seed)`` — the simulator is deterministic given the seed and
``POST /v1/solve`` runs with ``mutate=False`` — so identical requests
can be served from a cache keyed on a canonical hash of exactly those
three inputs (:func:`solve_cache_key`).  A request without a seed draws
a fresh random deployment, so it has no key and is never cached.

The DCMP LP bound depends on the deployment alone, not on the
algorithm, so the same cache also keeps one bound per
:func:`deployment_cache_key`: a miss for one algorithm reuses the bound
a solve of another algorithm on the same deployment already paid for.

:class:`ResultCache` is a thread-safe LRU over both key spaces; every
result lookup records a ``service.cache.hit`` or ``service.cache.miss``
counter into the metrics registry (the global one by default, or the
registry pinned at construction), so ``GET /metrics`` exposes cache
effectiveness for free.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Mapping, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["ResultCache", "deployment_cache_key", "solve_cache_key"]


def _content_hash(document: dict) -> str:
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def solve_cache_key(
    scenario: Mapping,
    algorithm: str,
    seed: Optional[int],
    certify: bool = False,
) -> Optional[str]:
    """Canonical content hash of one solve request.

    The scenario dict is serialised with sorted keys and compact
    separators, so two requests that describe the same configuration —
    regardless of field order — hash identically.  Certified solves
    hash differently from plain ones (their response bodies differ),
    but ``certify=False`` keeps the historical hash so existing caches
    stay warm.  Returns a hex SHA-256 digest, or ``None`` when ``seed``
    is ``None``: such a request builds a fresh random deployment, so
    its result must not be cached, coalesced or replayed.
    """
    if seed is None:
        return None
    document = {
        "scenario": dict(scenario),
        "algorithm": algorithm,
        "seed": seed,
    }
    if certify:
        document["certify"] = True
    return _content_hash(document)


def deployment_cache_key(scenario: Mapping, seed: Optional[int]) -> Optional[str]:
    """Canonical content hash of one deployment ``(scenario, seed)``.

    Hashed like :func:`solve_cache_key` but without the algorithm and
    the certify flag, so every solve of one deployment shares the key
    its LP bound is cached under.  ``None`` when ``seed`` is ``None``.
    """
    if seed is None:
        return None
    return _content_hash({"scenario": dict(scenario), "seed": seed})


def _bound_key(deployment_key: str) -> Tuple[str, str]:
    """Entry key of a deployment's LP bound (result keys are strings)."""
    return ("lp_bound", deployment_key)


class ResultCache:
    """Thread-safe LRU cache of solve results keyed by content hash,
    plus the LP bound of each recently solved deployment.

    Results and bounds share one lock and one LRU order, so together
    they never hold more than ``max_entries`` entries.  A ``None`` key
    (a seed-less request) is never stored and always misses.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted beyond it.
        ``0`` disables storage (every lookup is a miss) without
        disturbing the call sites.
    registry:
        Metrics registry the hit/miss counters are recorded into.
        ``None`` (the default) dispatches to the process-global
        registry at call time, so a registry enabled after construction
        still sees the counters.
    """

    def __init__(
        self,
        max_entries: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self._max_entries = max_entries
        self._registry = registry
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Union[dict, float]]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """Configured capacity."""
        return self._max_entries

    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def get(self, key: Optional[str]) -> Optional[dict]:
        """The cached result for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency and increments
        ``service.cache.hit``; a miss increments ``service.cache.miss``.
        Cumulative totals are also kept on the cache itself, surfaced
        by :meth:`stats` (and thence ``GET /healthz``).  A ``None`` key
        is not a lookup: it returns ``None`` and counts nothing.
        """
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if entry is None:
            self._metrics().inc("service.cache.miss")
            return None
        self._metrics().inc("service.cache.hit")
        return entry

    def put(self, key: Optional[str], value: dict) -> None:
        """Store ``value`` under ``key``, evicting LRU entries beyond
        capacity.  A no-op when capacity is 0 or ``key`` is ``None``."""
        if key is not None:
            self._store(key, value)

    def get_bound(self, deployment_key: Optional[str]) -> Optional[float]:
        """The cached LP bound (bits) of a deployment, or ``None``.

        A hit refreshes the entry's recency.  Bound lookups leave the
        result hit/miss counters alone; a reused bound shows up as one
        ``lp.calls`` fewer in the merged worker metrics.
        """
        if deployment_key is None:
            return None
        key = _bound_key(deployment_key)
        with self._lock:
            bound = self._entries.get(key)
            if bound is not None:
                self._entries.move_to_end(key)
        return bound

    def put_bound(self, deployment_key: Optional[str], bits: float) -> None:
        """Store a deployment's LP bound; a no-op when capacity is 0 or
        ``deployment_key`` is ``None``."""
        if deployment_key is not None:
            self._store(_bound_key(deployment_key), float(bits))

    def _store(self, key: Hashable, value: Union[dict, float]) -> None:
        if self._max_entries == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry, results and bounds alike."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Occupancy + effectiveness snapshot.

        ``entries`` / ``max_entries`` report occupancy, results and
        bounds together; ``bounds`` is how many of the entries are
        deployment LP bounds.  ``hits`` / ``misses`` are cumulative
        result-lookup totals since construction and ``hit_rate`` their
        ratio (0.0 before the first lookup).
        """
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "bounds": sum(isinstance(key, tuple) for key in self._entries),
                "max_entries": self._max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / lookups if lookups else 0.0,
            }
