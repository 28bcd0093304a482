"""The one in-process LRU: a thread-safe, bounded mapping with telemetry.

Every in-process cache in the package is an :class:`LruCache`: the
measured-pool and component-history memos of
:mod:`repro.workflows.pools` and the three serve rehydration tiers of
:mod:`repro.serve.artifacts`.  Each instance reports its hits, misses,
evictions and approximate bytes through the telemetry hub, so every
tier's effect is visible in one place.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np

from repro import telemetry

__all__ = ["LruCache"]


def _approx_nbytes(obj, depth: int = 3) -> int:
    """Cheap, bounded-depth size estimate for cache accounting.

    Exact numpy ``nbytes`` where available (arrays dominate every
    cached artifact), shallow container recursion elsewhere.  This
    feeds byte *gauges*, not eviction decisions — eviction is
    entry-count LRU — so an estimate is all that is needed.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    if depth <= 0:
        return sys.getsizeof(obj, 64)
    if isinstance(obj, dict):
        return sys.getsizeof(obj) + sum(
            _approx_nbytes(v, depth - 1) for v in obj.values()
        )
    if isinstance(obj, (list, tuple)):
        total = sys.getsizeof(obj)
        for item in obj[:256]:
            total += _approx_nbytes(item, depth - 1)
        return total
    fields = getattr(obj, "__dict__", None)
    if isinstance(fields, dict):
        return sys.getsizeof(obj, 64) + _approx_nbytes(fields, depth - 1)
    return sys.getsizeof(obj, 64)


class LruCache:
    """Thread-safe, capacity-bounded LRU mapping with telemetry.

    ``prefix`` and ``name`` scope the counters:
    ``<prefix>.<name>.hits`` / ``.misses`` / ``.evictions`` and the
    ``<prefix>.<name>.bytes`` max-gauge.  ``enabled=False`` turns every
    operation into a no-op miss — the kill-switch path — so callers
    never branch.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        enabled: bool = True,
        prefix: str = "serve.cache",
    ):
        self.name = name
        self.capacity = max(1, int(capacity))
        self.enabled = bool(enabled)
        self._metric = f"{prefix}.{name}"
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._bytes: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    _MISSING = object()

    def get(self, key, default=None):
        return self._lookup(key, default, consume=False)

    def take(self, key, default=None):
        """Consume ``key``: a counted get that removes the entry on hit."""
        return self._lookup(key, default, consume=True)

    def _lookup(self, key, default, consume: bool):
        value = self._MISSING
        with self._lock:
            if self.enabled and consume:
                self._bytes.pop(key, None)
                value = self._entries.pop(key, self._MISSING)
            elif self.enabled:
                value = self._entries.get(key, self._MISSING)
                if value is not self._MISSING:
                    self._entries.move_to_end(key)
            hit = value is not self._MISSING
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        outcome = "hits" if hit else "misses"
        telemetry.get().counter(f"{self._metric}.{outcome}").inc()
        return value if hit else default

    def put(self, key, value) -> None:
        if not self.enabled:
            return
        size = _approx_nbytes(value)
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._bytes[key] = size
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._bytes.pop(old_key, None)
                evicted += 1
            self.evictions += evicted
            total = sum(self._bytes.values())
        tel = telemetry.get()
        if evicted:
            tel.counter(f"{self._metric}.evictions").inc(evicted)
        tel.gauge(f"{self._metric}.bytes").set_max(total)

    def pop(self, key, default=None):
        """Remove and return ``key`` (no hit/miss accounting)."""
        with self._lock:
            self._bytes.pop(key, None)
            return self._entries.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            entries = len(self._entries)
            total = sum(self._bytes.values())
        lookups = self.hits + self.misses
        return {
            "enabled": self.enabled,
            "entries": entries,
            "capacity": self.capacity,
            "bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hits / lookups, 4) if lookups else 0.0,
        }
