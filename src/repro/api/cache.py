"""The engine's LRU cache: compiled plans, and prepared query sources.

Compiling a scale-independent plan (:func:`repro.core.plans.compile_plan`)
walks the controllability fixpoint once per body atom; for the repeated
parameterized queries the Engine is built for, that work is identical on
every call, so :class:`~repro.api.engine.Engine` keeps one
:class:`PlanCache` of compiled plans and a second one of query sources
(its module docstring says what keys them and what invalidates them).

Both are shared mutable state under concurrent traffic (the plan cache
less often: a prepared query holds its entry until the engine's
generation moves), so every operation (get_or_compute, invalidate,
stats) takes an internal lock: the cache's own structure and
hit/miss/eviction/invalidation counters stay consistent.
(Per-execution *database* access deltas are isolated separately: each
execution charges its own :class:`~repro.core.executor.ExecutionContext`
stats, so concurrent ``ResultSet.stats`` never contaminate each other.)

Compilation itself is *single-flight* (:meth:`PlanCache.get_or_compute`):
N threads that cold-start one key run one compile.  The others wait on the
one condition the cache keeps over its lock until their flight's marker
says done; a miss nobody waits for allocates that marker and nothing else.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

_MISSING = object()  # PlanCache.get_or_compute: no entry (a value may be None)


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the plan cache's counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    maxsize: int | None

    @property
    def compilations(self) -> int:
        """Plans are compiled exactly on cache misses (waiters served by a
        single-flight leader count as hits, not misses)."""
        return self.misses


class _InFlight:
    """The per-key marker of one in-progress compilation: the leader
    publishes :attr:`value` or :attr:`error`, sets :attr:`done` under the
    cache's lock and, if :attr:`waiting` counts anyone, wakes the waiters."""

    __slots__ = ("done", "waiting", "value", "error")

    def __init__(self) -> None:
        self.done, self.waiting, self.value, self.error = False, 0, None, None


class PlanCache:
    """A small thread-safe LRU mapping with hit/miss/eviction/invalidation
    accounting and single-flight computation.

    ``maxsize=None`` means unbounded; ``maxsize=0`` disables caching
    (every probe misses and stores nothing).
    """

    def __init__(self, maxsize: int | None = 128):
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be None or >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._landed = threading.Condition(self._lock)  # some flight is done
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._inflight: dict[Hashable, _InFlight] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        """The cached value for ``key``, or ``compute()`` single-flight.

        On a miss, exactly one caller (the *leader*) runs ``compute`` --
        concurrent callers for the same key block until the leader
        finishes and are served its value, counted as hits, however many
        of them pile up during the compile.  If the leader raises, the
        exception propagates to every waiter of that flight (compilation
        is deterministic, so re-running it N times would reproduce N
        identical failures at N times the cost) and the key is cleared
        for a fresh attempt later.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            flight = self._inflight.get(key)
            if flight is not None:
                flight.waiting += 1
                while not flight.done:
                    self._landed.wait()
                if flight.error is not None:
                    raise flight.error
                self._hits += 1
                return flight.value
            flight = self._inflight[key] = _InFlight()
            self._misses += 1
        try:
            flight.value = compute()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                if flight.error is None and self.maxsize != 0:
                    self._entries[key] = flight.value
                    if self.maxsize is not None and len(self._entries) > self.maxsize:
                        self._entries.popitem(last=False)  # least recently used
                        self._evictions += 1
                del self._inflight[key]
                flight.done = True
                if flight.waiting:
                    self._landed.notify_all()
        return flight.value

    def invalidate(self) -> None:
        """Drop every entry (the schema underlying the plans changed)."""
        with self._lock:
            self._entries.clear()
            self._invalidations += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                maxsize=self.maxsize,
            )
