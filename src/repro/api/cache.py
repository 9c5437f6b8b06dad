"""The engine's LRU cache of compiled plans.

Compiling a scale-independent plan (:func:`repro.core.plans.compile_plan`)
walks the controllability fixpoint once per body atom; for the repeated
parameterized queries the Engine is built for, that work is identical on
every call.  The cache memoizes compiled plans keyed by ``(canonical
query, parameter-name set)`` plus the engine's state versions: the
canonical query (:mod:`repro.logic.canonical`) is the query with its
non-parameter variables renamed by first occurrence and its body atoms
sorted, so every renaming and reordering of one query *shape* shares one
entry; parameter *values* do not affect the plan.  An entry's value is
what an execution needs (the plans, their lowered pipelines, the views
they read, their bound) and carries the key's canonical query, so a caller
that probed with an equal one adopts the cached object and is compared by
identity from then on.  The cache is invalidated wholesale whenever the
access schema changes, since every plan embeds the rules it fetches
through.  A second instance of the same class is the engine's memo of
query sources (text or query object -> ``PreparedQuery``), which is never
invalidated.

The cache is shared mutable state on the concurrent-traffic hot path, so
every operation (get_or_compute, invalidate, stats) takes an internal
lock: the cache's own structure and hit/miss/eviction/invalidation
counters stay consistent under concurrent executes against one
:class:`~repro.api.engine.Engine`.  (Per-execution *database* access
deltas are isolated separately: each execution charges its own
:class:`~repro.core.executor.ExecutionContext` stats, so concurrent
``ResultSet.stats`` never contaminate each other.)

Compilation itself is *single-flight* (:meth:`PlanCache.get_or_compute`):
when N threads cold-start the same shape and parameter set
concurrently, exactly one of them runs the compile -- the controllability
fixpoint is pure CPU work that would otherwise burn N times over -- and
the rest wait on a per-key in-flight marker and are served the leader's
plans (counted as hits).  A leader that fails propagates its exception to
every waiter of that flight; the key is cleared, so a later probe retries
the compile from scratch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable


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
    """The per-key marker of one in-progress compilation: waiters block on
    :attr:`done`; the leader publishes either :attr:`value` or
    :attr:`error` before setting it."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class PlanCache:
    """A small thread-safe LRU mapping with hit/miss/eviction/invalidation
    accounting and single-flight computation.

    ``maxsize=None`` means unbounded; ``maxsize=0`` disables caching
    (every probe misses and stores nothing).
    """

    __slots__ = (
        "maxsize",
        "_lock",
        "_entries",
        "_inflight",
        "_hits",
        "_misses",
        "_evictions",
        "_invalidations",
    )

    def __init__(self, maxsize: int | None = 128):
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be None or >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._inflight: dict[Hashable, _InFlight] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], object]
    ) -> object:
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
            try:
                value = self._entries[key]
            except KeyError:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                    self._misses += 1
                else:
                    leader = False
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self._hits += 1
            return flight.value
        try:
            value = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()
            raise
        flight.value = value
        with self._lock:
            if self.maxsize != 0:
                self._entries[key] = value
                if self.maxsize is not None and len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)  # least recently used
                    self._evictions += 1
            self._inflight.pop(key, None)
        flight.done.set()
        return value

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
