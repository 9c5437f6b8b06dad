"""The columnar representation the physical executor lowers to.

The executor's unit of work is a batch of partial assignments stored
column-wise: one Python list per *variable slot* -- parallel columns of
one length -- with ``None`` for a slot that is unbound (not yet fetched)
or dead (no later operator reads it).  The variable-to-slot mapping is
compiled once per plan into a :class:`SlotTable` (during pipeline
lowering, see :func:`repro.core.executor.build_pipeline`), so the
compiled closures address columns by integer index and never hash a
variable per row: a fetch builds its key column with one ``zip``, expands
matches into a ``take`` list of source indices plus fresh columns for
newly bound variables, and gathers only live columns.  There is no batch
*class*: the closures thread a bare ``(columns, n)`` pair, and derivation
signs (+1 gained, -1 lost, for :mod:`repro.incremental`) ride as one more
column in the trailing slot.

:class:`PipelineCache` is the LRU home of lowered pipelines: bounded,
stats-instrumented, keyed by plan identity -- the same cache discipline
as the Engine's :class:`repro.api.cache.PlanCache` (which this module
cannot import: ``repro.api`` sits above ``repro.core``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.logic.terms import Variable

Row = tuple[object, ...]

__all__ = [
    "SlotTable",
    "PipelineCache",
    "PipelineCacheStats",
]


class SlotTable:
    """An immutable variable -> column-slot mapping, compiled once per
    plan: the schema every batch of one pipeline shares, so closures
    resolve a variable to a list index instead of hashing it per row."""

    __slots__ = ("variables", "index")

    def __init__(self, variables: Iterable[Variable]):
        self.variables: tuple[Variable, ...] = tuple(dict.fromkeys(variables))
        self.index: dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)
        }

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, variable: object) -> bool:
        return variable in self.index

    def __iter__(self):
        return iter(self.variables)

    def slot(self, variable: Variable) -> int:
        return self.index[variable]

    def __repr__(self) -> str:
        names = ", ".join(f"?{v}" for v in self.variables)
        return f"SlotTable({names})"


#: Shared empty-key singleton: a keyless fetch broadcasts one () key per
#: source row, so the key column is the same object for every batch.
EMPTY_KEY: Row = ()


@dataclass(frozen=True)
class PipelineCacheStats:
    """Counters of a :class:`PipelineCache` (same shape as the Engine's
    plan-cache stats): hits/misses/evictions plus current occupancy."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int | None


class PipelineCache:
    """A bounded, thread-safe LRU of lowered pipelines, keyed by plan
    identity.

    Plans hash and compare by identity (no ``__eq__``), and the cache
    holds strong references until eviction -- so a key can never alias a
    *different* plan whose ``id()`` happened to be reused, the hazard an
    ``id(plan)``-keyed dict would have.  ``maxsize=None`` disables the
    bound (every lowered pipeline is retained).  The same single-lock
    LRU discipline as :class:`repro.api.cache.PlanCache`; there is no
    single-flight here because lowering is pure and cheap -- two racing
    lowers of one plan build identical pipelines and the second write
    wins harmlessly.
    """

    __slots__ = ("_maxsize", "_lock", "_entries", "_hits", "_misses", "_evictions")

    def __init__(self, maxsize: int | None = 256):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self) -> int | None:
        return self._maxsize

    def get_or_build(self, plan, build: Callable):
        """The cached lowering of ``plan``, building (and caching) it on
        first sight; least-recently-used entries are evicted past
        ``maxsize``."""
        lock = self._lock
        with lock:
            entry = self._entries.get(plan)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(plan)
                return entry
            self._misses += 1
        # Build outside the lock: lowering is pure, so a racing build of
        # the same plan is redundant work, never a correctness hazard.
        entry = build(plan)
        with lock:
            self._entries[plan] = entry
            self._entries.move_to_end(plan)
            if self._maxsize is not None:
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return entry

    def resize(self, maxsize: int | None) -> None:
        """Change the bound, evicting immediately if shrinking."""
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        with self._lock:
            self._maxsize = maxsize
            if maxsize is not None:
                while len(self._entries) > maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> PipelineCacheStats:
        with self._lock:
            return PipelineCacheStats(
                self._hits,
                self._misses,
                self._evictions,
                len(self._entries),
                self._maxsize,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
