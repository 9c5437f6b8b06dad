"""Pluggable storage backends behind :class:`~repro.relational.instance.Database`.

The executor's bulk narrow waist -- key-batched lookups, membership
probes, scans, batched mutations -- extracted into
:class:`~repro.relational.backends.base.StorageBackend`, with two
implementations:

* :class:`~repro.relational.backends.memory.MemoryBackend` -- the
  default in-memory dict-index store (live index buckets, lazy
  per-position indexes);
* :class:`~repro.relational.backends.sqlite.SqliteBackend` -- an
  out-of-core relation-per-table SQLite store with covering indexes and
  one round trip per bulk call.

Both preserve the paper's tuple-access accounting exactly, so
scale-independence measurements are comparable across backends.
"""

from repro.relational.backends.base import Row, StorageBackend, check_positions
from repro.relational.backends.memory import MemoryBackend
from repro.relational.backends.sqlite import SqliteBackend

__all__ = [
    "StorageBackend",
    "MemoryBackend",
    "SqliteBackend",
    "Row",
    "check_positions",
]
