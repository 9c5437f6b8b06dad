"""The storage-backend interface: the narrow waist beneath ``Database``.

Every operator the executor compiles reads and writes through a handful
of bulk methods -- key-batched lookups, row-batched membership probes,
full scans, batched inserts and deletes.  :class:`StorageBackend` is that
surface as an interface, so the same compiled plans run on any of its
implementations (:mod:`repro.relational.backends` lists them) without
recompilation: the :class:`~repro.relational.instance.Database` facade
binds the backend's bulk methods directly, so executor closures calling
``db.lookup_keys(...)`` dispatch into the backend with no frame between.

The contract, in full:

**Lifecycle.**  A backend instance serves exactly one database.
:meth:`StorageBackend.attach` binds it to a schema and the database's
cumulative :class:`~repro.relational.instance.AccessStats`; attaching a
second time raises.  :meth:`StorageBackend.close` releases what a store
holds outside the process (a file and its lock; a composite's children).

**Values.**  The facade validates rows against the schema, unwraps
:class:`~repro.logic.terms.Constant` and interns strings *before* any
backend call: backends store and return plain tuples and never validate.
Lookup keys arrive plain too, aligned with their (sorted, ascending)
positions.

**Accounting.**  The charged reads -- :meth:`lookup_keys`,
:meth:`contains_rows`, :meth:`scan` -- record tuple accesses in the
attached cumulative stats and, when given, a per-execution extra
``stats`` object, exactly as the paper's measuring stick requires: each
*distinct* key (or row) in a batch is resolved and counted **once**,
however often it recurs; an absent key still counts one indexed lookup;
an empty position tuple degenerates to one shared, counted-once full
scan.  A composite backend must preserve these semantics across its
children (counting a batch's distinct keys once *globally*, not once per
child).  Mutations and the unaccounted primitives (:meth:`probe_rows`,
:meth:`count`, :meth:`iter_rows`) charge nothing.

**Aliasing.**  :attr:`returns_live_groups` declares whether the row
groups returned by :meth:`lookup_keys` may alias internal storage.  The
memory backend sets it: its groups are the *live* index buckets (no
defensive copy on the hot path), so callers must treat them as read-only
and consume them before mutating the database.  Backends that leave it
False return owned rows the caller may keep (but still must not mutate
-- rows are shared tuples).

**Mutations.**  :meth:`insert_rows` / :meth:`delete_rows` apply a batch
with set semantics, maintain every index the backend has built, and
return one effectiveness flag per input row *in order* (an insert of an
already-present tuple, or a second occurrence within the batch, is
``False``; likewise deletes of absent tuples).  The facade turns the
flags into :class:`~repro.relational.instance.ChangeLog` entries, so a
backend that misreports effectiveness corrupts incremental execution --
the conformance suite (``tests/test_backends.py``) checks this.  On
failure likewise: a write primitive **applies the batch and returns its
flags, or raises having applied nothing** -- a half-applied batch is rows
the log never heard of, which no refresh repairs (the facade rejects
unhashable values before any call; :meth:`check_rows` refuses a row the
store cannot keep -- NaN on SQLite -- and a composite asks every child
before any applies; SQLite rolls back; a composite guarantees the rest
per child, not across children).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.relational.instance import AccessStats
    from repro.relational.schema import DatabaseSchema

Row = tuple[object, ...]


def check_positions(relation: str, arity: int, positions: tuple[int, ...]) -> None:
    """Raise :class:`SchemaError` unless every position fits ``arity``."""
    for p in positions:
        if not 0 <= p < arity:
            raise SchemaError(
                f"position {p} out of range for relation {relation!r} "
                f"of arity {arity}"
            )


class StorageBackend(ABC):
    """Abstract storage engine behind a :class:`~repro.relational.instance.Database`.

    See the module docstring for the full contract (lifecycle, plain
    values, accounting exactness, the aliasing flag, mutation flags).
    """

    #: Whether :meth:`lookup_keys` may return groups aliasing internal
    #: storage (live index buckets).  When True, callers must treat the
    #: groups as read-only and consume them before mutating the database.
    returns_live_groups: bool = False

    def __init__(self) -> None:
        self._schema: "DatabaseSchema | None" = None
        self._cum: "AccessStats | None" = None

    # -- lifecycle -------------------------------------------------------

    def attach(self, schema: "DatabaseSchema", stats: "AccessStats") -> None:
        """Bind this backend to ``schema`` and the owning database's
        cumulative ``stats``.  One-shot: a backend serves one database."""
        if self._schema is not None:
            raise SchemaError(
                f"{type(self).__name__} is already attached to a database; "
                f"construct a fresh backend per Database"
            )
        self._schema = schema
        self._cum = stats

    def close(self) -> None:
        """Release what the store holds outside the process (idempotent);
        by default nothing -- memory goes with its last reference."""

    @property
    def schema(self) -> "DatabaseSchema":
        if self._schema is None:
            raise SchemaError(f"{type(self).__name__} is not attached to a database")
        return self._schema

    # -- charged reads ---------------------------------------------------

    @abstractmethod
    def lookup_keys(
        self,
        relation: str,
        positions: tuple[int, ...],
        keys: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> Sequence[Sequence[Row]]:
        """One row group per key, aligned with ``keys``; every key
        constrains the same sorted ``positions``.  Each *distinct* key is
        resolved and charged once; ``positions == ()`` degenerates to one
        shared, counted-once full scan replicated per key.  Whether the
        groups may alias internal storage is declared by
        :attr:`returns_live_groups`."""

    @abstractmethod
    def contains_rows(
        self,
        relation: str,
        rows: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> tuple[bool, ...]:
        """One membership verdict per row, aligned with ``rows``.  Each
        *distinct* row is probed and charged once (one indexed lookup,
        plus one tuple accessed when present)."""

    @abstractmethod
    def scan(self, relation: str, stats: "AccessStats | None" = None) -> tuple[Row, ...]:
        """Every row of ``relation`` in insertion order -- one full scan,
        charged as such."""

    # -- unaccounted primitives ------------------------------------------

    @abstractmethod
    def probe_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        """Uncharged presence flags aligned with ``rows`` -- the facade's
        pre-check for strict (Section 5 well-formed) mutation batches."""

    @abstractmethod
    def count(self, relation: str) -> int:
        """The number of stored rows (uncharged metadata)."""

    @abstractmethod
    def iter_rows(self, relation: str) -> Iterator[Row]:
        """Iterate the stored rows in insertion order (uncharged metadata
        -- the cost-statistics walk)."""

    # -- mutations -------------------------------------------------------

    def check_rows(self, relation: str, rows: Sequence[Row]) -> None:
        """Raise :class:`SchemaError` if this store cannot keep a row of a
        write batch as given (each write calls it before applying any row)."""

    @abstractmethod
    def insert_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        """Apply a batch of inserts with set semantics, maintaining every
        built index; one effectiveness flag per input row, in order --
        or raise having applied nothing."""

    @abstractmethod
    def delete_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        """Apply a batch of deletes, maintaining every built index; one
        effectiveness flag per input row, in order -- or raise having
        applied nothing."""

    def load_rows(self, relation: str, rows: Sequence[Row]) -> int:
        """Bulk-load fast path: insert with set semantics and return only
        the applied *count* (no per-row flags, no identity) -- or raise
        having applied nothing.  Backends may override to skip flag
        bookkeeping entirely."""
        return sum(self.insert_rows(relation, rows))

    # -- shared helpers --------------------------------------------------

    def _charge(
        self,
        extra: "AccessStats | None",
        *,
        tuples: int = 0,
        lookups: int = 0,
        scans: int = 0,
    ) -> None:
        """Record one read's counters in the attached cumulative stats
        and, when given, the caller's per-execution stats."""
        cum = self._cum
        for stats in (cum,) if extra is None else (cum, extra):
            stats.tuples_accessed += tuples
            stats.indexed_lookups += lookups
            stats.full_scans += scans

    def _scan_groups(
        self,
        relation: str,
        keys: Sequence[Row],
        stats: "AccessStats | None",
    ) -> list[tuple[Row, ...]]:
        """The ``positions == ()`` degenerate case of :meth:`lookup_keys`:
        one shared, counted-once scan replicated per key."""
        return [self.scan(relation, stats)] * len(keys)


__all__ = ["StorageBackend", "Row", "check_positions"]
