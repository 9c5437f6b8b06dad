"""The default in-memory dict-index backend.

This is ``Database``'s original storage engine extracted behind
:class:`~repro.relational.backends.base.StorageBackend`: each relation is
an insertion-ordered set of tuples (a dict with ``None`` values), with
per-position hash indexes built lazily on first lookup and maintained in
place by every insert and delete.

It keeps the two properties the executor's hot path was tuned for:

* ``lookup_keys`` may return the **live index buckets**
  (:attr:`returns_live_groups` is True) -- no per-group defensive copy;
  callers treat groups as read-only and consume them before mutating the
  database;
* the single-key fast path charges stats inline, with no intermediate
  allocation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.relational.backends.base import RelationMap, Row, StorageBackend, check_positions, key_getter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.instance import AccessStats
    from repro.relational.schema import DatabaseSchema


class MemoryBackend(StorageBackend):
    """Insertion-ordered tuple sets with lazy per-position hash indexes."""

    returns_live_groups = True

    def __init__(self) -> None:
        super().__init__()
        self._rows: dict[str, dict[Row, None]] = {}
        self._indexes: dict[str, dict[tuple[int, ...], dict[Row, list[Row]]]] = {}

    def attach(self, schema: "DatabaseSchema", stats: "AccessStats") -> None:
        super().attach(schema, stats)
        self._rows = RelationMap(schema, {name: {} for name in schema.names})
        self._indexes = RelationMap(schema, {name: {} for name in schema.names})

    # -- charged reads ---------------------------------------------------

    def lookup_keys(
        self,
        relation: str,
        positions: tuple[int, ...],
        keys: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> Sequence[Sequence[Row]]:
        if not keys:
            return ()
        if not positions:
            return self._scan_groups(relation, keys, stats)
        # One dict probe finds a built index (writes maintain it in place,
        # so it is always current); the first sight of (relation, positions)
        # validates and builds it, then publishes it: no reader sees half.
        indexes = self._indexes[relation]
        index = indexes.get(positions)
        if index is None:
            check_positions(relation, self.schema.relation(relation).arity, positions)
            key_of, index = key_getter(positions), {}
            for row in self._rows[relation]:
                index.setdefault(key_of(row), []).append(row)
            indexes[positions] = index
        if len(keys) == 1:
            rows = index.get(keys[0], ())
            cum = self._cum
            cum.tuples_accessed += len(rows)
            cum.indexed_lookups += 1
            if stats is not None:
                stats.tuples_accessed += len(rows)
                stats.indexed_lookups += 1
            return [rows]
        tuples = 0
        lookups = 0
        fetched: dict[Row, Sequence[Row]] = {}
        groups: list[Sequence[Row]] = []
        get_cached = fetched.get
        get_indexed = index.get
        for key in keys:
            rows = get_cached(key)
            if rows is None:
                rows = get_indexed(key, ())
                lookups += 1
                tuples += len(rows)
                fetched[key] = rows
            groups.append(rows)
        cum = self._cum
        cum.tuples_accessed += tuples
        cum.indexed_lookups += lookups
        if stats is not None:
            stats.tuples_accessed += tuples
            stats.indexed_lookups += lookups
        return groups

    def contains_rows(
        self,
        relation: str,
        rows: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> tuple[bool, ...]:
        store = self._rows[relation]
        if len(rows) == 1:
            present = rows[0] in store
            cum = self._cum
            cum.tuples_accessed += 1 if present else 0
            cum.indexed_lookups += 1
            if stats is not None:
                stats.tuples_accessed += 1 if present else 0
                stats.indexed_lookups += 1
            return (present,)
        tuples = 0
        lookups = 0
        verdicts: list[bool] = []
        probed: dict[Row, bool] = {}
        get_cached = probed.get
        for row in rows:
            present = get_cached(row)
            if present is None:
                lookups += 1
                present = row in store
                if present:
                    tuples += 1
                probed[row] = present
            verdicts.append(present)
        self._charge(stats, tuples=tuples, lookups=lookups)
        return tuple(verdicts)

    # -- unaccounted primitives ------------------------------------------

    def probe_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        store = self._rows[relation]
        return [row in store for row in rows]

    def count(self, relation: str) -> int:
        return len(self._rows[relation])

    def iter_rows(self, relation: str) -> Iterator[Row]:
        return iter(self._rows[relation])

    # -- mutations -------------------------------------------------------

    def insert_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        store = self._rows[relation]
        indexes = self._indexes[relation]
        keyed = list(zip(map(key_getter, indexes), indexes.values()))
        flags: list[bool] = []
        for row in rows:
            if row in store:
                flags.append(False)
                continue
            store[row] = None
            for key_of, index in keyed:
                index.setdefault(key_of(row), []).append(row)
            flags.append(True)
        return flags

    def delete_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        store = self._rows[relation]
        indexes = self._indexes[relation]
        keyed = list(zip(map(key_getter, indexes), indexes.values()))
        flags: list[bool] = []
        for row in rows:
            if row not in store:
                flags.append(False)
                continue
            del store[row]
            for key_of, index in keyed:
                key = key_of(row)
                group = index[key]
                group.remove(row)
                if not group:
                    del index[key]
            flags.append(True)
        return flags


__all__ = ["MemoryBackend"]
