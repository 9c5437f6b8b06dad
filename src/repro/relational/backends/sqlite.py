"""An out-of-core SQLite storage backend.

One table per relation (columns ``c0..cN``, a unique index over all
columns for set semantics), plus a lazily created **covering index** per
accessed position set -- key columns first, the remaining columns
appended, so every bulk lookup is answered from the index alone.  Bulk
calls stay one round trip each: a batch of distinct keys resolves
through a single chunked ``IN``-list (an OR-of-ANDs disjunction for
composite keys -- SQLite answers it with MULTI-INDEX OR searches,
where the prettier row-value ``IN (VALUES ...)`` form falls back to a
full table scan), and mutation batches go through ``executemany``.

Accounting is exactly the memory backend's: each distinct key in a batch
is charged one indexed lookup plus the tuples its group holds, so the
scale-independence numbers (tuples accessed vs the fanout bound) are
directly comparable across backends.  Returned rows are **owned** --
built fresh from the query result and interned -- never aliases of
internal storage (:attr:`~StorageBackend.returns_live_groups` stays
False).

File lifecycle: pass ``path`` to put the store on disk (the file is
created on attach and left in place -- callers own deletion; pass the
same path to a *new* backend to reopen existing tables), or no path for
a private in-memory SQLite database.  ``close()`` releases the
connection; every primitive called afterwards (or before ``attach``)
raises :class:`~repro.errors.SchemaError` naming the path.  Durability
pragmas are relaxed (``journal_mode=OFF``, ``synchronous=OFF``): this is
a query-engine store, not a system of record.

``None`` is a first-class value: SQL ``NULL`` neither matches ``=`` nor
deduplicates under a UNIQUE index, so every read/write path routes
``None``-bearing keys and rows through explicit ``IS NULL`` predicates
(and Python-side dedup on load), keeping all backends row-for-row
interchangeable.

Limitations: values must be SQLite-native (int, float, str, bytes or
``None``), and relation names that differ only by case would collide
(SQLite identifiers are case-insensitive).
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.backends.base import Row, StorageBackend, check_positions
from repro.relational.interning import intern_row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.instance import AccessStats
    from repro.relational.schema import DatabaseSchema

#: Bound parameters per statement stay well under SQLite's variable limit
#: (999 in the oldest supported builds).
_MAX_VARIABLES = 900

#: Rows per ``executemany`` chunk on the write path.
_WRITE_CHUNK = 50_000


class SqliteBackend(StorageBackend):
    """Relation-per-table SQLite store with per-position covering indexes."""

    returns_live_groups = False

    def __init__(self, path: str | None = None):
        super().__init__()
        self.path = path
        self._handle: sqlite3.Connection | None = None
        self._arity: dict[str, int] = {}
        self._indexed: dict[str, set[tuple[int, ...]]] = {}

    def attach(self, schema: "DatabaseSchema", stats: "AccessStats") -> None:
        super().attach(schema, stats)
        # isolation_level=None -> autocommit: every statement is durable in
        # the file immediately, so "reopen by path" sees everything without
        # an explicit commit protocol.  check_same_thread=False matches the
        # database's concurrency contract (reads may be cross-thread,
        # mutations are single-writer).
        conn = sqlite3.connect(
            self.path if self.path is not None else ":memory:",
            isolation_level=None,
            check_same_thread=False,
        )
        conn.execute("PRAGMA journal_mode=OFF")
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute("PRAGMA temp_store=MEMORY")
        conn.execute("PRAGMA cache_size=-131072")  # 128 MiB of page cache
        self._handle = conn
        for name in schema.names:
            arity = schema.relation(name).arity
            self._arity[name] = arity
            cols = ", ".join(f"c{i}" for i in range(arity))
            conn.execute(f"CREATE TABLE IF NOT EXISTS {self._table(name)} ({cols})")
            conn.execute(
                f"CREATE UNIQUE INDEX IF NOT EXISTS "
                f"{self._index_name(name, tuple(range(arity)))} "
                f"ON {self._table(name)} ({cols})"
            )
            # The unique all-columns index covers any lookup whose sorted
            # key positions are a prefix of (0, 1, ..., arity-1).
            self._indexed[name] = {
                tuple(range(width)) for width in range(1, arity + 1)
            }

    def close(self) -> None:
        """Release the connection (idempotent).  A file-backed store stays
        on disk; reopen it by constructing a new backend with the same
        path."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def _conn(self) -> sqlite3.Connection:
        """The open connection every primitive reads and writes through;
        on a closed or never-attached store, the lifecycle misuse error."""
        handle = self._handle
        if handle is None:
            if self._schema is None:
                raise SchemaError(f"{self!r} is not attached to a database")
            raise SchemaError(
                f"{self!r} is closed; construct a new backend with the same "
                f"path to reopen the store"
            )
        return handle

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
        arity = self._require(relation)
        check_positions(relation, arity, positions)
        self._ensure_index(relation, positions)
        distinct: dict[Row, list[Row]] = {key: [] for key in keys}
        width = len(positions)
        table = self._table(relation)
        sel = ", ".join(f"c{i}" for i in range(arity))
        conn = self._conn
        pending = list(distinct)
        plain = [key for key in pending if None not in key]
        nullish = [key for key in pending if None in key]
        chunk_size = max(1, _MAX_VARIABLES // width)
        for start in range(0, len(plain), chunk_size):
            chunk = plain[start : start + chunk_size]
            if width == 1:
                marks = ", ".join("?" * len(chunk))
                sql = (
                    f"SELECT {sel} FROM {table} "
                    f"WHERE c{positions[0]} IN ({marks}) ORDER BY rowid"
                )
                params: list[object] = [key[0] for key in chunk]
            else:
                one_key = (
                    "(" + " AND ".join(f"c{p} = ?" for p in positions) + ")"
                )
                disjunction = " OR ".join([one_key] * len(chunk))
                sql = (
                    f"SELECT {sel} FROM {table} "
                    f"WHERE {disjunction} ORDER BY rowid"
                )
                params = [value for key in chunk for value in key]
            for fetched in conn.execute(sql, params):
                row = intern_row(tuple(fetched))
                distinct[tuple(row[p] for p in positions)].append(row)
        # None-bearing keys: ``=`` never matches NULL, so these need
        # per-key predicates with IS NULL at the None positions.
        for start in range(0, len(nullish), chunk_size):
            chunk = nullish[start : start + chunk_size]
            terms: list[str] = []
            params = []
            for key in chunk:
                term, key_params = self._null_safe_key(positions, key)
                terms.append(term)
                params.extend(key_params)
            sql = (
                f"SELECT {sel} FROM {table} "
                f"WHERE {' OR '.join(terms)} ORDER BY rowid"
            )
            for fetched in conn.execute(sql, params):
                row = intern_row(tuple(fetched))
                group = distinct.get(tuple(row[p] for p in positions))
                if group is not None:
                    group.append(row)
        tuples = sum(len(group) for group in distinct.values())
        self._charge(stats, tuples=tuples, lookups=len(distinct))
        owned = {key: tuple(group) for key, group in distinct.items()}
        return [owned[key] for key in keys]

    def contains_rows(
        self,
        relation: str,
        rows: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> tuple[bool, ...]:
        self._require(relation)
        distinct = list(dict.fromkeys(rows))
        present = self._present(relation, distinct)
        self._charge(stats, tuples=len(present), lookups=len(distinct))
        return tuple(row in present for row in rows)

    def scan(self, relation: str, stats: "AccessStats | None" = None) -> tuple[Row, ...]:
        self._require(relation)
        rows = tuple(
            intern_row(tuple(fetched))
            for fetched in self._conn.execute(
                f"SELECT * FROM {self._table(relation)} ORDER BY rowid"
            )
        )
        self._charge(stats, tuples=len(rows), scans=1)
        return rows

    # -- unaccounted primitives ------------------------------------------

    def probe_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        self._require(relation)
        present = self._present(relation, list(dict.fromkeys(rows)))
        return [row in present for row in rows]

    def count(self, relation: str) -> int:
        (n,) = self._conn.execute(
            f"SELECT COUNT(*) FROM {self._table(relation)}"
        ).fetchone()
        return n

    def iter_rows(self, relation: str) -> Iterator[Row]:
        for fetched in self._conn.execute(
            f"SELECT * FROM {self._table(relation)} ORDER BY rowid"
        ):
            yield intern_row(tuple(fetched))

    # -- mutations -------------------------------------------------------

    def insert_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        arity = self._require(relation)
        present = self._present(relation, list(dict.fromkeys(rows)))
        flags: list[bool] = []
        new: list[Row] = []
        for row in rows:
            if row in present:
                flags.append(False)
            else:
                present.add(row)
                new.append(row)
                flags.append(True)
        if new:
            marks = ", ".join("?" * arity)
            self._conn.executemany(
                f"INSERT INTO {self._table(relation)} VALUES ({marks})", new
            )
        return flags

    def delete_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        arity = self._require(relation)
        present = self._present(relation, list(dict.fromkeys(rows)))
        flags: list[bool] = []
        gone: list[Row] = []
        for row in rows:
            if row in present:
                present.discard(row)
                gone.append(row)
                flags.append(True)
            else:
                flags.append(False)
        plain = [row for row in gone if None not in row]
        if plain:
            where = " AND ".join(f"c{i} = ?" for i in range(arity))
            self._conn.executemany(
                f"DELETE FROM {self._table(relation)} WHERE {where}", plain
            )
        # None-bearing rows need IS NULL predicates; they are rare, so
        # one statement per row keeps this simple.
        for row in gone:
            if None not in row:
                continue
            term, params = self._null_safe_key(tuple(range(arity)), row)
            self._conn.execute(
                f"DELETE FROM {self._table(relation)} WHERE {term}", params
            )
        return flags

    def load_rows(self, relation: str, rows: Sequence[Row]) -> int:
        """Bulk load without per-row flags: ``INSERT OR IGNORE`` in
        ``executemany`` chunks, counting applied rows via the connection's
        change counter.  ``None``-bearing rows bypass the OR IGNORE fast
        path -- the unique index treats NULLs as distinct, so it cannot
        dedupe them -- and are deduped in Python instead."""
        arity = self._require(relation)
        conn = self._conn
        table = self._table(relation)
        marks = ", ".join("?" * arity)
        plain = [row for row in rows if None not in row]
        nullish = [row for row in rows if None in row]
        applied = 0
        if plain:
            sql = f"INSERT OR IGNORE INTO {table} VALUES ({marks})"
            before = conn.total_changes
            for start in range(0, len(plain), _WRITE_CHUNK):
                conn.executemany(sql, plain[start : start + _WRITE_CHUNK])
            applied += conn.total_changes - before
        if nullish:
            present = self._present(relation, list(dict.fromkeys(nullish)))
            fresh: list[Row] = []
            for row in nullish:
                if row not in present:
                    present.add(intern_row(tuple(row)))
                    fresh.append(row)
            if fresh:
                conn.executemany(
                    f"INSERT INTO {table} VALUES ({marks})", fresh
                )
                applied += len(fresh)
        return applied

    # -- internals -------------------------------------------------------

    def _require(self, relation: str) -> int:
        arity = self._arity.get(relation)
        if arity is None:
            self._conn  # an unattached store says so, naming its path
            self.schema.relation(relation)  # raises the proper SchemaError
            raise KeyError(relation)  # pragma: no cover - schema raised
        return arity

    def _present(self, relation: str, distinct: list[Row]) -> set[Row]:
        """The subset of ``distinct`` rows currently stored (one chunked
        probe through the unique all-columns index)."""
        arity = self._arity[relation]
        table = self._table(relation)
        conn = self._conn
        present: set[Row] = set()
        chunk_size = max(1, _MAX_VARIABLES // arity)
        cols = ", ".join(f"c{i}" for i in range(arity))
        plain = [row for row in distinct if None not in row]
        nullish = [row for row in distinct if None in row]
        for start in range(0, len(plain), chunk_size):
            chunk = plain[start : start + chunk_size]
            if arity == 1:
                marks = ", ".join("?" * len(chunk))
                sql = f"SELECT {cols} FROM {table} WHERE c0 IN ({marks})"
                params: list[object] = [row[0] for row in chunk]
            else:
                one_row = (
                    "(" + " AND ".join(f"c{i} = ?" for i in range(arity)) + ")"
                )
                disjunction = " OR ".join([one_row] * len(chunk))
                sql = f"SELECT {cols} FROM {table} WHERE {disjunction}"
                params = [value for row in chunk for value in row]
            for fetched in conn.execute(sql, params):
                present.add(intern_row(tuple(fetched)))
        positions = tuple(range(arity))
        for start in range(0, len(nullish), chunk_size):
            chunk = nullish[start : start + chunk_size]
            terms: list[str] = []
            null_params: list[object] = []
            for row in chunk:
                term, row_params = self._null_safe_key(positions, row)
                terms.append(term)
                null_params.extend(row_params)
            sql = f"SELECT {cols} FROM {table} WHERE {' OR '.join(terms)}"
            for fetched in conn.execute(sql, null_params):
                present.add(intern_row(tuple(fetched)))
        return present

    @staticmethod
    def _null_safe_key(
        positions: tuple[int, ...], key: Row
    ) -> tuple[str, list[object]]:
        """One key's WHERE term with ``IS NULL`` at the ``None``
        positions (SQL ``=`` never matches NULL) and the bound
        parameters for the rest."""
        terms: list[str] = []
        params: list[object] = []
        for position, value in zip(positions, key):
            if value is None:
                terms.append(f"c{position} IS NULL")
            else:
                terms.append(f"c{position} = ?")
                params.append(value)
        return "(" + " AND ".join(terms) + ")", params

    def _ensure_index(self, relation: str, positions: tuple[int, ...]) -> None:
        """Create the covering index for ``positions`` on first use: key
        columns first, every remaining column appended so the lookup is
        index-only."""
        if positions in self._indexed[relation]:
            return
        arity = self._arity[relation]
        ordered = list(positions) + [
            i for i in range(arity) if i not in positions
        ]
        cols = ", ".join(f"c{i}" for i in ordered)
        self._conn.execute(
            f"CREATE INDEX IF NOT EXISTS {self._index_name(relation, positions)} "
            f"ON {self._table(relation)} ({cols})"
        )
        self._indexed[relation].add(positions)

    @staticmethod
    def _table(relation: str) -> str:
        quoted = relation.replace('"', '""')
        return f'"r_{quoted}"'

    @staticmethod
    def _index_name(relation: str, positions: tuple[int, ...]) -> str:
        quoted = relation.replace('"', '""')
        suffix = "_".join(str(p) for p in positions)
        return f'"ix_{quoted}_{suffix}"'

    def __repr__(self) -> str:
        where = self.path if self.path is not None else ":memory:"
        return f"SqliteBackend({where!r})"


__all__ = ["SqliteBackend"]
