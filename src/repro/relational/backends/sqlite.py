"""An out-of-core SQLite storage backend.

One table per relation -- ``_seq INTEGER PRIMARY KEY`` (the rowid, so a
new row's exceeds every stored one's) beside the values ``c0..cN``, with a
unique index over ``c0..cN`` for set semantics -- plus a lazily created
**covering index** per accessed position set: key columns, ``_seq``, the
rest.  A keyed read is answered from the index alone and **never sorts**:
its ``ORDER BY <key columns>, _seq`` is the index's order, which within a
key is insertion order (the memory backend's); a key naming every column
has one row at most, so no ORDER BY.  A batch of k distinct keys is one
round trip: that one-key SELECT k times, each arm wrapped as ``SELECT *
FROM (...)`` under ``UNION ALL`` -- composite and ``None``-bearing keys
alike, so no batch sorts or merges an OR -- chunked at 500 arms (SQLite's
cap on a compound SELECT's terms) and ``_MAX_VARIABLES`` parameters.
Mutation batches go through ``executemany``.  A file older than ``_seq``
is refused.

A call pays for its key values only.  What they do not change --
validation, the covering index, how a fetched row maps back to its key --
is resolved on first sight of ``(relation, positions)`` and memoised (an
invalid read raises every time and never enters the memo); under each
resolved read sits the statement text per key count, and the connection
keeps ``_CACHED_STATEMENTS`` statements compiled.  A one-key batch --
most of what the executor sends -- runs its statement and charges inline.

Accounting is the waist's contract, exactly as the memory backend keeps
it (a mis-sized key or row is an absent one: one lookup, nothing found),
so tuples accessed vs the fanout bound compare across backends.  Returned
rows are **owned** tuples ``sqlite3`` decodes (no per-cell callback; where
rows persist, a view interns them), never aliases of storage
(:attr:`~StorageBackend.returns_live_groups` is False).

File lifecycle: pass ``path`` to put the store on disk (created on attach,
left in place -- callers own deletion), or nothing for a private
in-memory SQLite database.  An open file has **one owner**: ``attach``
takes it (``locking_mode=EXCLUSIVE``, the lock acquired there) and holds
it until ``close()``.  Change log, pins and maintained results live in the
owner's process, so a second writer would leave them silently stale;
owning the file says so and spares every read a shared file's lock /
change-counter / unlock system calls.  Until ``close()`` no other
connection can read or write the file (``sqlite3`` / CLI inspection needs
the store closed) and a second backend on the path raises
:class:`~repro.errors.SchemaError` at once; afterwards a *new* backend on
the path reopens the tables -- shard-per-process fits: each process owns
its shard's file -- and every primitive on the closed one (or before
``attach``) raises ``SchemaError`` naming the path.

Writes: ``load_rows``, ``insert_rows`` and ``delete_rows`` each run as
**one transaction** (:meth:`SqliteBackend._batch`, the only way a write
statement reaches the connection) around their probe and statements; a
call that raises rolls back, and a second concurrent writer fails loudly
at its own ``BEGIN``.  Reads stay autocommit.  Durability is relaxed
(``journal_mode=MEMORY``, ``synchronous=OFF``): a query-engine store, not
a system of record -- a reopened path holds the *committed* batches.

``None`` is a first-class value: SQL ``NULL`` neither matches ``=`` nor
deduplicates under a UNIQUE index, so ``None``-bearing keys and rows take
``IS NULL`` predicates (and Python-side dedup on load).

Limitations: values must be SQLite-native (int, float, str, bytes or
``None``); NaN, which SQLite binds as NULL, is refused by every write
(:meth:`SqliteBackend.check_rows`); and relation names that differ only by
case would collide (SQLite identifiers are case-insensitive).
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter, ne
from typing import TYPE_CHECKING, Collection, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.backends.base import Row, StorageBackend, check_positions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.instance import AccessStats
    from repro.relational.schema import DatabaseSchema

#: Bound parameters per statement stay well under SQLite's variable limit
#: (999 in the oldest supported builds).
_MAX_VARIABLES = 900

#: Statements the connection keeps compiled: room for a workload's read
#: texts (129 on the benchmark's larger SQLite store after three
#: segments, past ``sqlite3``'s default of 128).
_CACHED_STATEMENTS = 1024


def _columns(arity: int) -> str:
    return ", ".join(f"c{i}" for i in range(arity))


def _null_safe(positions: tuple[int, ...], key: Row) -> str:
    """One key's WHERE term: ``IS NULL`` at its ``None`` positions, ``= ?`` elsewhere."""
    terms = (f"c{p} IS NULL" if v is None else f"c{p} = ?" for p, v in zip(positions, key))
    return " AND ".join(terms)


def _read_text(one: str, count: int) -> str:
    """The SELECT answering ``count`` keys in one round trip: the one-key
    SELECT ``one`` as ``count`` arms under ``UNION ALL``, each keeping its ORDER BY."""
    return " UNION ALL ".join([f"SELECT * FROM ({one})"] * count)


class _Read:
    """What reading one ``(relation, positions)`` needs that no key value
    changes: how a fetched row maps back to its key, and the statement
    text per key count (built on demand)."""

    __slots__ = ("positions", "limit", "key_of", "head", "tail", "one", "_texts")

    def __init__(self, table: str, arity: int, positions: tuple[int, ...], tail: str):
        self.positions = positions
        self.limit = min(max(1, _MAX_VARIABLES // len(positions)), 500)  # arms: SQLite's cap
        self.key_of = itemgetter(*positions) if len(positions) > 1 else None
        self.head = f"SELECT {_columns(arity)} FROM {table} WHERE "
        self.tail = tail
        self.one = self.head + " AND ".join(f"c{p} = ?" for p in positions) + tail
        self._texts = {1: self.one}

    def text(self, count: int) -> str:
        sql = self._texts.get(count)
        if sql is None:
            sql = self._texts[count] = _read_text(self.one, count)
        return sql


class SqliteBackend(StorageBackend):
    """Relation-per-table SQLite store with per-position covering indexes."""

    returns_live_groups = False

    def __init__(self, path: str | None = None):
        super().__init__()
        self.path = path
        self._handle: sqlite3.Connection | None = None
        self._arity: dict[str, int] = {}
        # (relation, lookup positions | None for the row probe) -> resolved read
        self._reads: dict[tuple[str, "tuple[int, ...] | None"], _Read] = {}

    def attach(self, schema: "DatabaseSchema", stats: "AccessStats") -> None:
        super().attach(schema, stats)
        # isolation_level=None: the driver opens no transaction of its own
        # (reads are autocommit, writes run inside _batch's explicit one).
        # check_same_thread=False: reads may be cross-thread, mutations are
        # single-writer.  timeout=0: with one owner, nobody to wait for.
        conn = sqlite3.connect(
            self.path if self.path is not None else ":memory:",
            timeout=0,
            isolation_level=None,
            check_same_thread=False,
            cached_statements=_CACHED_STATEMENTS,
        )
        # One owner until close(): in exclusive locking mode COMMIT keeps
        # the lock BEGIN EXCLUSIVE takes, so no read pays a shared file's
        # lock / change-counter / unlock system calls.
        conn.execute("PRAGMA locking_mode=EXCLUSIVE")
        try:
            conn.execute("BEGIN EXCLUSIVE")
        except sqlite3.Error as exc:
            conn.close()
            if "locked" not in str(exc):
                raise
            raise SchemaError(
                f"{self!r} is open in another backend or process; close it there first"
            ) from exc
        conn.execute("COMMIT")
        conn.execute("PRAGMA journal_mode=MEMORY")  # OFF leaves ROLLBACK undefined
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute("PRAGMA temp_store=MEMORY")
        conn.execute("PRAGMA cache_size=-131072")  # 128 MiB of page cache
        self._handle = conn
        for name in schema.names:
            arity = self._arity[name] = schema.relation(name).arity
            table, cols = self._table(name), _columns(arity)
            conn.execute(f"CREATE TABLE IF NOT EXISTS {table} (_seq INTEGER PRIMARY KEY, {cols})")
            if "_seq" not in {column[1] for column in conn.execute(f"PRAGMA table_info({table})")}:
                self.close()
                message = f"the file predates the _seq layout: {table} has no _seq column"
                raise SchemaError(f"{self!r}: {message}")
            unique = self._index_name(name, tuple(range(arity)))
            conn.execute(f"CREATE UNIQUE INDEX IF NOT EXISTS {unique} ON {table} ({cols})")

    def close(self) -> None:
        """Release the connection and with it the file (idempotent); the
        file stays on disk for a new backend on the same path."""
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
        # One dict probe finds what no key value changes: validation, the
        # index and the SQL text are paid on first sight of a read only.
        read = self._reads.get((relation, positions))
        if read is None:
            if not positions:
                return self._scan_groups(relation, keys, stats)
            read = self._resolve(relation, positions)
        if len(keys) == 1 and None not in keys[0]:
            return [self._one(read, keys[0], stats)]
        groups: dict[Row, list[Row]] = {key: [] for key in keys}
        get, key_of, p, conn = groups.get, read.key_of, positions[0], self._conn
        for sql, params in self._statements(read, groups):
            for row in conn.execute(sql, params):
                group = get((row[p],) if key_of is None else key_of(row))
                if group is not None:  # a row Python files under no key is nobody's
                    group.append(row)
        self._charge(stats, tuples=sum(map(len, groups.values())), lookups=len(groups))
        return [tuple(groups[key]) for key in keys]

    def contains_rows(
        self,
        relation: str,
        rows: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> tuple[bool, ...]:
        if len(rows) == 1 and None not in rows[0]:
            read = self._reads.get((relation, None)) or self._resolve(relation, None)
            return (bool(self._one(read, rows[0], stats)),)
        distinct = dict.fromkeys(rows)
        present = self._present(relation, distinct)
        self._charge(stats, tuples=len(present), lookups=len(distinct))
        return tuple(map(present.__contains__, rows))

    def _one(self, read: _Read, key: Row, stats: "AccessStats | None") -> tuple[Row, ...]:
        """One key's rows through ``read.one``, charged inline; a mis-sized key matches nothing."""
        try:
            rows = tuple(self._conn.execute(read.one, key))
        except sqlite3.ProgrammingError:
            if len(key) == len(read.positions):
                raise
            rows = ()
        cum = self._cum
        cum.tuples_accessed += len(rows)
        cum.indexed_lookups += 1
        if stats is not None:
            stats.tuples_accessed += len(rows)
            stats.indexed_lookups += 1
        return rows

    def scan(self, relation: str, stats: "AccessStats | None" = None) -> tuple[Row, ...]:
        self._require(relation)
        rows = tuple(self.iter_rows(relation))
        self._charge(stats, tuples=len(rows), scans=1)
        return rows

    # -- unaccounted primitives ------------------------------------------

    def probe_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        present = self._present(relation, dict.fromkeys(rows))
        return [row in present for row in rows]

    def count(self, relation: str) -> int:
        return self._conn.execute(f"SELECT COUNT(*) FROM {self._table(relation)}").fetchone()[0]

    def iter_rows(self, relation: str) -> Iterator[Row]:
        columns = _columns(self._require(relation))
        return self._conn.execute(f"SELECT {columns} FROM {self._table(relation)} ORDER BY _seq")

    # -- mutations -------------------------------------------------------

    @contextmanager
    def _batch(self) -> Iterator[sqlite3.Connection]:
        """The one write path: a transaction around everything one write
        primitive reads and writes.  Commits on exit; on any exception
        rolls back -- the store is as it was -- and re-raises."""
        conn = self._conn
        conn.execute("BEGIN")
        try:
            yield conn
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:  # some failures (disk full) roll back themselves
                conn.execute("ROLLBACK")
            raise

    def check_rows(self, relation: str, rows: Sequence[Row]) -> None:
        """SQLite binds NaN as NULL, so ``(1, nan)`` would be stored, found and
        deduplicated as ``(1, None)``: one C-level pass (``v != v``) refuses it."""
        if any(map(ne, chain.from_iterable(rows), chain.from_iterable(rows))):
            row = next(row for row in rows if any(map(ne, row, row)))
            raise SchemaError(f"{self!r} cannot store {row!r} in {relation!r}: NaN binds as NULL")

    def insert_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        sql = self._insert(relation, "INSERT")
        self.check_rows(relation, rows)
        with self._batch() as conn:
            flags, new = self._effective(relation, rows, stored=False)
            conn.executemany(sql, new)
        return flags

    def delete_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        columns = tuple(range(self._require(relation)))
        self.check_rows(relation, rows)
        table = self._table(relation)
        where = " AND ".join(f"c{i} = ?" for i in columns)
        with self._batch() as conn:
            flags, gone = self._effective(relation, rows, stored=True)
            plain = [row for row in gone if None not in row]
            conn.executemany(f"DELETE FROM {table} WHERE {where}", plain)
            # None-bearing rows are rare: one IS NULL statement each.
            for row in gone:
                if None in row:
                    params = [v for v in row if v is not None]
                    conn.execute(f"DELETE FROM {table} WHERE {_null_safe(columns, row)}", params)
        return flags

    def load_rows(self, relation: str, rows: Sequence[Row]) -> int:
        """Bulk load without per-row flags: one ``INSERT OR IGNORE``
        ``executemany``, counting applied rows via the connection's change
        counter.  ``None``-bearing rows are deduped in Python instead --
        the unique index treats NULLs as distinct, so OR IGNORE cannot."""
        sql = self._insert(relation, "INSERT OR IGNORE")
        self.check_rows(relation, rows)
        nullish = dict.fromkeys(row for row in rows if None in row)
        with self._batch() as conn:
            before = conn.total_changes
            conn.executemany(sql, [row for row in rows if None not in row] if nullish else rows)
            if nullish:
                present = self._present(relation, nullish)
                conn.executemany(sql, [row for row in nullish if row not in present])
            return conn.total_changes - before

    # -- internals -------------------------------------------------------

    def _require(self, relation: str) -> int:
        arity = self._arity.get(relation)
        if arity is None:
            self._conn  # an unattached store says so, naming its path
            self.schema.relation(relation)  # raises the proper SchemaError
            raise KeyError(relation)  # pragma: no cover - schema raised
        return arity

    def _insert(self, relation: str, verb: str) -> str:
        arity = self._require(relation)  # _seq is the next rowid: past every stored one
        marks = ", ".join("?" * arity)
        return f"{verb} INTO {self._table(relation)} ({_columns(arity)}) VALUES ({marks})"

    def _resolve(self, relation: str, positions: "tuple[int, ...] | None") -> _Read:
        """First sight of a read -- a lookup keyed on ``positions``, or
        (``None``) the whole-row membership probe: validate it, make sure
        its index exists and memoise what every later call needs.  An
        invalid read raises here and never enters the memo."""
        arity = self._require(relation)
        table = self._table(relation)
        key = tuple(range(arity)) if positions is None else positions
        check_positions(relation, arity, key)
        order = ""  # a key naming every column has at most one row
        if len(set(key)) < arity:
            # The covering index: key columns, then _seq so each key's rows
            # come in insertion order, then the rest so the read is
            # index-only.  The ORDER BY is the index's own: nothing sorts.
            lead = [f"c{p}" for p in dict.fromkeys(key)]
            rest = [f"c{i}" for i in range(arity) if i not in key]
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS {self._index_name(relation, key)} "
                f"ON {table} ({', '.join([*lead, '_seq', *rest])})"
            )
            order = f" ORDER BY {', '.join(lead)}, _seq"
        read = _Read(table, arity, key, order)
        self._reads[(relation, positions)] = read
        return read

    def _statements(self, read: _Read, keys: Collection[Row]) -> list[tuple[str, list[object]]]:
        """The ``(sql, parameters)`` round trips resolving the distinct
        ``keys`` through ``read``: one arm per key, chunked -- one statement
        for a batch the executor sends.  A ``None``-bearing key's arm says
        ``IS NULL`` there; a mis-sized key is never bound: it matches nothing."""
        width, limit = len(read.positions), read.limit
        params = [v for key in keys for v in key]
        if len(keys) <= limit and None not in params and {*map(len, keys)} == {width}:
            return [(read.text(len(keys)), params)]
        plain = [key for key in keys if len(key) == width and None not in key]
        nullish = [key for key in keys if len(key) == width and None in key]
        statements = []
        for start in range(0, len(plain), limit):
            chunk = plain[start : start + limit]
            statements.append((read.text(len(chunk)), [v for key in chunk for v in key]))
        for start in range(0, len(nullish), limit):
            chunk = nullish[start : start + limit]
            arms = [f"SELECT * FROM ({read.head}{_null_safe(read.positions, key)}{read.tail})"
                    for key in chunk]
            params = [v for key in chunk for v in key if v is not None]
            statements.append((" UNION ALL ".join(arms), params))
        return statements

    def _effective(
        self, relation: str, rows: Sequence[Row], stored: bool
    ) -> tuple[list[bool], list[Row]]:
        """Which rows of a mutation batch take effect -- the first
        occurrence of each row found ``stored`` (a delete) or not (an
        insert): one flag per input row, and those rows in order."""
        distinct = dict.fromkeys(rows)
        present = self._present(relation, distinct)
        effective = [row for row in distinct if (row in present) is stored]
        pending = dict.fromkeys(effective, True)
        return [pending.pop(row, False) for row in rows], effective

    def _present(self, relation: str, distinct: Collection[Row]) -> set[Row]:
        """The subset of ``distinct`` rows currently stored (one chunked
        probe through the unique all-columns index)."""
        read = self._reads.get((relation, None)) or self._resolve(relation, None)
        conn, statements = self._conn, self._statements(read, distinct)
        return {row for sql, params in statements for row in conn.execute(sql, params)}

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
