"""Database instances: a logging, validating facade over a storage backend.

A :class:`Database` owns the schema, the access accounting and the
mutation log; the tuples themselves live in a pluggable
:class:`~repro.relational.backends.base.StorageBackend` chosen at
construction (``Database(schema, backend=...)``) -- the in-memory
dict-index :class:`~repro.relational.backends.memory.MemoryBackend` by
default, or an out-of-core
:class:`~repro.relational.backends.sqlite.SqliteBackend`.  The backend's
bulk methods (``lookup_keys``, ``contains_rows``, ``scan``) are bound
directly onto the instance, so the executor's compiled closures dispatch
straight into the backend with no facade frame in between -- swapping
backends never recompiles a plan.

Every read goes through the backend's charged bulk reads --
``lookup_keys``, ``contains_rows``, ``scan`` -- or the single-pattern
conveniences over them (:meth:`Database.lookup`,
:meth:`Database.contains`) and is recorded in :class:`AccessStats` --
the empirical measuring stick for scale independence: a plan is scale
independent precisely when the number of tuples it accesses is bounded
regardless of the database size.  One bulk call serves a whole batch of
the executor's keys (:mod:`repro.core.executor`), resolving -- and
accounting -- each *distinct* key exactly once.

Accounting is two-level.  :attr:`Database.stats` is the cumulative,
engine-wide view: every read charges it, forever.  Each read method also
accepts an optional ``stats`` argument -- an extra :class:`AccessStats`
charged *in addition* -- which is how the executor's per-execution
:class:`~repro.core.executor.ExecutionContext` isolates one execution's
delta from concurrent traffic: the per-execution object is confined to
its execution, so its counters are exact even when many executions share
the database.  (The shared cumulative counters use plain unlocked
increments; under heavy cross-thread traffic they are approximate.)

Mutations go through :meth:`Database.insert_many` and
:meth:`Database.delete_many` (with :meth:`add` / :meth:`delete` as
single-tuple conveniences).  The facade validates and interns every row,
hands the batch to the backend, and logs its *effective* changes (an
insert of a genuinely new tuple, a delete of a genuinely present one) in
one :meth:`ChangeLog.extend` of the database's monotonic log -- the substrate of
incremental scale independence (:mod:`repro.incremental`, Section 5 of
the paper): a refresh replays only the log suffix past its watermark,
handed out as one shared :class:`LogSlice` per span.  The log is bounded
by *pinned compaction*: consumers that hold a watermark pin it, and
writes drop what lies below the oldest pin (see :class:`ChangeLog` for
what an un-pinned watermark may rely on).
:meth:`Database.bulk_load` is the one escape hatch: an *unlogged*
streaming load for populating an empty database at out-of-core scale,
permitted only on a pristine log -- nothing ever logged, nobody pinning
it -- so no watermark can be bypassed.  Mutations are single-writer:
interleaving them with concurrent executions is undefined.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence
from weakref import WeakSet

from repro.errors import CompactedError, UpdateError
from repro.logic.terms import Constant
from repro.relational.backends.base import StorageBackend, key_getter
from repro.relational.backends.memory import MemoryBackend
from repro.relational.interning import intern_row
from repro.relational.schema import DatabaseSchema

Row = tuple[object, ...]

#: The signed net effect of a log slice, per relation: ``+1`` for a tuple
#: inserted since the watermark, ``-1`` for one deleted since it (tuples
#: whose changes cancel out are dropped).
NetDelta = dict[str, dict[Row, int]]

#: Rows per backend call on the :meth:`Database.bulk_load` streaming path.
_LOAD_CHUNK = 50_000


@dataclass(slots=True)
class AccessStats:
    """Counters for tuple accesses performed against a database."""

    tuples_accessed: int = 0
    indexed_lookups: int = 0
    full_scans: int = 0

    def reset(self) -> None:
        self.tuples_accessed = 0
        self.indexed_lookups = 0
        self.full_scans = 0

    def snapshot(self) -> "AccessStats":
        return AccessStats(self.tuples_accessed, self.indexed_lookups, self.full_scans)

    def since(self, earlier: "AccessStats") -> "AccessStats":
        """The accesses performed between ``earlier`` and now."""
        return AccessStats(
            self.tuples_accessed - earlier.tuples_accessed,
            self.indexed_lookups - earlier.indexed_lookups,
            self.full_scans - earlier.full_scans,
        )


@dataclass(frozen=True, slots=True)
class ChangeEntry:
    """One effective mutation: transaction id, ``"+"``/``"-"``, relation,
    tuple -- built on request from the log's ``(op, relation, row)``."""

    tid: int
    op: str  # "+" (insert) or "-" (delete)
    relation: str
    row: Row

    def __str__(self) -> str:
        return f"[{self.tid}] {self.op}{self.relation}{self.row!r}"


class LogSlice:
    """The net effect of one span ``[start, stop)`` of a change log, with
    everything the delta pipeline derives from it memoised on the one
    object: :attr:`net` (signed rows per changed relation -- cancelled
    tuples and unchanged relations are omitted), :attr:`sizes` (net rows
    per relation, what :func:`~repro.core.executor.delta_fanout_bound`
    is charged against), the lazily built per-position hash indexes the
    delta and old faces join against, and :attr:`staged` -- what each
    :class:`~repro.core.executor.DeltaProgram` resolved against this
    slice (the program builds and reads it; the slice owns its lifetime).
    A span names one immutable stretch of an append-only log, so every
    consumer refreshing over it shares one slice
    (:meth:`ChangeLog.slice_since`), memos included."""

    __slots__ = ("start", "stop", "net", "sizes", "_index", "staged", "__weakref__")

    def __init__(self, net: NetDelta, start: int = 0, stop: int = 0):
        self.start = start
        self.stop = stop
        self.net = net
        self.sizes = {relation: len(rows) for relation, rows in net.items()}
        self._index: dict[tuple, dict[Row, list[tuple[Row, int]]]] = {}
        self.staged: dict[object, tuple] = {}

    def __repr__(self) -> str:
        return f"LogSlice([{self.start}, {self.stop}), {sum(self.sizes.values())} rows)"

    def index(
        self, relation: str, positions: tuple[int, ...]
    ) -> dict[Row, list[tuple[Row, int]]]:
        """The net changes of ``relation`` hash-indexed on ``positions``
        -- the in-memory twin of the database's per-position indexes, so
        a delta join (and the old-state rewind) costs O(batch + slice)
        instead of their product."""
        key = (relation, positions)
        index = self._index.get(key)
        if index is None:
            key_of, index = key_getter(positions), {}
            for entry in self.net.get(relation, {}).items():
                index.setdefault(key_of(entry[0]), []).append(entry)
            self._index[key] = index
        return index


class Mark:
    """A consumer's dirty bit in a :class:`ChangeLog`'s footprint registry,
    and the ``footprint`` it is registered under (:meth:`ChangeLog.watch`)."""

    __slots__ = ("marked", "footprint")

    def __init__(self) -> None:
        self.marked, self.footprint = False, set()


#: How many memoized slices a ChangeLog retains; one per *live* watermark
#: is enough, so this bounds memory while letting many refresh cadences
#: coexist.
SLICE_CACHE_SIZE = 8

#: The compaction trigger: :meth:`ChangeLog.extend` looks at the pins once
#: per this many logged entries (a longer batch is logged in pieces this
#: long, so it never holds more), and drops the dead prefix when it is
#: longer than this *and* longer than the live suffix (so the copy a
#: truncation costs is always paid for by the entries it frees).
COMPACT_MIN_DEAD = 1024


class ChangeLog:
    """A monotonic, append-only log of effective database mutations,
    bounded by *pinned compaction*.

    Transaction ids are dense, 0-based and absolute for the life of the
    log, so the :attr:`watermark` -- the id the *next* entry will get --
    doubles as a position: the slice past ``w`` is exactly the changes a
    reader holding watermark ``w`` has not yet seen.

    The log forgets what no reader can ask for again.  A consumer that
    holds a watermark across mutations -- an
    :class:`~repro.incremental.IncrementalResult`, a
    :class:`~repro.views.ViewState` -- registers with :meth:`pin` (weakly:
    dropping the consumer releases the pin).  :meth:`extend`, and nothing
    else, occasionally truncates every entry below the oldest live pin
    (all of them when nobody pins), raising :attr:`floor`.  So:

    * a pinned consumer can always slice from its own watermark;
    * a raw watermark held *without* a pin stays sliceable only while it
      is at or above the floor -- it survives any number of reads and pin
      movements (nothing but ``extend`` compacts), and may be gone after
      any write;
    * slicing or indexing below the floor raises
      :class:`~repro.errors.CompactedError` -- never a wrong answer.

    A *footprint registry* (relation -> key positions -> key -> the
    :class:`Mark` cells :meth:`watch` put there; positions ``()`` watch a
    whole relation) lets :meth:`extend` mark each consumer a logged row
    can concern, so one whose mark is clear need not read the log.  It holds
    marks, never consumers: one that goes away leaves it through a
    ``weakref.finalize``, as it releases its pin.  Such a consumer finds
    its span in :attr:`latest` -- the slice :meth:`slice_since` handed
    out last, ``None`` once a write ended it -- with one attribute load.
    """

    __slots__ = ("_entries", "_base", "_pins", "_check_at", "_slices", "_watched", "latest")

    def __init__(self) -> None:
        self._entries: list[tuple[str, str, Row]] = []  # (op, relation, row)
        self._base = 0  # the tid of _entries[0]: everything below is gone
        self._pins: WeakSet = WeakSet()
        self._watched: dict[str, dict[tuple[int, ...], dict[Row, set[Mark]]]] = {}
        self._check_at = COMPACT_MIN_DEAD  # retained length that triggers a look
        # Memoized slices of the spans ending now, keyed by their start:
        # many incremental results refreshing off one log hit the identical
        # span.  Least-recently-used eviction past SLICE_CACHE_SIZE -- a
        # reader's hot slice survives however many cold watermarks other
        # readers probe in between.
        self._slices: OrderedDict[int, LogSlice] = OrderedDict()
        self.latest: LogSlice | None = None  # the span handed out last, until a write

    @property
    def watermark(self) -> int:
        """The id the next appended entry will receive."""
        return self._base + len(self._entries)

    @property
    def floor(self) -> int:
        """The oldest tid still retained: the lowest sliceable watermark."""
        return self._base

    def pin(self, consumer) -> None:
        """Hold the log at ``consumer.watermark``: no entry at or above it
        is dropped while ``consumer`` is alive (the reference is weak)."""
        self._pins.add(consumer)

    def watch(self, mark: Mark, footprint) -> None:
        """Register ``mark`` under exactly ``footprint``'s ``(relation,
        positions, key)`` triples: a logged row of ``relation`` holding
        ``key`` at ``positions`` sets it.  Only the difference to its last
        footprint moves; an empty one unregisters it."""
        footprint = set(footprint)
        watched = self._watched
        for relation, positions, key in footprint - mark.footprint:
            by_positions = watched.setdefault(relation, {})
            by_positions.setdefault(positions, {}).setdefault(key, set()).add(mark)
        for relation, positions, key in mark.footprint - footprint:
            keys = watched[relation][positions]
            keys[key].discard(mark)
            if not keys[key]:
                del keys[key]
        mark.footprint = footprint

    def extend(self, op: str, relation: str, rows: Sequence[Row]) -> None:
        """Log ``rows`` -- one batch's effective changes of ``relation``, in
        order -- and mark every consumer one of them concerns."""
        if op not in ("+", "-"):
            raise ValueError(f"change op must be '+' or '-', got {op!r}")
        self._slices.clear()  # every memoised span ends at the old watermark
        self.latest = None
        watched = self._watched.get(relation)
        if watched:
            for positions, keys in watched.items():
                for key in map(key_getter(positions), rows):
                    for mark in keys.get(key, ()):
                        mark.marked = True
        entries = self._entries
        for start in range(0, len(rows), COMPACT_MIN_DEAD):
            entries += [(op, relation, row) for row in rows[start : start + COMPACT_MIN_DEAD]]
            if len(entries) > self._check_at:  # compact, if the dead prefix is worth the copy
                floor = min([self.watermark, *(pin.watermark for pin in self._pins)])
                dead = floor - self._base
                if dead > COMPACT_MIN_DEAD and dead > len(entries) - dead:
                    del entries[:dead]
                    self._base = floor
                self._check_at = len(entries) + COMPACT_MIN_DEAD

    def __len__(self) -> int:
        """The number of *retained* entries (``watermark - floor``)."""
        return len(self._entries)

    def __iter__(self) -> Iterator[ChangeEntry]:
        """The retained entries, in log order."""
        return iter(self.entries_since(self._base))

    def __getitem__(self, tid: int) -> ChangeEntry:
        """The entry with transaction id ``tid`` (negative: counted back
        from the watermark)."""
        watermark = self.watermark
        if tid < 0:
            tid += watermark
        if not 0 <= tid < watermark:
            raise IndexError(f"no entry {tid}: the watermark is {watermark}")
        return ChangeEntry(tid, *self._entries[self._offset(tid)])

    def __repr__(self) -> str:
        floor = f" from tid {self._base}" if self._base else ""
        return f"ChangeLog({len(self._entries)} entries{floor})"

    def _offset(self, watermark: int) -> int:
        """``watermark`` as a position in the retained entries."""
        if not 0 <= watermark <= self.watermark:
            raise ValueError(
                f"watermark must be within [0, {self.watermark}] (the log's own), got {watermark}"
            )
        if watermark < self._base:
            raise CompactedError(
                f"the change log was compacted up to tid {self._base}; entries "
                f"from {watermark} are gone -- hold a pin (ChangeLog.pin) to "
                f"keep a watermark sliceable across writes"
            )
        return watermark - self._base

    def entries_since(self, watermark: int) -> tuple[ChangeEntry, ...]:
        """Every entry with ``tid >= watermark``, in log order."""
        records = self._entries[self._offset(watermark) :]
        return tuple(ChangeEntry(tid, *record) for tid, record in enumerate(records, watermark))

    def slice_since(self, watermark: int) -> LogSlice:
        """The (memoised, shared) :class:`LogSlice` of the span from
        ``watermark`` to now: one probe, since every memoised span ends
        now (:meth:`extend` forgets them all), kept as :attr:`latest`."""
        slices = self._slices
        found = slices.get(watermark)
        if found is not None:
            slices.move_to_end(watermark)
            self.latest = found
            return found
        net: NetDelta = {}
        for op, relation, row in self._entries[self._offset(watermark) :]:
            rows = net.setdefault(relation, {})
            sign = rows.get(row, 0) + (1 if op == "+" else -1)
            if sign:
                rows[row] = sign
            else:
                del rows[row]
        found = self.latest = slices[watermark] = LogSlice(
            {r: rows for r, rows in net.items() if rows}, watermark, self._base + len(self._entries)
        )
        if len(slices) > SLICE_CACHE_SIZE:
            slices.popitem(last=False)
        return found

    def net_since(self, watermark: int) -> NetDelta:
        """The net signed delta of the slice past ``watermark``.

        With set semantics every tuple nets to ``+1`` (absent then,
        present now), ``-1`` (present then, absent now) or cancels out
        entirely; cancelled tuples and unchanged relations are omitted,
        so an empty mapping means "nothing effectively changed".
        """
        return self.slice_since(watermark).net


def _plain(value: object) -> object:
    """Unwrap a :class:`Constant` into its underlying value."""
    return value.value if isinstance(value, Constant) else value


class Database:
    """A database instance over a :class:`DatabaseSchema`.

    Tuples are stored with set semantics but preserve insertion order.
    Values must be hashable.  Storage and index maintenance live in the
    backend; the facade validates rows, unwraps :class:`Constant`, interns
    strings, accounts accesses and records every effective mutation in
    :attr:`change_log`.

    The backend's charged bulk reads are bound straight onto the
    instance, so ``db.lookup_keys`` / ``db.contains_rows`` / ``db.scan``
    *are* the backend's methods -- the executor's hot path pays no
    facade indirection.
    """

    # The last three: backend methods bound per instance -- see the class docstring.
    __slots__ = ("schema", "stats", "change_log", "_backend", "lookup_keys", "contains_rows", "scan")

    def __init__(
        self,
        schema: DatabaseSchema,
        data: Mapping[str, Iterable[Sequence[object]]] | None = None,
        *,
        backend: StorageBackend | None = None,
    ):
        self.schema = schema
        self.stats = AccessStats()
        self.change_log = ChangeLog()
        if backend is None:
            backend = MemoryBackend()
        backend.attach(schema, self.stats)
        self._backend = backend
        self.lookup_keys = backend.lookup_keys
        self.contains_rows = backend.contains_rows
        self.scan = backend.scan
        if data:
            for name, rows in data.items():
                self.insert_many(name, rows)

    @property
    def backend(self) -> StorageBackend:
        """The storage backend this database was constructed over."""
        return self._backend

    # -- updates ---------------------------------------------------------

    def add(self, relation: str, row: Sequence[object]) -> bool:
        """Insert ``row`` into ``relation`` (validated against the schema).

        Returns True if the tuple was new, False if it was already present.
        """
        return self.insert_many(relation, (row,)) == 1

    def delete(self, relation: str, row: Sequence[object]) -> bool:
        """Delete ``row`` from ``relation``; True if it was present."""
        return self.delete_many(relation, (row,)) == 1

    def insert_many(
        self, relation: str, rows: Iterable[Sequence[object]], *, strict: bool = False
    ) -> int:
        """Insert ``rows`` into ``relation``, logging each effective insert.

        Already-present tuples are skipped (set semantics) -- unless
        ``strict``, in which case they raise :class:`UpdateError`, the
        paper's Section 5 well-formedness condition that insertions be
        disjoint from the database.  Returns the number of tuples
        actually inserted.

        Row-at-a-time semantics are preserved across the batched backend
        call: if validation (wrong arity, an unhashable value) or a
        strict check fails at row *k*, rows ``0..k-1`` have been applied
        and logged.  If the backend itself raises it has applied nothing
        (its write contract) and nothing is logged, so store and log
        always agree.
        """
        return self._mutate("+", relation, rows, strict)

    def delete_many(
        self, relation: str, rows: Iterable[Sequence[object]], *, strict: bool = False
    ) -> int:
        """Delete ``rows`` from ``relation``, logging each effective delete.

        Absent tuples are skipped -- unless ``strict``, in which case they
        raise :class:`UpdateError`, the Section 5 well-formedness
        condition that deletions be contained in the database.  Returns
        the number of tuples actually deleted.  Row-at-a-time semantics
        are preserved exactly as in :meth:`insert_many`.
        """
        return self._mutate("-", relation, rows, strict)

    def bulk_load(self, relation: str, rows: Iterable[Sequence[object]]) -> int:
        """Stream ``rows`` into ``relation`` *without* logging -- the
        out-of-core population fast path.

        Rows are validated and interned like any insert, but applied in
        backend chunks and never recorded in :attr:`change_log`, so a
        million-row load does not pin a million tuples in the Python
        heap.  Only permitted on a *pristine* log -- watermark 0 and no
        consumer pinning it: past a logged mutation (compacted away since
        or not), or under a maintained result or view (materialized at
        watermark 0, it would stay there), an unlogged load slips past a
        watermark, so it raises :class:`UpdateError`.  Returns the number
        of tuples actually inserted (set semantics).  A row that fails
        validation (wrong arity, an unhashable value) raises with the full
        chunks before it loaded and its own chunk not.
        """
        validate = self.schema.relation(relation).validate_tuple
        log = self.change_log
        if log.watermark or log._pins:
            raise UpdateError(
                f"bulk_load into {relation!r}: the change log has recorded "
                f"{log.watermark} mutation(s) and {len(log._pins)} maintained result(s) "
                f"or view(s) hold it; unlogged loads are only sound on a pristine "
                f"database -- use insert_many for logged mutations"
            )
        prepared = (intern_row(validate(tuple(map(_plain, row)))) for row in rows)
        applied = 0
        while chunk := list(islice(prepared, _LOAD_CHUNK)):
            applied += self._backend.load_rows(relation, chunk)
        return applied

    def _mutate(
        self, op: str, relation: str, rows: Iterable[Sequence[object]], strict: bool
    ) -> int:
        """One logged batch of inserts (``"+"``) or deletes (``"-"``)."""
        prepared = self._prepare(op, relation, rows)
        if strict:
            inserting = op == "+"
            probed = self._backend.probe_rows(relation, prepared)
            seen: set[Row] = set()
            for i, (row, present) in enumerate(zip(prepared, probed)):
                if present == inserting or row in seen:
                    self._apply(op, relation, prepared[:i])
                    raise UpdateError(
                        f"insert of {row!r} into {relation!r}: tuple is already present"
                        if inserting
                        else f"delete of {row!r} from {relation!r}: tuple is not present"
                    )
                seen.add(row)
        return self._apply(op, relation, prepared)

    def _prepare(self, op: str, relation: str, rows: Iterable[Sequence[object]]) -> list[Row]:
        """Validate, unwrap and intern a mutation batch.  If a row fails
        validation, the valid prefix is applied and logged before the
        error propagates -- the historical row-at-a-time behaviour."""
        rel = self.schema.relation(relation)
        validate = rel.validate_tuple
        prepared: list[Row] = []
        try:
            for row in rows:
                row = tuple(row)
                if Constant in map(type, row):
                    row = tuple(map(_plain, row))
                prepared.append(intern_row(validate(row)))
        except BaseException:
            self._apply(op, relation, prepared)
            raise
        return prepared

    def _apply(self, op: str, relation: str, prepared: Sequence[Row]) -> int:
        """Apply a prepared batch through the backend and log each
        effective change, preserving input order."""
        if not prepared:
            return 0
        backend = self._backend
        write = backend.insert_rows if op == "+" else backend.delete_rows
        changed = [row for row, flag in zip(prepared, write(relation, prepared)) if flag]
        self.change_log.extend(op, relation, changed)
        return len(changed)

    # -- reads (accounted) -----------------------------------------------
    #
    # ``lookup_keys``, ``contains_rows`` and ``scan`` are the backend's
    # own bound methods (see __init__); the signatures and accounting
    # contract are documented on StorageBackend.  The single-pattern
    # conveniences below normalize into those three.

    def lookup(
        self,
        relation: str,
        pattern: Mapping[int, object],
        stats: AccessStats | None = None,
    ) -> tuple[Row, ...]:
        """All tuples of ``relation`` matching ``pattern`` (a mapping from
        0-based positions to required values).

        An empty pattern degenerates to a full scan; otherwise the lookup
        goes through the backend's index on the pattern's positions.
        Accessed tuples are counted in :attr:`stats` (and in ``stats``,
        when given -- the per-execution accounting hook).
        """
        if not pattern:
            return self.scan(relation, stats)
        positions = tuple(sorted(pattern))
        key = tuple(_plain(pattern[p]) for p in positions)
        groups = self.lookup_keys(relation, positions, (key,), stats)
        return tuple(groups[0])

    def contains(
        self,
        relation: str,
        row: Sequence[object],
        stats: AccessStats | None = None,
    ) -> bool:
        """Membership probe via the backend's full-row index (accesses at
        most one tuple)."""
        rel = self.schema.relation(relation)
        row = rel.validate_tuple(tuple(_plain(v) for v in row))
        return self.contains_rows(relation, (row,), stats)[0]

    # -- unaccounted metadata --------------------------------------------

    def size(self, relation: str | None = None) -> int:
        """The number of tuples in ``relation``, or in the whole database."""
        if relation is None:
            return sum(self._backend.count(name) for name in self.schema.names)
        self.schema.relation(relation)
        return self._backend.count(relation)

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}: {self._backend.count(name)}" for name in self.schema.names
        )
        return f"Database({{{sizes}}})"
