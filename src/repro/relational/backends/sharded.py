"""A hash-sharded composite storage backend.

``ShardedBackend`` partitions every relation across ``N`` child backends
by ``hash(shard_key) % N``, where the shard key is the row's projection
onto configurable positions (default: position 0, the paper's
point-lookup column).  A bulk call fans its batch's *distinct* keys out
to the children owning them -- one sub-batch per child, so the
one-round-trip-per-operator property survives composition -- and merges
the results.

Accounting stays exact and **global**: the composite charges each
distinct key of a batch once, however many children it consulted, and
tuples-accessed totals are exact because shards are disjoint (a row
lives on exactly one child).  Each child keeps a private scratch
:class:`~repro.relational.instance.AccessStats`, exposed via
:meth:`shard_stats`, so tests can observe routing balance without the
scratch counters leaking into the database's cumulative stats.

Routing: a lookup whose positions include every shard-key position is
**routed** -- each distinct key goes to exactly one child.  Otherwise it
is **broadcast** to all children and the per-key groups concatenated;
counting is normalized back to once-per-distinct-key, so the delta
rule's dedup semantics are preserved either way.

Routing is **deterministic across processes**: the shard index is
``crc32(repr(canonical_key)) % N`` -- not Python's ``hash()``, whose
string hashes vary with ``PYTHONHASHSEED`` -- with booleans and
integral floats canonicalized to ints first (``True == 1`` and
``1.0 == 1`` in Python, so equal keys must repr identically).  A row's
shard assignment can therefore be persisted and recomputed in another
process.

Caveats: scans and iteration concatenate children in shard order, so
global insertion order is only preserved *within* a shard.  A write is
atomic per child (whatever the child provides), **not across shards**: a
child that raises after its siblings applied their sub-batches leaves
those applied.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.backends.base import Row, StorageBackend, check_positions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.instance import AccessStats
    from repro.relational.schema import DatabaseSchema


def _canon(value: object) -> object:
    """Canonicalize values that compare equal but repr differently:
    ``True == 1`` and ``1.0 == 1``, so equal shard keys must map to the
    same bytes before hashing."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def stable_shard_hash(key: Row) -> int:
    """The process-independent shard hash: CRC-32 of the canonicalized
    key's repr.  Unlike ``hash()``, this survives ``PYTHONHASHSEED``, so
    shard assignments may be persisted and recomputed elsewhere."""
    return zlib.crc32(repr(tuple(map(_canon, key))).encode("utf-8"))


class ShardedBackend(StorageBackend):
    """Hash-partitioned composite over ``shards`` child backends."""

    returns_live_groups = False

    def __init__(
        self,
        shards: int = 4,
        *,
        factory: Callable[[], StorageBackend] | None = None,
        key_positions: Mapping[str, tuple[int, ...]] | None = None,
    ):
        super().__init__()
        if shards < 1:
            raise SchemaError(f"shards must be >= 1, got {shards}")
        if factory is None:
            from repro.relational.backends.memory import MemoryBackend

            factory = MemoryBackend
        self.shards = shards
        self._factory = factory
        self._key_positions = dict(key_positions or {})
        self._children: list[StorageBackend] = []
        self._child_stats: list["AccessStats"] = []

    def attach(self, schema: "DatabaseSchema", stats: "AccessStats") -> None:
        super().attach(schema, stats)
        from repro.relational.instance import AccessStats

        for name, positions in self._key_positions.items():
            rel = schema.relation(name)  # raises for unknown relations
            check_positions(name, rel.arity, positions)
        for name in schema.names:
            self._key_positions.setdefault(name, (0,))
        for _ in range(self.shards):
            child = self._factory()
            scratch = AccessStats()
            child.attach(schema, scratch)
            self._children.append(child)
            self._child_stats.append(scratch)

    def close(self) -> None:
        """Close every child (idempotent, like each child's ``close``)."""
        for child in self._children:
            child.close()

    def shard_stats(self) -> tuple["AccessStats", ...]:
        """Each child's private scratch stats, in shard order -- routing
        balance is visible here, not in the database's cumulative stats."""
        return tuple(self._child_stats)

    # -- routing ---------------------------------------------------------

    def _scatter(self, rows: Iterable[Row], positions: tuple[int, ...]) -> list[list[Row]]:
        """``rows`` partitioned by the shard owning each one's projection
        onto ``positions``, input order kept within a shard.  Equal
        projections recur within a batch (a source's edges); each is
        hashed once."""
        per_child: list[list[Row]] = [[] for _ in range(self.shards)]
        shard_of: dict[Row, int] = {}
        for row in rows:
            key = tuple([row[p] for p in positions])
            shard = shard_of.get(key)
            if shard is None:
                shard = shard_of[key] = stable_shard_hash(key) % self.shards
            per_child[shard].append(row)
        return per_child

    def _ask(self, relation: str, rows: Sequence[Row], method: str) -> dict[Row, bool]:
        """``method``'s per-row answer for each *distinct* row, from the
        child owning it (one sub-batch per child, input order kept)."""
        answers: dict[Row, bool] = {}
        shares = self._scatter(dict.fromkeys(rows), self._key_positions[relation])
        for child, sub in zip(self._children, shares):
            if sub:
                answers.update(zip(sub, getattr(child, method)(relation, sub)))
        return answers

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
        rel = self.schema.relation(relation)
        check_positions(relation, rel.arity, positions)
        kp = self._key_positions[relation]
        distinct = list(dict.fromkeys(keys))
        merged: dict[Row, tuple[Row, ...]] = {}
        if set(kp) <= set(positions):
            # Routed: project each key onto the shard-key positions and
            # send it to exactly the child that owns its rows.
            idx = tuple(positions.index(p) for p in kp)
            for child, sub in zip(self._children, self._scatter(distinct, idx)):
                if not sub:
                    continue
                groups = child.lookup_keys(relation, positions, sub)
                for key, group in zip(sub, groups):
                    merged[key] = tuple(group)
        else:
            # Broadcast: every child may hold matches; shards are
            # disjoint, so concatenation is exact and dedup-free.
            partials: dict[Row, list[Row]] = {key: [] for key in distinct}
            for child in self._children:
                groups = child.lookup_keys(relation, positions, distinct)
                for key, group in zip(distinct, groups):
                    partials[key].extend(group)
            merged = {key: tuple(group) for key, group in partials.items()}
        tuples = sum(len(group) for group in merged.values())
        self._charge(stats, tuples=tuples, lookups=len(distinct))
        return [merged[key] for key in keys]

    def contains_rows(
        self,
        relation: str,
        rows: Sequence[Row],
        stats: "AccessStats | None" = None,
    ) -> tuple[bool, ...]:
        self.schema.relation(relation)
        verdict = self._ask(relation, rows, "contains_rows")
        self._charge(stats, tuples=sum(verdict.values()), lookups=len(verdict))
        return tuple(verdict[row] for row in rows)

    def scan(self, relation: str, stats: "AccessStats | None" = None) -> tuple[Row, ...]:
        self.schema.relation(relation)
        rows: list[Row] = []
        for child in self._children:
            rows.extend(child.iter_rows(relation))
        self._charge(stats, tuples=len(rows), scans=1)
        return tuple(rows)

    # -- unaccounted primitives ------------------------------------------

    def probe_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        verdict = self._ask(relation, rows, "probe_rows")
        return [verdict[row] for row in rows]

    def count(self, relation: str) -> int:
        return sum(child.count(relation) for child in self._children)

    def iter_rows(self, relation: str) -> Iterator[Row]:
        for child in self._children:
            yield from child.iter_rows(relation)

    # -- mutations -------------------------------------------------------

    # A child sees each distinct row once; the first occurrence in the
    # batch takes its flag, a repeat is ineffective by definition.

    def check_rows(self, relation: str, rows: Sequence[Row]) -> None:
        """Every child vets the whole batch before any applies its share."""
        for child in self._children:
            child.check_rows(relation, rows)

    def insert_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        self.check_rows(relation, rows)
        flags = self._ask(relation, rows, "insert_rows")
        return [flags.pop(row, False) for row in rows]

    def delete_rows(self, relation: str, rows: Sequence[Row]) -> list[bool]:
        self.check_rows(relation, rows)
        flags = self._ask(relation, rows, "delete_rows")
        return [flags.pop(row, False) for row in rows]

    def load_rows(self, relation: str, rows: Sequence[Row]) -> int:
        """Scatter the chunk and bulk-load each child's share: no per-row
        flags to gather, and each child takes its own fast path."""
        self.check_rows(relation, rows)
        shares = zip(self._children, self._scatter(rows, self._key_positions[relation]))
        return sum(child.load_rows(relation, sub) for child, sub in shares if sub)

    def __repr__(self) -> str:
        return f"ShardedBackend(shards={self.shards})"


__all__ = ["ShardedBackend", "stable_shard_hash"]
