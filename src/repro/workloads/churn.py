"""Seeded churn streams over the social-network workload.

Incremental scale independence (:mod:`repro.incremental`) is only worth
measuring against realistic *change* traffic.  :func:`generate_churn`
derives a deterministic stream of :class:`ChurnBatch` objects -- mixed
inserts and deletes over the ``friend`` and ``visits`` edge relations --
from a generated instance, with two invariants the rest of the system
depends on:

* **the degree caps stay honored**: an insert is only generated for a
  source whose current out-degree is below the relation's cap, so the
  access schema of :func:`~repro.workloads.social.social_access_text`
  remains truthful after every batch (deletes free capacity that later
  inserts may reuse);
* **batches apply cleanly in bulk**: within one batch no tuple is both
  inserted and deleted, so ``deletes-then-inserts`` (what
  :meth:`ChurnBatch.apply` does) reproduces the sequential stream
  exactly, and every operation is *effective* -- deletes hit present
  tuples, inserts hit absent ones -- even under ``strict`` Section 5
  well-formedness.

Everything is driven by one :class:`random.Random` seed: the same
``(data, seed, ...)`` arguments always produce the identical stream,
which is what makes the differential refresh tests and the repository
benchmark's refresh-vs-recompute measurements reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.workloads.social import DEFAULT_MAX_FRIENDS, DEFAULT_MAX_VISITS

Row = tuple[object, ...]

#: The relations churn applies to (edges only: mutating ``person`` would
#: change the key population, which the running queries parameterize over).
CHURN_RELATIONS = ("friend", "visits")


@dataclass(frozen=True)
class ChurnBatch:
    """One batch of effective mutations: ``{relation: rows}`` to delete
    and to insert, disjoint within the batch."""

    deletes: Mapping[str, tuple[Row, ...]]
    inserts: Mapping[str, tuple[Row, ...]]

    @property
    def size(self) -> int:
        """The number of mutations in the batch."""
        return sum(len(rows) for rows in self.deletes.values()) + sum(
            len(rows) for rows in self.inserts.values()
        )

    def apply(self, db, *, strict: bool = False) -> tuple[int, int]:
        """Apply the batch to ``db`` (deletes first, then inserts) through
        the logged mutation API; returns ``(deleted, inserted)`` counts.
        The generator guarantees every operation is effective, so
        ``strict=True`` (Section 5 well-formedness) also passes."""
        deleted = sum(
            db.delete_many(relation, rows, strict=strict)
            for relation, rows in self.deletes.items()
        )
        inserted = sum(
            db.insert_many(relation, rows, strict=strict)
            for relation, rows in self.inserts.items()
        )
        return deleted, inserted

    def __str__(self) -> str:
        parts = [f"-{len(rows)} {rel}" for rel, rows in self.deletes.items()]
        parts += [f"+{len(rows)} {rel}" for rel, rows in self.inserts.items()]
        return "churn(" + ", ".join(parts) + ")"


def generate_churn(
    data: Mapping[str, Sequence[Row]],
    *,
    batches: int,
    batch_size: int,
    seed: int = 0,
    max_friends: int = DEFAULT_MAX_FRIENDS,
    max_visits: int = DEFAULT_MAX_VISITS,
    delete_fraction: float = 0.5,
) -> tuple[ChurnBatch, ...]:
    """A deterministic stream of ``batches`` churn batches of
    ``batch_size`` mutations each, to be applied *in order* to a database
    loaded from ``data`` (a ``{relation: rows}`` instance, e.g. from
    :func:`~repro.workloads.social.generate_social_network`).

    Each mutation is a delete of a present edge with probability
    ``delete_fraction`` (else an insert of an absent one), over the
    ``friend`` and ``visits`` relations, tracking the evolving state so
    the per-source degree caps ``max_friends`` / ``max_visits`` hold
    after -- and at every point during -- every batch.
    ``delete_fraction=1.0`` gives a delete-only stream,
    ``delete_fraction=0.0`` insert-only (until capacity runs out, at
    which point deletes fill in, and vice versa).
    """
    if batches < 0 or batch_size < 1:
        raise ValueError(
            f"need batches >= 0 and batch_size >= 1, got {batches}, {batch_size}"
        )
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(f"delete_fraction must be in [0, 1], got {delete_fraction}")
    rng = random.Random(seed * 912367 + 41)
    persons = [row[0] for row in data["person"]]
    if not persons:
        raise ValueError("churn needs at least one person")
    caps = {"friend": max_friends, "visits": max_visits}
    # The page pool mirrors generate_social_network's, so inserted visits
    # look like generated ones.
    pages = max(8, len(persons) // 2)

    # Evolving state per relation: the live edge list (for O(1) seeded
    # sampling), its membership set, and per-source out-degrees.
    edges: dict[str, list[Row]] = {}
    present: dict[str, set[Row]] = {}
    degree: dict[str, dict[object, int]] = {}
    for relation in CHURN_RELATIONS:
        rows = [tuple(row) for row in data.get(relation, ())]
        edges[relation] = rows
        present[relation] = set(rows)
        by_source: dict[object, int] = {}
        for row in rows:
            by_source[row[0]] = by_source.get(row[0], 0) + 1
        degree[relation] = by_source

    def pick_insert(relation: str, gone: set[Row]) -> Row | None:
        cap = caps[relation]
        for _ in range(64):
            source = persons[rng.randrange(len(persons))]
            if degree[relation].get(source, 0) >= cap:
                continue
            if relation == "friend":
                target = persons[rng.randrange(len(persons))]
                if target == source:
                    continue
                row: Row = (source, target)
            else:
                row = (source, f"url{rng.randrange(pages)}")
            # Never reinsert a tuple deleted earlier in the same batch:
            # deletes and inserts stay disjoint, so a batch is usable as
            # a set-difference delta, not just an operation stream.
            if row not in present[relation] and row not in gone:
                return row
        return None

    def pick_delete(relation: str, fresh: set[Row]) -> int | None:  # a position in the edge list
        rows = edges[relation]
        for _ in range(64):
            if not rows:
                return None
            at = rng.randrange(len(rows))
            # Never delete a tuple inserted earlier in the same batch:
            # that keeps deletes-then-inserts equivalent to the
            # sequential stream.
            if rows[at] not in fresh:
                return at
        return None

    stream: list[ChurnBatch] = []
    for _ in range(batches):
        deletes: dict[str, list[Row]] = {}
        inserts: dict[str, list[Row]] = {}
        fresh: set[Row] = set()
        gone: set[Row] = set()
        for _ in range(batch_size):
            relation = CHURN_RELATIONS[rng.randrange(len(CHURN_RELATIONS))]
            at = pick_delete(relation, fresh) if rng.random() < delete_fraction else None
            row = pick_insert(relation, gone) if at is None else None
            if at is None and row is None:
                at = pick_delete(relation, fresh)
                if at is None:
                    continue  # relation both empty and at capacity: skip
            if at is not None:  # edges hold no duplicate: this is remove(row)
                row = edges[relation].pop(at)
                present[relation].remove(row)
                degree[relation][row[0]] -= 1
                gone.add(row)
                deletes.setdefault(relation, []).append(row)
            else:
                edges[relation].append(row)
                present[relation].add(row)
                degree[relation][row[0]] = degree[relation].get(row[0], 0) + 1
                fresh.add(row)
                inserts.setdefault(relation, []).append(row)
        stream.append(
            ChurnBatch(
                deletes={rel: tuple(rows) for rel, rows in deletes.items()},
                inserts={rel: tuple(rows) for rel, rows in inserts.items()},
            )
        )
    return tuple(stream)
