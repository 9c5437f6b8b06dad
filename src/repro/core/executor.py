"""Columnar batch-at-a-time physical execution of scale-independent plans.

:mod:`repro.core.plans` is the *planner*: :func:`~repro.core.plans.compile_plan`
turns a controlled conjunctive query into an ordered sequence of
fetch/probe steps plus a head projection.  This module is the *executor*,
and it has exactly one way to run a plan: **one lowering, three faces,
one read source**.

**One lowering.**  :func:`build_pipeline` turns the steps into operator
*descriptions* -- :class:`FilterOp`, :class:`FetchOp`, :class:`ProbeOp`,
:class:`ProjectDedupOp`: plain data (which positions key the lookup,
which are residual checks, which bind new variables) with no behaviour of
their own -- and lowers each description once into *slot closures*.  The
batch schema at every pipeline position is static, so all variable
hashing happens here: a closure works on a bare ``(columns, n)`` pair,
``columns`` being one Python list per variable slot of the plan's
:class:`~repro.core.columnar.SlotTable` (``None`` for unbound or dead
slots) plus one trailing *sign* slot.  Constants are interned at lowering
time (:mod:`repro.relational.interning`), a backward liveness pass drops
columns no later operator reads, and a trailing fetch-then-project pair
fuses into one terminal closure that emits head rows straight from the
fetched row groups.

**Three faces.**  Every data operator has the same three faces, generated
from the same key-builder, check and bind specs:

* *new* -- read the current state (what :func:`execute_plan` runs);
* *old* -- the very same closure, handed the pre-delta snapshot of its
  source (:class:`OldState`: live answers rewound in memory by the change
  slice);
* *delta* -- join the in-memory change slice of the operator's relation
  instead of stored data (zero tuples accessed), multiplying each slice
  row's sign into the batch.

Derivation signs ride as one more gathered column (the sign slot), so the
new and old faces carry them for free.  A plan's :class:`DeltaProgram`
(:func:`delta_program`: built once, beside the signed lowering) composes
the faces into the standard delta rule of incremental scale independence
(:mod:`repro.incremental`, Section 5) -- per changed level ``i``: levels
``< i`` on the new state, level ``i`` against the change slice, levels
``> i`` on the old state -- staged by what the slice and the seed each
decide; its docstring has the rule, the stages and what a maintained
result holds.  :func:`execute_plan_counting` is the matching initial pass
(derivation multiplicities: what makes signed deltas composable under
deletion).  The signed faces are lowered on first counting/delta use;
:func:`profile_plan` times those same closures -- a profile *is* the run.

**One read source.**  A closure reads through exactly two charged calls,
the :class:`~repro.relational.backends.base.StorageBackend` pair
``lookup_keys(relation, positions, keys, stats)`` /
``contains_rows(relation, rows, stats)``.  The driver resolves each
step's source: the database for a base relation, or -- for a relation in
``plan.view_relations`` -- the store of the materialized view
(:mod:`repro.views`), which is itself a backend and is charged to the
per-execution stats only.  Because the bulk reads resolve each *distinct*
key once per batch, batched execution touches at most -- and on skewed
workloads far fewer than -- the tuples a read per assignment would
(the reference interpreter the tests compare against,
``tests/reference_executor.py``); both stay within the plan's
:attr:`~repro.core.plans.Plan.fanout_bound`.

Every execution runs inside an :class:`ExecutionContext`; all entry points
accept either a raw :class:`~repro.relational.instance.Database` (a fresh
context is opened) or an existing context.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from sys import intern as _intern
from time import perf_counter
from types import SimpleNamespace
from typing import Mapping, Sequence

from repro.core.access_schema import AccessRule, EmbeddedAccessRule
from repro.core.columnar import EMPTY_KEY, SlotTable
from repro.core.plans import FetchStep, Plan, ProbeStep
from repro.errors import IncrementalError, SchemaError
from repro.logic.ast import Atom, _as_variable
from repro.logic.terms import Constant, Term, Variable
from repro.relational.instance import AccessStats, LogSlice, NetDelta
from repro.relational.interning import intern_value

Row = tuple[object, ...]
Assignment = dict[Variable, object]


class ExecutionContext:
    """The per-execution state threaded through every operator.

    One context = one execution: it owns the execution's private
    :attr:`stats` (every access is charged here *and* in the database's
    cumulative :attr:`~repro.relational.instance.Database.stats`), the
    change-log :attr:`watermark` the execution is positioned at, and --
    for delta executions -- the net change slice past that watermark.
    Contexts are cheap and never shared across executions; that is what
    makes per-execution accounting exact under concurrent traffic.

    ``views`` maps materialized-view names to their states
    (:class:`repro.views.ViewState`, or anything whose ``store`` attribute
    offers the backend read pair ``lookup_keys`` / ``contains_rows``):
    view-assisted plans (:mod:`repro.views`) read a view through
    :meth:`store`, charged to this execution's :attr:`stats` only -- the
    database's cumulative counters see base-table traffic exclusively.
    The states must be *current* at the watermark: a plan lets a view row
    answer for the base rows it stands for and probes none of them, so a
    stale row is an answer (``ViewSet.prepare``, the Engine's way in,
    never hands out a stale state).

    ``delta`` is the change slice a delta execution joins, kept as
    :attr:`slice` (``None`` on the standard execute path): the shared
    :class:`~repro.relational.instance.LogSlice` of a ``slice_since``
    call, or a plain ``{relation: {row: sign}}`` mapping (wrapped into a
    private slice).  View answer changes ride in it under the view name,
    exactly like a base relation's.
    """

    __slots__ = ("db", "stats", "_watermark", "slice", "views")

    def __init__(
        self,
        db,
        stats: AccessStats | None = None,
        watermark: int | None = None,
        delta: LogSlice | NetDelta | None = None,
        views: Mapping[str, object] | None = None,
    ):
        self.db = db
        self.stats = AccessStats() if stats is None else stats
        self._watermark = watermark
        if delta is not None and type(delta) is not LogSlice:
            delta = LogSlice(delta)
        self.slice = delta
        self.views = views

    @property
    def watermark(self) -> int:
        """The change-log position this execution is positioned at
        (resolved lazily: the standard hot path never reads the log)."""
        mark = self._watermark
        if mark is None:
            mark = self.db.change_log.watermark
            self._watermark = mark
        return mark

    def __repr__(self) -> str:
        delta = sum(self.slice.sizes.values()) if self.slice is not None else 0
        return (
            f"ExecutionContext(watermark={self.watermark}, "
            f"delta={delta} rows, {self.stats.tuples_accessed} tuples accessed)"
        )

    def store(self, name: str):
        """The read source of materialized view ``name`` (its backend
        store), or a clear error when the context was opened without view
        states (a view-assisted plan must be executed through the Engine,
        which prepares them)."""
        try:
            return self.views[name].store
        except (KeyError, TypeError):  # no state for it / no states at all
            raise SchemaError(
                f"plan reads materialized view {name!r} but the execution "
                f"context carries no state for it; execute view-assisted "
                f"plans through the Engine (or pass views= when opening "
                f"the ExecutionContext)"
            ) from None


class OldState:
    """The *pre-delta snapshot* of any read source: the same two charged
    reads, answered by ``source`` on the current state (accounted as
    usual) and rewound in memory by the change ``slice`` -- tuples
    inserted since the watermark are dropped, tuples deleted since it are
    restored.  The one implementation of "old state", over the database
    and over view stores alike."""

    __slots__ = ("source", "slice")

    def __init__(self, source, slice: LogSlice):
        self.source = source
        self.slice = slice

    def lookup_keys(
        self,
        relation: str,
        positions: tuple[int, ...],
        keys: Sequence[Row],
        stats: AccessStats | None = None,
    ) -> Sequence[Sequence[Row]]:
        groups = self.source.lookup_keys(relation, positions, keys, stats)
        net = self.slice.net.get(relation)
        if not net:
            return groups
        # Only keys the slice touches need rewinding, and the slice index
        # (shared with the delta face) finds them in O(1) each.
        changed = self.slice.index(relation, positions)
        rewound: dict[Row, list[Row]] = {}
        out: list[Sequence[Row]] = []
        for key, rows in zip(keys, groups):
            entries = changed.get(key)
            if entries is not None:
                old = rewound.get(key)
                if old is None:
                    old = [row for row in rows if net.get(row, 0) <= 0]
                    old += [row for row, sign in entries if sign < 0]
                    rewound[key] = old
                rows = old
            out.append(rows)
        return out

    def contains_rows(
        self,
        relation: str,
        rows: Sequence[Row],
        stats: AccessStats | None = None,
    ) -> tuple[bool, ...]:
        """Rows the slice says nothing about are probed against the
        current state; the rest are answered from the slice alone (deleted
        since the watermark -> present then; inserted since -> absent
        then) without touching the source."""
        net = self.slice.net.get(relation)
        if not net:
            return self.source.contains_rows(relation, rows, stats)
        unknown = [row for row in rows if row not in net]
        probed = iter(
            self.source.contains_rows(relation, unknown, stats) if unknown else ()
        )
        return tuple(net[row] < 0 if row in net else next(probed) for row in rows)


class Seeded:
    """What :meth:`DeltaProgram.seed` decides -- the signed seed ``columns``
    and level 0's join ``keys`` -- plus what a holding program keeps
    (``rows is None``: nothing): level 0's key group ``rows``, the
    ``(prefix, n)`` batch they expand to and its level-1 join keys
    ``next_keys``.  :class:`OldState`'s sibling: level 0's own step, handed
    this as its read source, expands the held rows -- read first from
    ``source``, that call and that charge, into a *copy* (the memory
    backend hands out its live bucket)."""

    __slots__ = ("columns", "keys", "source", "rows", "prefix", "n", "next_keys")

    def __init__(self, columns, keys):
        self.columns, self.keys, self.rows = columns, keys, None

    def lookup_keys(self, relation, positions, keys, stats=None) -> tuple[list[Row]]:
        if self.rows is None:
            self.rows = list(self.source.lookup_keys(relation, positions, keys, stats)[0])
        return (self.rows,)


def _as_context(db) -> ExecutionContext:
    """Open a fresh context over ``db``, or pass an existing one through."""
    return db if isinstance(db, ExecutionContext) else ExecutionContext(db)


def _resolve(term: Term) -> tuple[bool, object]:
    """A term as a lowered ``(is_const, ref)`` pair: the (interned)
    constant value, or the variable itself."""
    if isinstance(term, Constant):
        return (True, intern_value(term.value))
    return (False, term)


# -- operator descriptions -------------------------------------------------
#
# Pure data: what build_pipeline decided about each step.  They carry no
# run methods -- the _compile_* functions below lower them to closures.


@dataclass(frozen=True)
class FilterOp:
    """Enforce the compile-time-known equality ``conditions`` (pairs of
    terms whose values must agree) that involve plan parameters, and copy
    parameter values onto their equality-class representatives (``binds``:
    source -> target variable).  Only appears when the query's equalities
    demand it, and runs on the parameter assignment before the first
    batch exists (:meth:`check_seed`)."""

    conditions: tuple[tuple[Term, Term], ...] = ()
    binds: tuple[tuple[Variable, Variable], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "_cond_items",
            tuple((_resolve(a), _resolve(b)) for a, b in self.conditions),
        )

    def __str__(self) -> str:
        parts = [f"{a} = {b}" for a, b in self.conditions]
        parts += [f"?{target} := ?{source}" for source, target in self.binds]
        return "filter " + ", ".join(parts)

    def check_seed(self, seed: Assignment) -> bool:
        """Evaluate the conditions on a seed assignment and apply the
        binds in place."""
        for (a_const, a_ref), (b_const, b_ref) in self._cond_items:
            a = a_ref if a_const else seed[a_ref]
            b = b_ref if b_const else seed[b_ref]
            if a != b:
                return False
        for source, target in self.binds:
            seed[target] = seed[source]
        return True


@dataclass(frozen=True)
class FetchOp:
    """Fetch ``atom``'s matching tuples for a whole batch with one
    ``lookup_keys`` call keyed on ``key_positions``, then join each row
    group back to its source row.

    ``check_positions`` are bound positions outside the lookup key (they
    arise under embedded access rules, whose access path is keyed on the
    rule inputs only); rows that disagree there are filtered out.
    ``bind_positions`` are the variable positions the fetch newly binds --
    a repeated new variable must bind consistently across its positions.
    ``dedup_positions`` (embedded rules only) deduplicate the fetched
    output projections per source row, matching the rule's "at most N
    distinct Y-projections" contract.  ``rule`` is the access rule the
    originating :class:`~repro.core.plans.FetchStep` fetches through
    (``None`` for hand-built operators): no fetch reads it, but a keyed
    one at level 0 makes a :class:`DeltaProgram` hold its group, and
    diagnostics and error messages name it.  ``keep`` (assigned by the lowering's liveness pass; ``None``
    keeps everything) names the variables still read downstream -- output
    columns outside it are dropped instead of gathered.  ``view`` marks
    an atom over a materialized view: the only difference is the read
    source (the view's store instead of the database).
    """

    atom: Atom
    key_positions: tuple[int, ...]
    check_positions: tuple[int, ...]
    bind_positions: tuple[int, ...]
    dedup_positions: tuple[int, ...] | None = None
    rule: AccessRule | None = None
    keep: frozenset[Variable] | None = None
    view: bool = False

    def __post_init__(self):
        # Pre-resolve every term access so lowering touches no Atom/Term
        # machinery twice (frozen dataclass: set via object).  The lookup
        # key is in sorted-position order -- the form every read source
        # (and the in-memory slice index) is keyed on.
        terms = self.atom.terms
        positions = tuple(sorted(self.key_positions))
        object.__setattr__(self, "_sorted_positions", positions)
        object.__setattr__(
            self, "_sorted_key", tuple(_resolve(terms[p]) for p in positions)
        )
        check_items = [(p, *_resolve(terms[p])) for p in self.check_positions]
        # A constant at a bind position is a residual equality check, not
        # a binding (the planner never emits one; hand-built operators
        # get the per-tuple semantics).
        bind_groups: dict[Variable, list[int]] = {}
        for p in self.bind_positions:
            term = terms[p]
            if isinstance(term, Constant):
                check_items.append((p, True, intern_value(term.value)))
            else:
                bind_groups.setdefault(term, []).append(p)
        object.__setattr__(self, "_check_items", tuple(check_items))
        object.__setattr__(
            self,
            "_bind_groups",
            tuple((term, tuple(ps)) for term, ps in bind_groups.items()),
        )

    def __str__(self) -> str:
        binds = ", ".join(f"?{self.atom.terms[p]}" for p in self.bind_positions)
        name = "view scan" if self.view else "fetch"
        return f"{name} {self.atom} [key {self.key_positions}]" + (
            f" binding {binds}" if binds else ""
        )


@dataclass(frozen=True)
class ProbeOp:
    """Verify the fully-bound ``atom`` for a whole batch with one
    ``contains_rows`` membership call.  ``keep`` is the liveness pass's
    surviving-variable set (``None`` keeps everything); ``view`` marks a
    probe of a materialized view's store."""

    atom: Atom
    keep: frozenset[Variable] | None = None
    view: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "_items", tuple(_resolve(t) for t in self.atom.terms)
        )

    def __str__(self) -> str:
        return f"{'view probe' if self.view else 'probe'} {self.atom}"


@dataclass(frozen=True)
class ProjectDedupOp:
    """Project each batch row onto the head terms and deduplicate,
    preserving first-derivation order.  Terminal operator: its output
    holds answer rows, not a batch."""

    head_terms: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_items", tuple(_resolve(t) for t in self.head_terms)
        )

    def __str__(self) -> str:
        head = ", ".join(
            str(t) if isinstance(t, Constant) else f"?{t}" for t in self.head_terms
        )
        return f"project/dedup ({head})"


Operator = FilterOp | FetchOp | ProbeOp | ProjectDedupOp


# -- the lowering ------------------------------------------------------------
#
# Every closure has the shape ``(source, stats, columns, n) -> (columns,
# n)`` (terminals return answer rows instead).  ``source`` is whatever
# answers the two charged reads: the database or a view store for the new
# face, an OldState around either for the old face, and -- for the delta
# face, whose rows come from memory -- the LogSlice itself.  ``columns``
# has one entry per slot plus the trailing sign slot, which a signed
# lowering gathers like any other live column.  A face that matches
# nothing returns ``(None, 0)``.

_NO_ROWS = repeat(())  # what a delta join reads for a key the slice does not hold


def _delta_face(keys, over):
    """A level's delta face from the two pieces a DeltaProgram stages apart
    (kept as attributes): ``keys(columns, n)`` builds a batch's join keys,
    ``over(slice)`` resolves the slice's index once and returns
    ``join(keys, stats, columns, n)`` (``keys`` ``None``: build them).
    Called like any other face, it does both on the spot."""

    def delta(slice, stats, columns, n):
        return over(slice)(None, stats, columns, n)

    delta.keys, delta.over = keys, over
    return delta


def _slot_specs(items, sidx) -> list[tuple[bool, object]]:
    """``(is_const, ref)`` items with variables resolved to slot indexes."""
    return [(True, ref) if is_const else (False, sidx[ref]) for is_const, ref in items]


def _compile_row_builder(specs):
    """A closure building the per-row key/probe/head tuple column from
    ``specs`` (``(True, constant)`` / ``(False, slot)`` items)."""
    if not specs:
        return lambda columns, n: [EMPTY_KEY] * n
    if len(specs) == 1:
        is_const, x = specs[0]
        if is_const:
            key = (x,)
            return lambda columns, n: [key] * n
        return lambda columns, n: [(v,) for v in columns[x]]
    specs = tuple(specs)

    def rows_fn(columns, n):
        seqs = [[x] * n if is_const else columns[x] for is_const, x in specs]
        return list(zip(*seqs))

    return rows_fn


def _take(columns, gather, rows, width):
    """The live columns (``gather`` slots) of a batch at row indexes
    ``rows``; every other slot is dropped."""
    out = [None] * width
    for s in gather:
        col = columns[s]
        out[s] = [col[i] for i in rows]
    return out


def _live_slots(slots: SlotTable, bound: set[int], keep, signed: bool) -> tuple:
    """The bound slots some later operator still reads, plus the sign
    slot under a signed lowering."""
    variables = slots.variables
    live = tuple(s for s in bound if keep is None or variables[s] in keep)
    return live + (len(variables),) if signed else live


def _compile_fetch(op: FetchOp, slots: SlotTable, bound: set[int], signed: bool):
    """Lower a fetch to its faces: ``(step, delta, bound_after)``.  ``step``
    is the new *and* old face (they differ only in the source they are
    handed); ``delta`` joins the change slice, multiplying signs in."""
    sidx = slots.index
    sign = len(slots.variables)
    width = sign + 1
    relation = op.atom.relation
    spos = op._sorted_positions
    keys_fn = _compile_row_builder(_slot_specs(op._sorted_key, sidx))
    checks = tuple(
        (p, None, ref) if is_const else (p, sidx[ref], None)
        for p, is_const, ref in op._check_items
    )
    dedup = op.dedup_positions
    keep = op.keep
    consist: list[tuple[int, tuple[int, ...]]] = []
    fresh: list[tuple[int | None, tuple[int, ...]]] = []
    for term, ps in op._bind_groups:
        s = sidx[term]
        if s in bound:
            consist.append((s, ps))
        elif keep is None or term in keep:
            fresh.append((s, ps))
        elif len(ps) > 1:
            # Dead but repeated: the within-row consistency check still
            # filters, only the column is unneeded.
            fresh.append((None, ps))
    gather = _live_slots(slots, bound, keep, signed)
    bound_after = {s for s in gather if s != sign} | {
        s for s, _ in fresh if s is not None
    }

    # A pure expansion: no residual check, dedup or consistency test can
    # reject a fetched row, so every face is a flat gather.
    pure = (
        not checks
        and dedup is None
        and not consist
        and all(len(ps) == 1 for _, ps in fresh)
    )

    def expand(groups, columns, paired):
        """The join shared by every face: per source row ``i`` and fetched
        row, apply residual checks, per-source dedup and bind consistency,
        then record the match.  ``paired`` groups hold ``(row, sign)``
        slice entries whose signs multiply into the batch's sign column."""
        if pure:
            take = [i for i, rows in enumerate(groups) for _ in rows]
            out = _take(columns, gather, take, width)
            fetched = [row for rows in groups for row in rows]
            if paired:
                out[sign] = [a * entry[1] for a, entry in zip(out[sign], fetched)]
                fetched = [entry[0] for entry in fetched]
            for s, ps in fresh:
                p = ps[0]
                out[s] = [row[p] for row in fetched]
            return out, len(take)
        cks = [(p, None if s is None else columns[s], c) for p, s, c in checks]
        ccols = [(columns[s], ps) for s, ps in consist]
        stores = [None if s is None else [] for s, _ in fresh]
        take: list[int] = []
        signs: list[int] = []
        for i, rows in enumerate(groups):
            if not rows:
                continue
            seen = set() if dedup is not None else None
            for row in rows:
                if paired:
                    row, row_sign = row
                ok = True
                for p, col, const in cks:
                    if (const if col is None else col[i]) != row[p]:
                        ok = False
                        break
                if not ok:
                    continue
                # Dedup consumes the projection even when a later
                # consistency check rejects the row (the embedded rule's
                # "at most N distinct projections" budget is spent by the
                # fetch, not the join).
                if seen is not None:
                    projection = tuple(row[p] for p in dedup)
                    if projection in seen:
                        continue
                    seen.add(projection)
                for col, ps in ccols:
                    v = col[i]
                    for q in ps:
                        if row[q] != v:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                for _, ps in fresh:
                    v = row[ps[0]]
                    for q in ps[1:]:
                        if row[q] != v:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                take.append(i)
                if paired:
                    signs.append(row_sign)
                for store, (_, ps) in zip(stores, fresh):
                    if store is not None:
                        store.append(row[ps[0]])
        out = _take(columns, gather, take, width)
        if paired:
            out[sign] = [a * b for a, b in zip(out[sign], signs)]
        for store, (s, _) in zip(stores, fresh):
            if store is not None:
                out[s] = store
        return out, len(take)

    def over(slice):
        """The delta face bound to ``slice`` (once per stage): the slice
        index is resolved here, so ``join`` only probes it -- and exposes
        it, with its key set ``touched``, to the driver.  Under a keyless
        fetch (full-relation rule) every slice row joins with every
        source row: the one empty key holds them all."""
        index = slice.index(relation, spos) if spos else {EMPTY_KEY: slice.rows(relation)}
        get = index.get

        def join(keys, stats, columns, n):
            groups = list(map(get, keys or keys_fn(columns, n), _NO_ROWS))
            # Most delta joins match nothing: say so before any gather.
            return expand(groups, columns, True) if any(groups) else (None, 0)

        join.index, join.touched = index, frozenset(index)
        return join

    if pure and len(fresh) == 1:
        # The planner's common case, specialised: a plain fetch binding
        # one fresh variable at one position.
        s_out, (p0,) = fresh[0]

        def step(source, stats, columns, n):
            groups = source.lookup_keys(relation, spos, keys_fn(columns, n), stats)
            out = [None] * width
            if n == 1:
                rows = groups[0]
                k = len(rows)
                if k:
                    for s in gather:
                        out[s] = columns[s] * k
                    out[s_out] = [row[p0] for row in rows]
                return out, k
            take = []
            t_append = take.append
            store = []
            s_append = store.append
            for i, rows in enumerate(groups):
                for row in rows:
                    t_append(i)
                    s_append(row[p0])
            for s in gather:
                col = columns[s]
                out[s] = [col[i] for i in take]
            out[s_out] = store
            return out, len(take)

    else:

        def step(source, stats, columns, n):
            keys = keys_fn(columns, n)
            groups = source.lookup_keys(relation, spos, keys, stats)
            return expand(groups, columns, False)

    return step, _delta_face(keys_fn, over), bound_after


def _compile_probe(op: ProbeOp, slots: SlotTable, bound: set[int], signed: bool):
    """Lower a probe to its faces: ``(step, delta, bound_after)``, shaped
    like :func:`_compile_fetch`'s."""
    sign = len(slots.variables)
    width = sign + 1
    rows_fn = _compile_row_builder(_slot_specs(op._items, slots.index))
    relation = op.atom.relation
    gather = _live_slots(slots, bound, op.keep, signed)
    dead = len(gather) != len(bound) + signed

    def step(source, stats, columns, n):
        verdicts = source.contains_rows(relation, rows_fn(columns, n), stats)
        if all(verdicts):
            if not dead:
                return columns, n
            out = [None] * width
            for s in gather:
                out[s] = columns[s]
            return out, n
        sel = [i for i, present in enumerate(verdicts) if present]
        return _take(columns, gather, sel, width), len(sel)

    def over(slice):
        index = slice.net.get(relation, {})
        get = index.get

        def join(keys, stats, columns, n):
            # A row survives only if its fully-bound tuple effectively
            # changed, carrying the change's sign.
            sel: list[int] = []
            signs: list[int] = []
            for i, row in enumerate(keys or rows_fn(columns, n)):
                row_sign = get(row)
                if row_sign:
                    sel.append(i)
                    signs.append(row_sign)
            if not sel:
                return None, 0
            out = _take(columns, gather, sel, width)
            out[sign] = [a * b for a, b in zip(out[sign], signs)]
            return out, len(sel)

        join.index, join.touched = index, frozenset(index)
        return join

    return step, _delta_face(rows_fn, over), {s for s in gather if s != sign}


def _compile_project(op: ProjectDedupOp, slots: SlotTable, signed: bool):
    """Lower the projection to its terminal: unsigned, the deduplicated
    head rows (first-derivation order); signed, ``accumulate(columns, n,
    into)``, folding the signed head rows into a ``row -> count`` dict --
    derivation multiplicities for the counting pass, signed changes for a
    delta."""
    rows_fn = _compile_row_builder(_slot_specs(op._items, slots.index))
    if not signed:
        return lambda source, stats, columns, n: list(
            dict.fromkeys(rows_fn(columns, n))
        )
    sign = len(slots.variables)

    def accumulate(columns, n, into):
        get = into.get
        for row, row_sign in zip(rows_fn(columns, n), columns[sign]):
            into[row] = get(row, 0) + row_sign

    return accumulate


def _compile_fused(
    fetch: FetchOp, project: ProjectDedupOp, slots: SlotTable, bound: set[int]
):
    """Lower a trailing fetch+project pair into one terminal emitting
    deduplicated head rows straight from the fetched row groups -- the
    final batch is never materialized.  Returns ``None`` when the fetch
    needs the general join loop (residual checks, dedup, consistency);
    the pair then lowers unfused."""
    sidx = slots.index
    if fetch._check_items or fetch.dedup_positions is not None:
        return None
    fresh: dict[Variable, int] = {}
    for term, ps in fetch._bind_groups:
        if sidx[term] in bound or len(ps) > 1:
            return None
        fresh[term] = ps[0]
    # Each head term lowers to a constant (0), an input column (1), or a
    # position of the fetched row (2).
    specs: list[tuple[int, object]] = []
    for is_const, ref in project._items:
        if is_const:
            specs.append((0, ref))
        elif sidx[ref] in bound:
            specs.append((1, sidx[ref]))
        else:
            specs.append((2, fresh[ref]))
    relation = fetch.atom.relation
    spos = fetch._sorted_positions
    keys_fn = _compile_row_builder(_slot_specs(fetch._sorted_key, sidx))
    kind, x = specs[0] if len(specs) == 1 else (None, None)
    if kind == 2:

        def terminal(source, stats, columns, n):
            groups = source.lookup_keys(relation, spos, keys_fn(columns, n), stats)
            answers: dict[Row, None] = {}
            setd = answers.setdefault
            for rows in groups:
                for row in rows:
                    setd((row[x],), None)
            return list(answers)

    elif kind == 1:

        def terminal(source, stats, columns, n):
            # Same head value for every row of a group: record each
            # non-empty group once.
            groups = source.lookup_keys(relation, spos, keys_fn(columns, n), stats)
            col = columns[x]
            answers: dict[Row, None] = {}
            setd = answers.setdefault
            for i, rows in enumerate(groups):
                if rows:
                    setd((col[i],), None)
            return list(answers)

    else:
        specs_t = tuple(specs)

        def terminal(source, stats, columns, n):
            groups = source.lookup_keys(relation, spos, keys_fn(columns, n), stats)
            answers: dict[Row, None] = {}
            setd = answers.setdefault
            for i, rows in enumerate(groups):
                for row in rows:
                    setd(
                        tuple(
                            x if kind == 0 else (columns[x][i] if kind == 1 else row[x])
                            for kind, x in specs_t
                        ),
                        None,
                    )
            return list(answers)

    return terminal


class Pipeline(tuple):
    """The lowered physical form of one plan: a tuple of the operator
    descriptions (what tests, diagnostics and profiles name), plus the
    compiled execution extras as attributes --

    * ``plan`` -- the plan this is the lowering of;
    * ``slots`` -- the plan's :class:`~repro.core.columnar.SlotTable`;
    * ``params`` -- the declared parameter set (fast seed validation);
    * ``prefilter`` -- the leading :class:`FilterOp`, evaluated on the
      seed assignment before the first batch exists (``None`` when
      absent);
    * ``seed_slots`` -- the ``(slot, variable)`` parameter assignments;
    * ``width`` -- the length of each column list: one entry per slot
      plus the trailing sign slot;
    * ``body`` / ``terminal`` -- what :func:`execute_plan` runs:
      ``(view, step, delta, ops)`` levels (``view`` names the view store
      to read, ``None`` for the database; ``delta`` is ``None`` here;
      ``ops`` are the descriptions the closure was lowered from) and the
      terminal level whose closure returns answer rows -- a trailing
      fetch+project pair fused when the fetch is a pure expansion;
    * :meth:`signed` -- the signed lowering, built on first use (and,
      beside it, :meth:`program`: the plan's :class:`DeltaProgram`).

    Comparing a ``Pipeline`` to a plain tuple compares the descriptions
    (tuple semantics), so an unsatisfiable plan's pipeline equals ``()``.
    """

    plan: Plan
    slots: SlotTable
    params: frozenset
    width: int
    prefilter: FilterOp | None
    seed_slots: tuple
    body: tuple
    terminal: tuple | None

    def __new__(
        cls,
        plan: Plan,
        ops: Sequence = (),
        slots: SlotTable | None = None,
        prefilter: FilterOp | None = None,
        seed_slots: Sequence = (),
    ):
        self = super().__new__(cls, ops)
        self.plan = plan
        self.slots = SlotTable(()) if slots is None else slots
        self.params = frozenset(plan.parameters)
        self.width = len(self.slots.variables) + 1
        self.prefilter = prefilter
        self.seed_slots = tuple(seed_slots)
        self.body = ()
        self.terminal = None
        self._signed = None
        self._program = None
        if ops:
            self.body, self.terminal = _lower(self, signed=False)
        return self

    def signed(self) -> tuple[tuple, object]:
        """The signed lowering ``(levels, accumulate)``: every data
        operator unfused, as ``(view, step, delta, ops)`` with the sign
        slot live, plus the accumulating terminal.  Built on first
        counting/delta use (lowering is pure, so a racing build is
        redundant work, never a hazard) -- a plan that is only ever
        executed never pays for it."""
        lowered = self._signed
        if lowered is None:
            lowered = self._signed = _lower(self, signed=True)
        return lowered

    def program(self) -> "DeltaProgram":
        """The plan's :class:`DeltaProgram`, built on first use like
        :meth:`signed`.  Raises :class:`~repro.errors.IncrementalError`
        (eagerly, whatever the data) for plans that fetch through an
        embedded access rule (:func:`check_delta_supported`)."""
        program = self._program
        if program is None:
            program = self._program = DeltaProgram(self)
        return program

    def seed(self, values: Mapping[Variable, object], signed: bool = False):
        """The length-1 column lists an execution starts from."""
        columns: list[list | None] = [None] * self.width
        for slot, var in self.seed_slots:
            columns[slot] = [values[var]]
        if signed:
            columns[-1] = [1]
        return columns


def _lower(pipe: Pipeline, signed: bool):
    """Lower ``pipe``'s data operators to closures: ``(body, terminal
    level)`` unsigned -- the trailing fetch fused into the terminal when
    it can be -- or ``(levels, accumulate)`` signed.  The boundness of
    every slot at every position is static, so all variable hashing
    happens here, once per plan."""
    slots = pipe.slots
    bound = {slot for slot, _ in pipe.seed_slots}
    *data, project = (op for op in pipe if op is not pipe.prefilter)
    levels = []
    terminal = None
    for op in data:
        view = op.atom.relation if op.view else None
        if isinstance(op, ProbeOp):
            step, delta, bound = _compile_probe(op, slots, bound, signed)
        else:
            if not signed and op is data[-1]:
                fused = _compile_fused(op, project, slots, bound)
                if fused is not None:
                    terminal = (view, fused, None, (op, project))
                    break
            step, delta, bound = _compile_fetch(op, slots, bound, signed)
        levels.append((view, step, delta if signed else None, (op,)))
    if signed:
        return tuple(levels), _compile_project(project, slots, True)
    if terminal is None:
        terminal = (None, _compile_project(project, slots, False), None, (project,))
    return tuple(levels), terminal


def _parameter_constraints(
    plan: Plan,
) -> tuple[
    tuple[tuple[Term, Term], ...],
    tuple[tuple[Variable, Variable], ...],
    set[Variable],
]:
    """The equality constraints ``plan``'s parameters carry, and the set of
    representative variables they leave bound.

    A parameter whose equality class collapsed to a constant becomes a
    value check; two parameters in the same class must agree; a parameter
    whose representative is a *different* variable has its value copied
    onto that representative (the substituted atoms mention only
    representatives).
    """
    subst = plan.query.equality_substitution() or {}
    conditions: list[tuple[Term, Term]] = []
    binds: list[tuple[Variable, Variable]] = []
    bound: set[Variable] = set()
    first_with_rep: dict[Variable, Variable] = {}
    for v in plan.parameters:
        rep = subst.get(v, v)
        if isinstance(rep, Constant):
            conditions.append((v, rep))
            continue
        if rep in first_with_rep:
            conditions.append((first_with_rep[rep], v))
            continue
        first_with_rep[rep] = v
        if rep != v:
            binds.append((v, rep))
        bound.add(rep)
    return tuple(conditions), tuple(binds), bound


def _assign_keep_sets(ops: list[Operator], head_terms: tuple[Term, ...]) -> None:
    """The backward liveness pass: give every data operator the ``keep``
    set of variables some strictly-later operator (or the projection)
    still reads, so gathers skip dead columns.  The delta driver runs the
    same operators in the same order (new-prefix / slice-join / old-
    suffix all read the same per-level key, check and head variables), so
    one keep set is valid for every face."""
    needed: set[Variable] = {t for t in head_terms if isinstance(t, Variable)}
    for op in reversed(ops):
        if isinstance(op, (FilterOp, ProjectDedupOp)):
            continue
        object.__setattr__(op, "keep", frozenset(needed))
        if isinstance(op, FetchOp):
            needed -= {term for term, _ in op._bind_groups}
            needed |= {ref for is_const, ref in op._sorted_key if not is_const}
            needed |= {
                ref for _, is_const, ref in op._check_items if not is_const
            }
        else:  # ProbeOp
            needed |= {ref for is_const, ref in op._items if not is_const}


def build_pipeline(plan: Plan) -> Pipeline:
    """Lower ``plan``'s fetch/probe steps into the physical pipeline.  The
    set of bound variables before each step is known at compile time, so
    every operator's key/check/bind positions, its variable slots and its
    live-column set are all static; the returned :class:`Pipeline` holds
    the operator descriptions and the closures compiled from them.
    """
    if not plan.satisfiable:
        return Pipeline(plan)
    conditions, binds, bound = _parameter_constraints(plan)
    ops: list[Operator] = []
    prefilter: FilterOp | None = None
    if conditions or binds:
        prefilter = FilterOp(conditions, binds)
        ops.append(prefilter)
    view_relations = plan.view_relations
    for step in plan.steps:
        is_view = step.atom.relation in view_relations
        if isinstance(step, ProbeStep):
            ops.append(ProbeOp(step.atom, view=is_view))
            continue
        terms = step.atom.terms
        determined = tuple(
            p
            for p, t in enumerate(terms)
            if isinstance(t, Constant) or t in bound
        )
        if isinstance(step.rule, EmbeddedAccessRule):
            key = step.input_positions
            check = tuple(p for p in determined if p not in key)
            dedup = step.output_positions
            bindable = step.output_positions
        else:
            key = determined
            check = ()
            dedup = None
            bindable = tuple(range(len(terms)))
        bind = tuple(
            p
            for p in bindable
            if isinstance(terms[p], Variable) and terms[p] not in bound
        )
        ops.append(
            FetchOp(step.atom, key, check, bind, dedup, step.rule, view=is_view)
        )
        bound.update(step.binds)
    ops.append(ProjectDedupOp(plan.head_terms))
    _assign_keep_sets(ops, plan.head_terms)

    # The per-plan slot table: parameters, bind targets, atom variables
    # and head variables, first-seen order (SlotTable dedups).
    slot_vars: list[Variable] = list(plan.parameters)
    slot_vars.extend(target for _, target in binds)
    for step in plan.steps:
        slot_vars.extend(t for t in step.atom.terms if isinstance(t, Variable))
    slot_vars.extend(t for t in plan.head_terms if isinstance(t, Variable))
    slots = SlotTable(slot_vars)
    seed_vars = dict.fromkeys([*plan.parameters, *(target for _, target in binds)])
    seed_slots = tuple((slots.index[v], v) for v in seed_vars)
    return Pipeline(plan, ops, slots, prefilter, seed_slots)


#: The two plain counters of :func:`pipeline_for`.
_memo_hits = _lowerings = 0


def pipeline_for(plan: Plan) -> Pipeline:
    """The pipeline of ``plan``, lowered on first use and kept on the plan
    (plans are immutable, so it can never go stale, and it dies with its
    plan).  Two racing first uses build equal pipelines; the second write
    wins."""
    global _memo_hits, _lowerings
    pipe = plan._pipeline
    if pipe is None:
        _lowerings += 1
        pipe = plan._pipeline = build_pipeline(plan)
    else:
        _memo_hits += 1
    return pipe


def pipeline_cache_stats() -> SimpleNamespace:
    """``.hits`` / ``.misses``: how often :func:`pipeline_for` read a
    plan's memoised lowering and how often it lowered -- nothing else.
    The name survives only because the benchmark harness imports it."""
    return SimpleNamespace(hits=_memo_hits, misses=_lowerings)


def merge_parameter_values(
    parameters: Mapping[object, object] | None, kwargs: Mapping[str, object]
) -> Assignment:
    """Merge a parameter mapping and keyword arguments into one
    variable-keyed assignment (kwargs win on collision).  Shared by the
    executor entry points and the Engine facade.

    ``Constant``-wrapped values are unwrapped here, once: assignments hold
    plain values everywhere downstream, so every comparison -- filter
    equalities, fetched-row consistency checks, in-memory delta joins --
    sees the same representation the database stores.  String values are
    interned on the way in for the same reason stored rows are
    (:mod:`repro.relational.interning`): every lookup key built from a
    parameter then hashes once and compares by identity first.
    """
    values: Assignment = {}
    if parameters:
        for key, value in parameters.items():
            if isinstance(value, Constant):
                value = value.value
            values[key if type(key) is Variable else _as_variable(key)] = (
                _intern(value) if type(value) is str else value
            )
    if kwargs:
        for key, value in kwargs.items():
            if isinstance(value, Constant):
                value = value.value
            values[_as_variable(key)] = (
                _intern(value) if type(value) is str else value
            )
    return values


def _reject_seed(plan: Plan, values: Assignment) -> None:
    """Raise the parameter-mismatch error for a seed whose variable set
    does not equal the plan's declared parameters."""
    declared = set(plan.parameters)
    extra = [v for v in values if v not in declared]
    if extra:
        raise ValueError(
            "bindings for variables that are not plan parameters "
            "(recompile with them as parameters to constrain the answer): "
            + ", ".join(f"?{v}" for v in extra)
        )
    missing = [v for v in plan.parameters if v not in values]
    if missing:
        raise ValueError(
            "missing plan parameters: " + ", ".join(f"?{v}" for v in missing)
        )


def _seed_assignment(
    plan: Plan,
    parameters: Mapping[object, object] | None,
    kwargs: Mapping[str, object],
) -> Assignment:
    """Validate the supplied parameter values against the plan's declared
    parameters and return the initial assignment."""
    values = merge_parameter_values(parameters, kwargs)
    if values.keys() != set(plan.parameters):
        _reject_seed(plan, values)
    return {v: values[v] for v in plan.parameters}


def execute_plan(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> tuple[Row, ...]:
    """Run ``plan`` on ``db`` (a Database or an :class:`ExecutionContext`)
    through its lowered pipeline and return the deduplicated answer
    tuples.

    Parameter values may be passed as a mapping (keys are variables or
    their names) and/or as keyword arguments.
    """
    values = merge_parameter_values(parameters, kwargs)
    return tuple(run_pipeline(pipeline_for(plan), _as_context(db), values))


def run_pipeline(
    pipe: Pipeline,
    ctx: ExecutionContext,
    values: Assignment,
    profiles: list["OperatorProfile"] | None = None,
) -> Sequence[Row]:
    """The one pipeline runner, behind :func:`execute_plan`,
    :func:`profile_plan` and the Engine facade (whose plan-cache entries
    hold the pipelines): ``pipe``'s distinct answer rows in
    first-derivation order.  ``values`` is a :func:`merge_parameter_values`
    assignment and is left as it was, so a union's disjuncts can share it.
    Pass ``profiles`` (a list) to collect one :class:`OperatorProfile` per
    compiled step run."""
    if values.keys() != pipe.params:
        _reject_seed(pipe.plan, values)
    if not pipe:  # an unsatisfiable plan lowers to nothing
        return ()
    prefilter = pipe.prefilter
    if prefilter is not None:
        values = dict(values)  # check_seed applies the binds in place
        passed = prefilter.check_seed(values)
        if profiles is not None:
            profiles.append(OperatorProfile(str(prefilter), 1, int(passed), 0, 0, 0))
        if not passed:
            return ()
    database = ctx.db
    stats = ctx.stats
    columns, n = pipe.seed(values), 1
    for view, step, _, ops in pipe.body:
        source = database if view is None else ctx.store(view)
        if profiles is None:
            columns, n = step(source, stats, columns, n)
        else:
            label = "; ".join(map(str, ops))
            columns, n = _measured(profiles, label, step, source, stats, columns, n)
        if not n:
            return ()
    view, terminal, _, ops = pipe.terminal
    source = database if view is None else ctx.store(view)
    if profiles is None:
        return terminal(source, stats, columns, n)
    label = "; ".join(map(str, ops))
    return _measured(profiles, label, terminal, source, stats, columns, n)


class DeltaProgram:
    """The delta rule of one plan, staged by what each input decides.
    *Per plan* (built once, here): the signed :attr:`levels` and
    :attr:`accumulate` terminal of the plan's pipeline, the
    :attr:`relations` the levels read, the seed :attr:`prefilter`, whether
    the program :attr:`holds` -- and the fact that the plan passed
    :func:`check_delta_supported`.  *Per (program, slice)*: :meth:`stage`,
    memoised on the :class:`~repro.relational.instance.LogSlice`, so
    shared by every result over the span.  *Per (program, seed)*:
    :meth:`seed`, kept by whoever ran the counting pass (:meth:`count`).
    *Per refresh*: :meth:`join`, the one delta driver (``refresh`` of an
    ``IncrementalResult`` or ``ViewState``, and :meth:`run`, all end there).

    A program *holds* when level 0 fetches through a keyed rule and a
    later level exists: the seed then names one key group (at most
    ``rule.bound`` rows), read once and maintained from the log like the
    counts.  :meth:`count` keeps the group it reads (:class:`Seeded`);
    :meth:`join` expands it instead of running level 0 again, patches it
    when the slice changed it -- not dropped and re-read: what a refresh
    reads is a function of its slice, not of the refreshes before it --
    and answers a slice that meets neither the group nor the level-1 keys
    it leads to without calling a closure.  A full-rule level 0 (every
    view maintenance plan: its "group" is a relation) and a one-level
    program hold nothing."""

    __slots__ = ("plan", "pipe", "levels", "accumulate", "relations", "prefilter", "holds")

    def __init__(self, pipe: Pipeline):
        check_delta_supported(pipe.plan)
        self.plan = pipe.plan
        self.pipe = pipe
        # An unsatisfiable plan lowers to no levels: it never runs.
        self.levels, self.accumulate = pipe.signed() if pipe else ((), None)
        self.relations = tuple(ops[0].atom.relation for _, _, _, ops in self.levels)
        self.prefilter = pipe.prefilter
        first = self.levels[0][3][0] if len(self.levels) > 1 else None
        self.holds = type(first) is FetchOp and first.rule is not None and bool(first.rule.inputs)

    def seed(self, values: Assignment) -> Seeded | None:
        """What a validated seed decides, whatever the slice: ``None``
        when the prefilter rejects it (no derivation, ever), else the
        signed seed columns and the first level's join keys."""
        if self.prefilter is not None:
            values = dict(values)  # check_seed applies the binds in place
            if not self.prefilter.check_seed(values):
                return None
        columns = self.pipe.seed(values, signed=True)
        return Seeded(columns, self.levels[0][2].keys(columns, 1) if self.levels else None)

    def stage(self, slice: LogSlice):
        """What ``slice`` decides, whatever the seed -- built on first
        sight and kept in ``slice.staged``: per level up to the last
        changed one, its slice-bound join (``None``: unchanged)."""
        net = slice.net
        joins = [
            delta.over(slice) if relation in net else None
            for relation, (_, _, delta, _) in zip(self.relations, self.levels)
        ]
        while joins and joins[-1] is None:
            joins.pop()
        staged = slice.staged[self] = tuple(joins)
        return staged

    def _expand(self, seeded: Seeded, source, stats: AccessStats, profiles=None):
        """Level 0's new-state batch, kept on ``seeded``: its held group
        through level 0's own step (its checks, its column layout) -- read
        from ``source`` first, one charged call, when nothing is held."""
        seeded.source = source
        _, step, _, ops = self.levels[0]
        batch = _measured(profiles, ("new", 1, ops[0]), step, seeded, stats, seeded.columns, 1)
        seeded.prefix, seeded.n = prefix, n = batch
        seeded.next_keys = frozenset(self.levels[1][2].keys(prefix, n)) if n else frozenset()
        return batch

    def count(self, seeded: Seeded | None, db, stats: AccessStats, store=None) -> dict[Row, int]:
        """``{answer row: derivation multiplicity}`` in first-derivation
        order from a :meth:`seed` (:func:`execute_plan_counting`): the new
        faces of the signed lowering, every sign ``+1``; a holding program
        keeps the group level 0 reads.  ``store`` is as for :meth:`join`."""
        counts: dict[Row, int] = {}
        if seeded is None or not self.pipe:  # an unsatisfiable plan never runs
            return counts
        columns, n, levels = seeded.columns, 1, self.levels
        if self.holds:  # this pass reads level 0, whatever was held
            view, levels, seeded.rows = levels[0][0], levels[1:], None
            columns, n = self._expand(seeded, db if view is None else store(view), stats)
        for view, step, _, _ in levels:
            if not n:
                return counts
            columns, n = step(db if view is None else store(view), stats, columns, n)
        if n:
            self.accumulate(columns, n, counts)
        return counts

    def join(
        self, slice: LogSlice, seeded: Seeded | None, db, stats: AccessStats, store=None, profiles=None
    ) -> dict[Row, int]:
        """The standard delta rule over ``slice`` from a :meth:`seed`: for
        each level ``i`` whose relation the slice changed, levels before
        ``i`` run on the new state (one prefix batch, level 0 of it from
        the hold, extended level by level and shared by every changed
        level), level ``i`` joins the in-memory slice (zero tuples
        accessed), levels after ``i`` run on the pre-delta snapshot (the
        same closures over :class:`OldState`).  ``store`` resolves a view
        name to its read source (:meth:`ExecutionContext.store`).  A hold
        moves with the slices it is joined with, so a caller that cannot
        commit a join (it raised, or a sibling disjunct's did) forgets it
        -- ``seeded.rows = None`` -- and the next join needing the prefix
        reads it again, charged, within :func:`delta_fanout_bound`."""
        changes: dict[Row, int] = {}
        if profiles is not None and self.prefilter is not None:
            passed = int(seeded is not None)
            profiles.append(OperatorProfile(str(self.prefilter), 1, passed, 0, 0, 0))
        if seeded is None:
            return changes
        joins = slice.staged.get(self)
        if joins is None:
            joins = self.stage(slice)
        if not joins:
            return changes
        keys = seeded.keys
        if seeded.rows is not None and len(joins) <= 2:
            # The footprint: the slice meets neither the held group nor
            # its prefix's level-1 keys, and no deeper level changed.
            first = joins[0]
            if (first is None or keys[0] not in first.touched) and (
                len(joins) == 1 or seeded.next_keys.isdisjoint(joins[1].touched)
            ):
                return changes
        levels = self.levels
        prefix, n = seeded.columns, 1
        for i, join in enumerate(joins):
            if i:  # the level before, on the new state, extends the prefix
                view, step, _, ops = levels[i - 1]
                source = db if view is None else store(view)
                if i == 1 and self.holds:  # from the hold: read only if forgotten
                    if seeded.rows is None or profiles is not None:
                        self._expand(seeded, source, stats, profiles)
                    prefix, n = seeded.prefix, seeded.n
                else:
                    label = ("new", i, ops[0])
                    prefix, n = _measured(profiles, label, step, source, stats, prefix, n)
                if not n:
                    break
                keys = None  # only the first level's keys are the seed's
            if join is None:
                continue
            if not i and seeded.rows is not None:
                entries = join.index.get(keys[0])
                if entries:  # the slice changed the group: OldState's rewind, forwards
                    net = slice.net[self.relations[0]]
                    seeded.rows = [row for row in seeded.rows if net.get(row, 0) >= 0]
                    seeded.rows += [row for row, sign in entries if sign > 0]
                    self._expand(seeded, None, stats)  # ... and where it leads now
            label = ("Δ", i + 1, levels[i][3][0])
            columns, m = _measured(profiles, label, join, keys, stats, prefix, n)
            j = i + 1
            while m and j < len(levels):
                view, step, _, ops = levels[j]
                j += 1
                # Not staged: kept on the slice it wraps, it would be a cycle.
                old = OldState(db if view is None else store(view), slice)
                columns, m = _measured(profiles, ("old", j, ops[0]), step, old, stats, columns, m)
            if m:
                self.accumulate(columns, m, changes)
        if changes:
            changes = {row: change for row, change in changes.items() if change}
        if profiles is not None:
            profiles.append(
                OperatorProfile(str(self.pipe[-1]), len(changes), len(changes), 0, 0, 0)
            )
        return changes

    def run(self, ctx: ExecutionContext, seed: Assignment, profiles=None) -> dict[Row, int]:
        """:meth:`join` over ``ctx``'s slice from a validated ``seed``,
        staging both halves on the spot."""
        if ctx.slice is None:
            return {}
        return self.join(ctx.slice, self.seed(seed), ctx.db, ctx.stats, ctx.store, profiles)


def delta_program(plan: Plan) -> DeltaProgram:
    """``plan``'s :class:`DeltaProgram`, kept on its pipeline
    (:meth:`Pipeline.program`, which also says which plans have none)."""
    return pipeline_for(plan).program()


def execute_plan_counting(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> dict[Row, int]:
    """Like :func:`execute_plan`, but return ``{answer row: derivation
    multiplicity}`` in first-derivation order instead of deduplicating --
    the state incremental maintenance needs: a row is an answer exactly
    while its count is positive, and :func:`execute_plan_delta` produces
    the signed count changes a batch of updates causes.  This is
    :meth:`DeltaProgram.count` behind per-call parameter validation;
    plans fetching through an embedded access rule raise
    :class:`~repro.errors.IncrementalError` (:meth:`Pipeline.program`).
    """
    program = delta_program(plan)
    ctx = _as_context(db)
    seeded = program.seed(_seed_assignment(plan, parameters, kwargs))
    return program.count(seeded, ctx.db, ctx.stats, ctx.store)


def execute_plan_delta(
    plan: Plan,
    ctx: ExecutionContext,
    parameters: Mapping[object, object] | None = None,
    *,
    profiles: list["OperatorProfile"] | None = None,
    **kwargs: object,
) -> dict[Row, int]:
    """Evaluate the standard delta rule for ``plan`` over ``ctx``'s change
    slice (:meth:`DeltaProgram.join`): the signed derivation-count change
    of every affected answer row (positive -- derivations gained, negative
    -- lost); an empty slice costs zero accesses.  Applying the result to
    the counts of :func:`execute_plan_counting` reproduces a from-scratch
    run on the new state.  Plans fetching through an embedded access rule
    raise :class:`~repro.errors.IncrementalError` eagerly, whichever
    relations changed.  Pass ``profiles`` (a list) to collect one
    :class:`OperatorProfile` per face applied (``new[i]`` / ``Δ[i]`` /
    ``old[i]``).

    This is :meth:`DeltaProgram.run` behind per-call parameter validation:
    seeded afresh, it holds nothing and reads level 0 whenever a later
    level changed.  A caller refreshing one plan repeatedly keeps the
    program and its :meth:`~DeltaProgram.seed` and calls ``join``, as
    :mod:`repro.incremental` and :mod:`repro.views` do."""
    program = delta_program(plan)
    return program.run(ctx, _seed_assignment(plan, parameters, kwargs), profiles)


def delta_fanout_bound(plan: Plan, delta_sizes: Mapping[str, int]) -> int:
    """An upper bound on the tuples :func:`execute_plan_delta` can access
    for ``plan`` given a change slice with ``delta_sizes`` net rows per
    relation -- a function of the slice and the access-rule bounds only,
    never of the database size (the incremental analogue of
    :attr:`~repro.core.plans.Plan.fanout_bound`).

    Per changed level: the prefix runs on the new state (its fetches are
    bounded exactly as in the full plan), the slice join itself touches no
    stored tuples, and the old-state suffix fans out from at most
    ``prefix branches x slice rows`` seeds through the remaining rules'
    bounds.  Relations absent from ``delta_sizes`` contribute nothing.
    """
    if not plan.satisfiable:
        return 0
    steps = plan.steps
    total = 0
    prefix_access = 0  # accesses to run the levels before i on the new state
    branches = 1  # how many assignments the prefix can carry
    for i, step in enumerate(steps):
        changed = delta_sizes.get(step.atom.relation, 0)
        if changed:
            seeds = branches * changed
            suffix = 0
            for later in steps[i + 1 :]:
                if isinstance(later, ProbeStep):
                    suffix += seeds
                else:
                    suffix += seeds * later.rule.bound
                    seeds *= later.rule.bound
            total += prefix_access + suffix
        if isinstance(step, ProbeStep):
            prefix_access += branches
        else:
            prefix_access += branches * step.rule.bound
            branches *= step.rule.bound
    return total


def check_delta_supported(plan: Plan) -> None:
    """Raise :class:`~repro.errors.IncrementalError` unless every fetch of
    ``plan`` goes through a plain or full access rule.  An embedded-rule
    fetch deduplicates output projections *per source row*, so its
    derivation count is not a product of per-level multiplicities and
    signed deltas cannot be exact."""
    for step in plan.steps:
        if isinstance(step, FetchStep) and isinstance(step.rule, EmbeddedAccessRule):
            raise IncrementalError(
                f"plan step '{step}' fetches relation "
                f"{step.atom.relation!r} through the embedded access rule "
                f"'{step.rule}'; incremental (delta) execution supports "
                f"only plain and full access rules -- declare a plain rule "
                f"on {step.atom.relation!r} to refresh this query "
                f"incrementally"
            )


@dataclass(frozen=True)
class OperatorProfile:
    """Measured behaviour of one compiled step during one execution.

    ``wall_time_s`` is the step's measured wall-clock time (seconds); it
    is ``0.0`` on lines that account rows without timing (the seed filter,
    and the pure-bookkeeping projection line of the delta driver)."""

    operator: str
    rows_in: int
    rows_out: int
    tuples_accessed: int
    indexed_lookups: int
    full_scans: int
    wall_time_s: float = 0.0


def _measured(profiles: list[OperatorProfile] | None, label, fn, source, stats, columns, n):
    """Run one compiled closure and, unless ``profiles`` is ``None``,
    append its measurements (rows in and out, the accesses it charged,
    wall time) under ``label`` -- a string, or a delta face's ``(face,
    level, operator)``, rendered only when measuring."""
    if profiles is None:
        return fn(source, stats, columns, n)
    if type(label) is tuple:
        label = "{}[{}] {}".format(*label)
    before = stats.snapshot()
    start = perf_counter()
    out = fn(source, stats, columns, n)
    elapsed = perf_counter() - start
    spent = stats.since(before)
    profiles.append(
        OperatorProfile(
            label,
            n,
            out[1] if type(out) is tuple else len(out),
            spent.tuples_accessed,
            spent.indexed_lookups,
            spent.full_scans,
            elapsed,
        )
    )
    return out


@dataclass(frozen=True)
class PlanProfile:
    """One plan execution's answers plus per-step row counts, access
    accounting and wall time (the payload of ``explain_analyze``)."""

    plan: Plan
    rows: tuple[Row, ...]
    operators: tuple[OperatorProfile, ...]

    @property
    def tuples_accessed(self) -> int:
        return sum(op.tuples_accessed for op in self.operators)

    @property
    def wall_time_s(self) -> float:
        return sum(op.wall_time_s for op in self.operators)

    def __str__(self) -> str:
        lines = []
        params = ", ".join(f"?{v}" for v in self.plan.parameters) or "none"
        lines.append(f"parameters: {params}")
        for i, op in enumerate(self.operators, 1):
            lines.append(
                f"{i}. {op.operator}  "
                f"[rows {op.rows_in} -> {op.rows_out}, "
                f"{op.tuples_accessed} tuples, "
                f"{op.indexed_lookups} lookups, {op.full_scans} scans, "
                f"{op.wall_time_s * 1e6:.1f} us]"
            )
        lines.extend(f"entailed, not read: {atom}" for atom in self.plan.entailed())
        lines.append(
            f"answers: {len(self.rows)} rows, "
            f"{self.tuples_accessed} tuples accessed "
            f"(bound {self.plan.fanout_bound}), "
            f"{self.wall_time_s * 1e6:.1f} us"
        )
        return "\n".join(lines)


def profile_plan(
    plan: Plan,
    db,
    parameters: Mapping[object, object] | None = None,
    **kwargs: object,
) -> PlanProfile:
    """:func:`execute_plan`, measured: the same compiled closures run in
    the same order with the same early exit, each one's row counts,
    access-statistics delta and wall time recorded along the way -- one
    entry per compiled step, so a fused fetch+project tail is one entry
    naming both operators.  The profile's rows *are* the execution's.
    """
    values = merge_parameter_values(parameters, kwargs)
    return profile_pipeline(pipeline_for(plan), _as_context(db), values)


def profile_pipeline(
    pipe: Pipeline, ctx: ExecutionContext, values: Assignment
) -> PlanProfile:
    """:func:`run_pipeline` with its profile (same contract for
    ``values``)."""
    profiles: list[OperatorProfile] = []
    rows = run_pipeline(pipe, ctx, values, profiles)
    return PlanProfile(pipe.plan, tuple(rows), tuple(profiles))
