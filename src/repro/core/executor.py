"""Columnar batch-at-a-time physical execution of scale-independent plans.

:mod:`repro.core.plans` is the *planner*: :func:`~repro.core.plans.compile_plan`
turns a controlled conjunctive query into an ordered sequence of
fetch/probe steps plus a head projection.  This module is the *executor*,
and it has exactly one way to run a plan: **one emitter, three faces,
one read source, one context**.

**One emitter.**  :func:`build_pipeline` turns the steps into operator
*descriptions* -- :class:`FilterOp`, :class:`FetchOp`, :class:`ProbeOp`,
:class:`ProjectDedupOp`: plain data (which positions key the lookup,
which are residual checks, which bind new variables) with no behaviour of
their own -- and one emitter writes Python source from them.  Per
operator it writes the key build, the charged read, the residual,
consistency and dedup checks and the gather, over batch columns held in
locals: one list per variable slot of the plan's
:class:`~repro.core.columnar.SlotTable` plus a trailing *sign* slot.  The
batch schema at every position is static, so all variable hashing
happens while writing; constants are interned
(:mod:`repro.relational.interning`) and a backward liveness pass drops
columns no later operator reads.  An unsigned pipeline becomes one
function, every level and the projection in one body (a trailing fetch
that only expands fused with the projection); a held execute is one call
into it.

**Nothing is spliced in.**  The text holds only identifiers and integers
the emitter computes; every relation name, positions tuple and interned
constant is a bound argument of the factory the text defines.  No value
in a query can change the code, and the compiled code is memoised on the
text, so plans differing only in constants share it.
It compiles under a file name inside this package, registered with
:mod:`linecache`, so tracebacks show the generated lines.

**Three faces.**  Under the signed lowering every data operator gets
three faces, written by the same emitter:

* *new* -- read the current state;
* *old* -- the very same function, handed the pre-delta snapshot of its
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
result holds.  :meth:`DeltaProgram.count` is the matching initial pass
(derivation multiplicities: what makes signed deltas composable under
deletion).  The signed faces are lowered on first counting/delta use.

**One read source.**  Generated code reads through exactly two charged calls,
the :class:`~repro.relational.backends.base.StorageBackend` pair
``lookup_keys(relation, positions, keys, stats)`` /
``contains_rows(relation, rows, stats)``.  Each step reads from
its source: the database for a base relation, or -- for a relation in
``plan.view_relations`` -- the store of the materialized view
(:mod:`repro.views`), which is itself a backend and is charged to the
per-execution stats only.  Because the bulk reads resolve each *distinct*
key once per batch, batched execution touches at most -- and on skewed
workloads far fewer than -- the tuples a read per assignment would
(the reference interpreter the tests compare against,
``tests/reference_executor.py``); both stay within the plan's
:attr:`~repro.core.plans.Plan.fanout_bound`.

**One context.**  Every run of a plan -- a pipeline's ``run`` and the
delta driver's :meth:`DeltaProgram.count` / :meth:`DeltaProgram.join` --
takes one :class:`ExecutionContext`, holding only what a run reads.  A
profile is the counting pass, measured: the new faces read the keys
``run`` reads, in order, with its early exits, each measured by the
:class:`PlanProfile` set as ``ctx.profile``.
:func:`execute_plan` and :func:`profile_plan` also accept a raw
:class:`~repro.relational.instance.Database` (a fresh context is opened).
"""

from __future__ import annotations

import linecache
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from sys import intern as _intern
from time import perf_counter
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from repro.core.access_schema import AccessRule, EmbeddedAccessRule
from repro.core.columnar import SlotTable
from repro.core.plans import FetchStep, Plan, ProbeStep, step_costs
from repro.errors import IncrementalError, SchemaError
from repro.logic.ast import Atom, _as_variable, _variable_from_name
from repro.logic.terms import Constant, Term, Variable
from repro.relational.instance import AccessStats, LogSlice, NetDelta
from repro.relational.interning import intern_value

Row = tuple[object, ...]
Assignment = dict[Variable, object]


class ExecutionContext:
    """What one run of a plan reads, threaded through every operator.

    One context = one run: it owns the run's private :attr:`stats` (every
    access is charged here *and* in the database's cumulative
    :attr:`~repro.relational.instance.Database.stats`) and -- for a delta
    run -- the change slice it joins.  Contexts are cheap and never
    shared across runs; that is what makes per-run accounting exact under
    concurrent traffic.

    ``views`` maps materialized-view names to their states
    (:class:`repro.views.ViewState`, or anything whose ``store`` attribute
    offers the backend read pair ``lookup_keys`` / ``contains_rows``):
    view-assisted plans (:mod:`repro.views`) read a view through
    :meth:`store`, charged to this run's :attr:`stats` only -- the
    database's cumulative counters see base-table traffic exclusively.
    The states must be *current*: a plan lets a view row answer for the
    base rows it stands for and probes none of them, so a stale row is an
    answer (``ViewSet.prepare``, the Engine's way in, never hands out a
    stale state).

    ``delta`` is the change slice a delta run joins, kept as :attr:`slice`
    (``None`` on the standard execute path): the shared
    :class:`~repro.relational.instance.LogSlice` of a ``slice_since``
    call, or a plain ``{relation: {row: sign}}`` mapping (wrapped into a
    private slice).  View answer changes ride in it under the view name,
    exactly like a base relation's.

    :attr:`profile` is ``None``, or the :class:`PlanProfile` each face a
    counting or delta run applies is measured by (profiling sets it).
    """

    __slots__ = ("db", "stats", "slice", "views", "profile")

    def __init__(
        self,
        db,
        stats: AccessStats | None = None,
        delta: LogSlice | NetDelta | None = None,
        views: Mapping[str, object] | None = None,
    ):
        self.db = db
        self.stats = AccessStats() if stats is None else stats
        if delta is not None and type(delta) is not LogSlice:
            delta = LogSlice(delta)
        self.slice = delta
        self.views = views
        self.profile: PlanProfile | None = None

    def __repr__(self) -> str:
        delta = sum(self.slice.sizes.values()) if self.slice is not None else 0
        return f"ExecutionContext(delta={delta} rows, {self.stats.tuples_accessed} tuples accessed)"

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
# run methods -- the emitter below writes their code.


@dataclass(frozen=True)
class FilterOp:
    """Enforce the compile-time-known equality ``conditions`` (pairs of
    terms whose values must agree) that involve plan parameters, and copy
    parameter values onto their equality-class representatives (``binds``:
    source -> target variable).  Only appears when the query's equalities
    demand it, and is decided on the parameter values before the first
    batch exists: :meth:`Pipeline.binding` resolves it to value positions
    and :meth:`Pipeline.seed` applies it."""

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


# -- the emitter -------------------------------------------------------------
#
# The module docstring has the rules ("One emitter", "Nothing is spliced
# in").  In generated text a batch column is the local ``c<slot>`` (``n``
# rows) and a value is the factory argument ``a<k>``.

_NO_ROWS = repeat(())  # what a delta join reads for a key the slice does not hold


@lru_cache(maxsize=1024)
def _factory(source: str):
    """The ``make`` that ``source`` defines, compiled once per text under a
    file name inside this package (so its frames count as the package's)
    whose lines :mod:`linecache` serves to tracebacks.  The name is the
    text's hash, so a text compiled again after eviction reuses its
    entry."""
    name = f"generated_{hash(source) & 0xFFFFFFFFFFFFFFFF:016x}.py"  # never on disk
    filename = os.path.join(os.path.dirname(__file__), name)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = {"NO_ROWS": _NO_ROWS}
    exec(compile(source, filename, "exec"), scope)
    return scope["make"]


class _Writer:
    """One generated text being written: its ``lines`` (``(depth,
    lines)`` runs) and the values ``args`` its names ``a0``, ``a1``, ...
    are bound to."""

    def __init__(self):
        self.lines: list[tuple[int, tuple[str, ...]]] = []
        self.args: list[object] = []

    def arg(self, value) -> str:
        self.args.append(value)
        return f"a{len(self.args) - 1}"

    def put(self, depth: int, *lines: str) -> None:
        self.lines.append((depth, lines))  # indented once, by build()

    def build(self) -> tuple[object, str]:
        """What the text's ``make`` returns, bound to the arguments, and
        the text itself."""
        head = f"def make({', '.join(f'a{k}' for k in range(len(self.args)))}):"
        source = "\n".join([head, *["    " * depth + line for depth, lines in self.lines for line in lines], ""])
        return _factory(source)(*self.args), source


def _tuple(parts: Iterable[str]) -> str:
    return "(" + "".join(f"{part}, " for part in parts) + ")"


def _batch_rows(w: _Writer, items, sidx, one: bool = False) -> str:
    """A list display of the per-row tuples of ``items`` (``(is_const,
    ref)`` pairs) over the batch's columns -- ``one`` row long, the seed's,
    when ``one``."""
    slots = list(dict.fromkeys(sidx[ref] for is_const, ref in items if not is_const))
    name = "c{:d}[0]" if one else "v{:d}"
    row = _tuple(w.arg(ref) if is_const else name.format(sidx[ref]) for is_const, ref in items)
    if one or not slots:
        return f"[{row}]" if one else f"[{row}] * n"
    names, columns = (", ".join(f"{x}{s:d}" for s in slots) for x in "vc")
    return f"[{row} for {names} in {columns if len(slots) == 1 else f'zip({columns})'}]"


def _live_slots(slots: SlotTable, bound: set[int], keep, signed: bool) -> tuple:
    """The bound slots some later operator still reads, plus the sign
    slot under a signed lowering."""
    variables = slots.variables
    live = tuple(s for s in sorted(bound) if keep is None or variables[s] in keep)
    return live + (len(variables),) if signed else live


def _expands(op: FetchOp, sidx, bound: set[int]) -> bool:
    """Whether no residual check, dedup or consistency test can reject a
    row ``op`` fetches: every fetched row is one output row."""
    return (
        not op._check_items
        and op.dedup_positions is None
        and all(sidx[term] not in bound and len(ps) == 1 for term, ps in op._bind_groups)
    )


def _level(
    w: _Writer, op, slots: SlotTable, bound: set[int], signed: bool, depth: int, head=None, paired=False, one=False
):
    """Write one data operator over the batch at ``depth`` (``one``: the
    one-row seed batch): its read from ``src`` -- or, ``paired`` (a delta
    face), its join with the slice entries ``get`` finds, each row's sign
    multiplied into the batch -- then the row loop and the gather into the
    ``c<slot>`` locals and ``n``.  Given the projection's ``head`` items,
    a fetch that :func:`_expands` leaves the distinct answer rows in
    ``rows`` instead.  Returns the slots bound after it."""
    sidx, sign = slots.index, len(slots.variables)
    gather = _live_slots(slots, bound, op.keep, signed)

    def put(*lines):
        w.put(depth, *lines)

    if isinstance(op, ProbeOp):
        rows = _batch_rows(w, op._items, sidx, one)
        if paired:  # a row stays only if its tuple changed, carrying the change's sign
            put("take, signs = [], []", f"for i, row in enumerate(keys or {rows}):", "    sg = get(row)")
            put("    if sg:", "        take.append(i)", "        signs.append(sg)")
            put("if not take:", "    return None, 0", "n = len(take)")
            put(*(f"c{s:d} = [c{s:d}[i] for i in take]" for s in gather if s != sign))
            put(f"c{sign:d} = [c{sign:d}[i] * sg for i, sg in zip(take, signs)]")
        else:
            put(f"verdicts = src.contains_rows({w.arg(op.atom.relation)}, {rows}, stats)")
            put("if not all(verdicts):", "    take = [i for i, ok in enumerate(verdicts) if ok]", "    n = len(take)")
            put(*(f"    c{s:d} = [c{s:d}[i] for i in take]" for s in gather))
        return set(gather) - {sign}
    keys = _batch_rows(w, op._sorted_key, sidx, one)
    if paired:  # most delta joins match nothing: say so before any gather
        put(f"groups = list(map(get, keys or {keys}, NO_ROWS))", "if not any(groups):", "    return None, 0")
    else:
        relation, positions = w.arg(op.atom.relation), w.arg(op._sorted_positions)
        put(f"groups = src.lookup_keys({relation}, {positions}, {keys}, stats)")
    checks = [
        f"{w.arg(ref) if is_const else f'c{sidx[ref]:d}[i]'} != row[{p:d}]" for p, is_const, ref in op._check_items
    ]
    later, fresh = [], {}
    for term, ps in op._bind_groups:
        s = sidx[term]
        if s in bound:
            later += [f"row[{q:d}] != c{s:d}[i]" for q in ps]
        else:
            later += [f"row[{q:d}] != row[{ps[0]:d}]" for q in ps[1:]]
            if op.keep is None or term in op.keep:
                fresh[s] = ps[0]
    after = {*gather, *fresh} - {sign}
    if head is not None:  # a fused terminal: every fetched row projects to an answer
        used = [] if one else list(dict.fromkeys(sidx[r] for c, r in head if not c and sidx[r] in bound))
        value = {s: f"c{s:d}[0]" if one else f"v{s:d}" for s in bound} | {s: f"row[{p:d}]" for s, p in fresh.items()}
        row = _tuple(w.arg(ref) if is_const else value[sidx[ref]] for is_const, ref in head)
        names, columns = (", ".join(f"{x}{s:d}" for s in used) for x in "vc")
        loop = f"for {names}, rows in zip({columns}, groups)" if used else "for rows in groups"
        loop += " for row in rows" if "row[" in row else " if rows"  # one answer per non-empty group
        put(f"rows = list(dict.fromkeys([{row} {'for row in groups[0]' if one and 'row[' in row else loop}]))")
        return after
    if not paired and _expands(op, sidx, bound):  # a flat gather
        if one:
            put(*(f"c{s:d} = c{s:d} * len(groups[0])" for s in gather))
            put(*(f"c{s:d} = [row[{p:d}] for row in groups[0]]" for s, p in fresh.items()), "n = len(groups[0])")
            return after
        put(*(["take = [i for i, rows in enumerate(groups) for _ in rows]"] if gather else []))
        put(*(f"c{s:d} = [c{s:d}[i] for i in take]" for s in gather))
        put(*(f"c{s:d} = [row[{p:d}] for rows in groups for row in rows]" for s, p in fresh.items()))
        count = "len(take)" if gather else f"len(c{next(iter(fresh)):d})" if fresh else "sum(map(len, groups))"
        put(f"n = {count}")
        return after
    outputs = [*gather, *fresh]
    if outputs:
        put(*(f"o{s:d} = []" for s in outputs))
        store = [f"o{s:d}.append(c{s:d}[i]{' * sg' if paired and s == sign else ''})" for s in gather]
        store += [f"o{s:d}.append(row[{p:d}])" for s, p in fresh.items()]
    else:
        put("n = 0")
        store = ["n += 1"]
    indexed = "[i]" in "".join(checks + later + store)
    put("for i, rows in enumerate(groups):" if indexed else "for rows in groups:")
    if op.dedup_positions is not None:
        put("    seen = set()")
    put("    for row, sg in rows:" if paired else "    for row in rows:")
    test = []
    if checks:
        test += [f"if {' or '.join(checks)}:", "    continue"]
    if op.dedup_positions is not None:
        # Dedup consumes the projection even when a later consistency
        # check rejects the row (the embedded rule's "at most N distinct
        # projections" budget is spent by the fetch, not the join).
        key = _tuple(f"row[{p:d}]" for p in op.dedup_positions)
        test += [f"key = {key}", "if key in seen:", "    continue", "seen.add(key)"]
    if later:
        test += [f"if {' or '.join(later)}:", "    continue"]
    put(*("        " + line for line in test + store))
    if outputs:
        put(*(f"c{s:d} = o{s:d}" for s in outputs), f"n = len(o{outputs[0]:d})")
    return after


class Pipeline(tuple):
    """The lowered physical form of one plan: a tuple of the operator
    descriptions (what tests, diagnostics and profiles name), plus the
    compiled execution extras as attributes --

    * ``plan`` -- the plan this is the lowering of;
    * ``slots`` -- the plan's :class:`~repro.core.columnar.SlotTable`;
    * ``params`` -- the declared parameter set;
    * ``prefilter`` -- the leading :class:`FilterOp`, decided on the
      parameter values before the first batch exists (``None`` when
      absent);
    * ``seed_slots`` -- the ``(slot, variable)`` parameter assignments;
    * :meth:`binding` / :meth:`seed` -- where the values of one order of
      parameter names go (worked out once per order), and the seed
      columns built from them: the one way into :attr:`run`;
    * ``width`` -- the length of each column list: one entry per slot
      plus the trailing sign slot;
    * ``run`` -- ``(ctx, columns) -> answer rows``, the generated
      function of the whole pipeline; ``source`` is its text;
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
    source: str

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
        self._signed = None
        self._program = None
        self._bindings = {}
        self.run, self.source = _nothing, ""
        if ops:
            self.run, self.source = _lower(self)
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
            lowered = self._signed = _lower_signed(self)
        return lowered

    def program(self) -> "DeltaProgram":
        """The plan's :class:`DeltaProgram`, built on first use like
        :meth:`signed`; :func:`delta_program` says which plans have no
        delta."""
        program = self._program
        if program is None:
            program = self._program = DeltaProgram(self)
        return program

    def binding(self, parameters: tuple[Variable, ...]) -> tuple:
        """Where values given in the order of ``parameters`` go: ``(fill,
        checks)``, the ``(slot, position)`` pairs of the seed and the
        prefilter's conditions with every parameter replaced by its
        position (its binds become fill pairs).  A variable named twice
        takes its last position.  Worked out once per order and kept;
        names that are not the declared parameters raise ValueError and
        are never kept."""
        binding = self._bindings.get(parameters)
        if binding is not None:
            return binding
        position = {v: i for i, v in enumerate(parameters)}
        extra = [v for v in position if v not in self.params]
        if extra:
            raise ValueError(
                "bindings for variables that are not plan parameters "
                "(recompile with them as parameters to constrain the answer): "
                + ", ".join(f"?{v}" for v in extra)
            )
        missing = [v for v in self.plan.parameters if v not in position]
        if missing:
            raise ValueError("missing plan parameters: " + ", ".join(f"?{v}" for v in missing))
        prefilter = self.prefilter
        source = {target: v for v, target in prefilter.binds} if prefilter else {}
        fill = tuple((slot, position[source.get(v, v)]) for slot, v in self.seed_slots)
        checks = tuple(
            tuple((const, ref if const else position[ref]) for const, ref in pair)
            for pair in (prefilter._cond_items if prefilter else ())
        )
        binding = self._bindings[parameters] = (fill, checks)
        return binding

    def seed(self, values, binding: tuple | None = None, signed: bool = False) -> list | None:
        """The length-1 column lists an execution starts from, or ``None``
        when nothing derives from ``values`` (the prefilter rejects them,
        or the plan is unsatisfiable).  ``values`` is an assignment
        (:func:`merge_parameter_values`), or -- given the :meth:`binding`
        of their names -- the bare values in that order, each a plain
        (``Constant``-unwrapped, interned) value."""
        if binding is None:
            binding = self.binding(tuple(values))
            values = list(values.values())
        fill, checks = binding
        for (a_const, a), (b_const, b) in checks:
            if (a if a_const else values[a]) != (b if b_const else values[b]):
                return None
        if not self:  # an unsatisfiable plan lowers to nothing
            return None
        columns: list[list | None] = [None] * self.width
        for slot, i in fill:
            columns[slot] = [values[i]]
        if signed:
            columns[-1] = [1]
        return columns


def _nothing(ctx: ExecutionContext, columns) -> tuple:
    """The run of a plan that lowers to nothing (an unsatisfiable one)."""
    return ()


def _lower(pipe: Pipeline) -> tuple[object, str]:
    """Write ``pipe``'s unsigned function ``run(ctx, columns)``: every level
    and the projection in one body, a trailing fetch that only expands fused
    with the projection.  Returns ``(run, source)``."""
    w, slots = _Writer(), pipe.slots
    bound = {slot for slot, _ in pipe.seed_slots}
    *data, project = (op for op in pipe if op is not pipe.prefilter)
    seed = [f"c{s:d} = columns[{s:d}]" for s, _ in pipe.seed_slots]
    w.put(1, "def run(ctx, columns):")
    w.put(2, "if columns is None:", "    return ()", "db = ctx.db", "stats = ctx.stats", *seed, "n = 1")
    fused = False
    for op in data:
        fused = op is data[-1] and type(op) is FetchOp and _expands(op, slots.index, bound)
        w.put(2, f"src = ctx.store({w.arg(op.atom.relation)})" if op.view else "src = db")
        bound = _level(w, op, slots, bound, False, 2, project._items if fused else None, one=op is data[0])
        w.put(2, *([] if fused else ["if not n:", "    return ()"]))
    if not fused:
        w.put(2, f"rows = list(dict.fromkeys({_batch_rows(w, project._items, slots.index)}))")
    w.put(2, "return rows")
    w.put(1, "return run")
    return w.build()


def _lower_signed(pipe: Pipeline) -> tuple[tuple, object]:
    """Write ``pipe``'s signed faces: per data operator ``step(src,
    stats, columns, n)`` (the new face, and the old one handed an
    :class:`OldState`) and the delta face -- ``keys(columns, n)``, the
    batch's join keys, and ``over(slice)``, the ``join(keys, stats,
    columns, n)`` bound to the slice's index (kept as ``join.index``);
    called itself, it does both -- plus the ``accumulate(columns, n,
    into)`` terminal folding signed head rows into a ``row -> count``
    dict.  Returns ``(levels, accumulate)``, each level ``(view, step,
    delta, (op,))``."""
    w, slots = _Writer(), pipe.slots
    sign = len(slots.variables)
    bound = {slot for slot, _ in pipe.seed_slots}
    *data, project = (op for op in pipe if op is not pipe.prefilter)

    def load(depth, present):
        w.put(depth, *(f"c{s:d} = columns[{s:d}]" for s in sorted(present | {sign})))

    def store(depth, present):
        w.put(depth, f"out = [None] * {sign + 1:d}")
        w.put(depth, *(f"out[{s:d}] = c{s:d}" for s in sorted(present | {sign})), "return out, n")

    for j, op in enumerate(data):
        w.put(1, f"def step{j:d}(src, stats, columns, n):")
        load(2, bound)
        after = _level(w, op, slots, bound, True, 2)
        store(2, after)
        w.put(1, f"def keys{j:d}(columns, n):")
        load(2, bound)
        items = op._items if type(op) is ProbeOp else op._sorted_key
        w.put(2, f"return {_batch_rows(w, items, slots.index)}")
        w.put(1, f"def over{j:d}(slice):")
        if type(op) is ProbeOp:
            w.put(2, f"index = slice.net.get({w.arg(op.atom.relation)}, {{}})")
        else:  # a keyless fetch: every slice row sits under the one empty key
            relation = w.arg(op.atom.relation)
            w.put(2, f"index = slice.index({relation}, {w.arg(op._sorted_positions)})")
        w.put(2, "get = index.get", "def join(keys, stats, columns, n):")
        load(3, bound)
        _level(w, op, slots, bound, True, 3, paired=True)
        store(3, after)
        w.put(2, "join.index = index", "return join")
        w.put(1, f"def delta{j:d}(slice, stats, columns, n):")
        w.put(2, f"return over{j:d}(slice)(None, stats, columns, n)")
        w.put(1, f"delta{j:d}.keys, delta{j:d}.over = keys{j:d}, over{j:d}")
        bound = after
    w.put(1, "def accumulate(columns, n, into):")
    load(2, bound)
    w.put(2, "get = into.get", f"for row, sg in zip({_batch_rows(w, project._items, slots.index)}, c{sign:d}):")
    w.put(2, "    into[row] = get(row, 0) + sg")
    w.put(1, f"return {_tuple(f'step{j:d}, delta{j:d}' for j in range(len(data)))}, accumulate")
    (faces, accumulate), _ = w.build()
    views = [op.atom.relation if op.view else None for op in data]
    return tuple((views[j], faces[2 * j], faces[2 * j + 1], (op,)) for j, op in enumerate(data)), accumulate


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
    the operator descriptions and the functions generated from them.
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
    executor entry points and the Engine facade (whose bound executes
    unwrap and intern their bare values the same way).

    ``Constant``-wrapped values are unwrapped here, once: assignments hold
    plain values everywhere downstream, so every comparison -- filter
    equalities, fetched-row consistency checks, in-memory delta joins --
    sees the same representation the database stores.  String values are
    interned on the way in for the same reason stored rows are
    (:mod:`repro.relational.interning`): every lookup key built from a
    parameter then hashes once and compares by identity first.
    """
    values: Assignment = {}
    for given in (parameters, kwargs):
        if given:
            for key, value in given.items():
                if isinstance(value, Constant):
                    value = value.value
                if type(key) is not Variable:
                    key = _variable_from_name(key) if type(key) is str else _as_variable(key)
                values[key] = _intern(value) if type(value) is str else value
    return values


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
    pipe = pipeline_for(plan)
    values = merge_parameter_values(parameters, kwargs)
    return tuple(pipe.run(_as_context(db), pipe.seed(values)))


class DeltaProgram:
    """The delta rule of one plan, staged by what each input decides.
    *Per plan* (built once, here): the signed :attr:`levels` and
    :attr:`accumulate` terminal of the plan's pipeline, the
    :attr:`relations` the levels read, the seed :attr:`prefilter`, whether
    the program :attr:`holds`.  *Per (program, slice)*: :meth:`stage`,
    memoised on the :class:`~repro.relational.instance.LogSlice`, so
    shared by every result over the span.  *Per (program, seed)*:
    :meth:`seed`, kept by whoever ran the counting pass (:meth:`count`).
    *Per refresh*: :meth:`join`, the one delta driver (``refresh`` of an
    ``IncrementalResult`` and of a ``ViewState`` both end there).

    A program *holds* when level 0 fetches through a keyed rule and a
    later level exists: the seed then names one key group (at most
    ``rule.bound`` rows), read once and maintained from the log like the
    counts.  :meth:`count` keeps the group it reads (:class:`Seeded`);
    :meth:`join` expands it instead of running level 0 again, patches it
    when the slice changed it -- not dropped and re-read: what a refresh
    reads is a function of its slice, not of the refreshes before it --
    and reads nothing for a slice that misses its :meth:`footprint`.  A
    full-rule level 0 (every view maintenance plan: its "group" is a
    relation) and a one-level program hold nothing."""

    __slots__ = ("plan", "pipe", "levels", "accumulate", "relations", "prefilter", "holds")

    def __init__(self, pipe: Pipeline):
        self.plan = pipe.plan
        self.pipe = pipe
        # An unsatisfiable plan lowers to no levels: it never runs.
        self.levels, self.accumulate = pipe.signed() if pipe else ((), None)
        self.relations = tuple(ops[0].atom.relation for _, _, _, ops in self.levels)
        self.prefilter = pipe.prefilter
        first = self.levels[0][3][0] if len(self.levels) > 1 else None
        self.holds = type(first) is FetchOp and first.rule is not None and bool(first.rule.inputs)

    def seed(self, values: Assignment) -> Seeded | None:
        """What a seed assignment decides, whatever the slice: ``None``
        when :meth:`Pipeline.seed` finds no derivation possible, ever,
        else the signed seed columns and the first level's join keys."""
        columns = self.pipe.seed(values, signed=True)
        if columns is None:
            return None
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

    def footprint(self, seeded: Seeded | None) -> list[tuple[str, tuple[int, ...], Row]]:
        """The ``(relation, positions, key)`` triples a write must meet to
        change what :meth:`join` derives from ``seeded``: a held group's
        seed key and level-1 keys (a probe's: its full rows), then every
        deeper relation whole (positions ``()``); with nothing held, every
        relation whole; for a rejected seed, nothing."""
        if seeded is None:
            return []
        relations = self.relations
        if seeded.rows is None:
            return [(relation, (), ()) for relation in relations]
        first, second = self.levels[0][3][0], self.levels[1][3][0]
        full_row = tuple(range(len(second.atom.terms)))  # what a probe is keyed on
        positions = getattr(second, "_sorted_positions", full_row)
        return [
            (relations[0], first._sorted_positions, seeded.keys[0]),
            *((relations[1], positions, key) for key in seeded.next_keys),
            *((relation, (), ()) for relation in relations[2:]),
        ]

    def _expand(self, seeded: Seeded, source, ctx: ExecutionContext, label: str = ""):
        """Level 0's new-state batch, kept on ``seeded``: its held group
        through level 0's own step (its checks, its column layout) -- read
        from ``source`` first, one charged call, when nothing is held (under
        ``ctx.profile``, measured as ``label`` and the operator)."""
        seeded.source = source
        _, step, _, ops = self.levels[0]
        if ctx.profile is None or seeded.rows is not None:
            batch = step(seeded, ctx.stats, seeded.columns, 1)
        else:
            batch = ctx.profile.measure(f"{label}{ops[0]}", step, seeded, ctx.stats, seeded.columns, 1)
        seeded.prefix, seeded.n = prefix, n = batch
        seeded.next_keys = frozenset(self.levels[1][2].keys(prefix, n)) if n else frozenset()
        return batch

    def count(self, ctx: ExecutionContext, seeded: Seeded | None) -> dict[Row, int]:
        """``{answer row: derivation multiplicity}`` in first-derivation
        order from a :meth:`seed` -- :func:`execute_plan`'s rows, each with
        its count (a row is an answer exactly while its count is positive):
        the new faces of the signed lowering, every sign ``+1``; a holding
        program keeps the group level 0 reads.  Under ``ctx.profile``, each
        face is measured under its operator's name: :func:`profile_plan`."""
        counts: dict[Row, int] = {}
        profile = ctx.profile
        if profile is not None and self.prefilter is not None:
            profile.note(self.prefilter, 1, int(seeded is not None))
        if seeded is None:  # a rejected seed, or an unsatisfiable plan
            return counts
        db, stats = ctx.db, ctx.stats
        columns, n, levels = seeded.columns, 1, self.levels
        if self.holds:  # this pass reads level 0, whatever was held
            view, levels, seeded.rows = levels[0][0], levels[1:], None
            columns, n = self._expand(seeded, db if view is None else ctx.store(view), ctx)
        for view, step, _, ops in levels:
            if not n:
                return counts
            source = db if view is None else ctx.store(view)
            if profile is None:
                columns, n = step(source, stats, columns, n)
            else:
                columns, n = profile.measure(ops[0], step, source, stats, columns, n)
        if n:
            self.accumulate(columns, n, counts)
            if profile is not None:
                profile.note(self.pipe[-1], n, len(counts))
        return counts

    def join(self, ctx: ExecutionContext, seeded: Seeded | None) -> dict[Row, int]:
        """The standard delta rule over ``ctx.slice`` from a :meth:`seed`:
        for each level ``i`` whose relation the slice changed, levels
        before ``i`` run on the new state (one prefix batch, level 0 of it
        from the hold, extended level by level and shared by every changed
        level), level ``i`` joins the in-memory slice (zero tuples
        accessed), levels after ``i`` run on the pre-delta snapshot (the
        same steps over :class:`OldState`) -- each changed row's signed
        derivation-count change, which folded into :meth:`count`'s counts
        gives the new state's.  A fresh seed holds nothing: it reads level
        0 whenever a later level changed.  A hold moves with the slices it
        is joined with, so a caller that cannot commit a join (it raised,
        or a sibling disjunct's did) forgets it -- ``seeded.rows = None``
        -- and the next join needing the prefix reads it again, charged,
        within :func:`delta_fanout_bound`.  Each face is measured only
        under ``ctx.profile`` (a served hold is then a line that read
        nothing); otherwise it is called directly, no label built."""
        changes: dict[Row, int] = {}
        profile = ctx.profile
        if profile is not None and self.prefilter is not None:
            profile.note(self.prefilter, 1, int(seeded is not None))
        if seeded is None:
            return changes
        slice = ctx.slice
        joins = slice.staged.get(self)
        if joins is None:
            joins = self.stage(slice)
        if not joins:
            return changes
        db, stats = ctx.db, ctx.stats
        keys = seeded.keys
        levels = self.levels
        prefix, n = seeded.columns, 1
        for i, join in enumerate(joins):
            if i:  # the level before, on the new state, extends the prefix
                view, step, _, ops = levels[i - 1]
                source = db if view is None else ctx.store(view)
                if i == 1 and self.holds:  # from the hold: read only if forgotten
                    if seeded.rows is None:
                        self._expand(seeded, source, ctx, "new[1] ")
                    elif profile is not None:
                        profile.note(f"new[1] {ops[0]}", 1, seeded.n)
                    prefix, n = seeded.prefix, seeded.n
                elif profile is None:
                    prefix, n = step(source, stats, prefix, n)
                else:
                    prefix, n = profile.measure(f"new[{i}] {ops[0]}", step, source, stats, prefix, n)
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
                    self._expand(seeded, None, ctx)  # ... and where it leads now
            if profile is None:
                columns, m = join(keys, stats, prefix, n)
            else:
                columns, m = profile.measure(f"Δ[{i + 1}] {levels[i][3][0]}", join, keys, stats, prefix, n)
            j = i + 1
            while m and j < len(levels):
                view, step, _, ops = levels[j]
                j += 1
                # Not staged: kept on the slice it wraps, it would be a cycle.
                old = OldState(db if view is None else ctx.store(view), slice)
                if profile is None:
                    columns, m = step(old, stats, columns, m)
                else:
                    columns, m = profile.measure(f"old[{j}] {ops[0]}", step, old, stats, columns, m)
            if m:
                self.accumulate(columns, m, changes)
        if changes:
            changes = {row: change for row, change in changes.items() if change}
        if profile is not None:
            profile.note(self.pipe[-1], len(changes), len(changes))
        return changes


def fold(counts: dict[Row, int], changes: Sequence[Mapping[Row, int]]) -> dict[Row, int]:
    """Section 5's counting rule (Gupta, Mumick & Subrahmanian 1993): fold
    ``changes``, one signed mapping per plan (:meth:`DeltaProgram.join`'s, or
    :meth:`DeltaProgram.count`'s into ``{}``), into ``counts``; return the net,
    ``+1`` per row that entered, ``-1`` per row that left.  Summed first, so a
    row moving between a union's disjuncts keeps its place; a row is kept
    while its count is positive, a new one appended.  It never raises."""
    if len(changes) == 1:
        (summed,) = changes
    else:
        summed = {}
        for changed in changes:
            for row, change in changed.items():
                summed[row] = summed.get(row, 0) + change
    net = {}
    for row, change in summed.items():
        old = counts.get(row, 0)
        new = old + change
        if new > 0:
            counts[row] = new
            if old <= 0:
                net[row] = 1
        elif old > 0:
            del counts[row]
            net[row] = -1
    return net


def delta_program(plan: Plan) -> DeltaProgram:
    """``plan``'s :class:`DeltaProgram`, kept on its pipeline
    (:meth:`Pipeline.program`), or an :class:`~repro.errors.IncrementalError`
    for one that fetches through an embedded rule (its pass counts, its
    delta would not be exact: :func:`check_delta_supported`)."""
    check_delta_supported((plan,))
    return pipeline_for(plan).program()


def delta_fanout_bound(plan: Plan, delta_sizes: Mapping[str, int]) -> int:
    """An upper bound on the tuples :meth:`DeltaProgram.join` from a fresh
    seed can access for ``plan`` given a change slice with ``delta_sizes``
    net rows per relation -- a function of the slice and the access-rule
    bounds only, never of the database size (the incremental analogue of
    :attr:`~repro.core.plans.Plan.fanout_bound`).

    Per changed level: the prefix runs on the new state (its fetches are
    bounded exactly as in the full plan), the slice join itself touches no
    stored tuples, and the old-state suffix fans out from at most
    ``prefix branches x slice rows`` seeds through the remaining rules'
    bounds.  Relations absent from ``delta_sizes`` contribute nothing.
    """
    total = prefix = 0  # prefix: the accesses of the levels before i
    for i, cost in enumerate(plan.step_costs()):
        changed = delta_sizes.get(cost.step.atom.relation, 0)
        if changed:
            suffix = step_costs(plan.steps[i + 1 :], cost.branches_in * changed)
            total += prefix + sum(c.accesses for c in suffix)
        prefix += cost.accesses
    return total


def delta_blockers(plan: Plan) -> tuple[tuple[int, FetchStep], ...]:
    """The steps (1-based index, step) that keep ``plan`` from a delta
    program: fetches through an embedded access rule.  Such a fetch
    deduplicates output projections *per source row*, so its derivation
    count is not a product of per-level multiplicities and signed deltas
    cannot be exact."""
    return tuple(
        (index, step)
        for index, step in enumerate(plan.steps, 1)
        if isinstance(step, FetchStep) and isinstance(step.rule, EmbeddedAccessRule)
    )


def explain_blocker(index: int, step: FetchStep) -> str:
    """The causal trace of one :func:`delta_blockers` entry: offending
    rule, relation, source span, and the missing counting scheme."""
    relation, span = step.atom.relation, step.atom.span
    where = f" (at {span.line}:{span.column})" if span is not None else ""
    return (
        f"step {index} fetches relation {relation!r} through the embedded access rule "
        f"'{step.rule}'{where}; an embedded fetch verifies the atom and binds its "
        f"outputs in one access, so the delta rule cannot attribute derivation counts "
        f"to individual tuples without a dedup-aware counting scheme -- declare a "
        f"plain rule on {relation!r} to refresh this query incrementally"
    )


def check_delta_supported(plans: Iterable[Plan]) -> None:
    """Raise :class:`~repro.errors.IncrementalError` naming every
    :func:`delta_blockers` entry of ``plans`` (one per union disjunct),
    if there is one."""
    traces = [explain_blocker(*blocker) for plan in plans for blocker in delta_blockers(plan)]
    if traces:
        raise IncrementalError(
            "incremental (delta) execution supports only plain and full "
            "access rules:\n" + "\n".join(traces)
        )


@dataclass(frozen=True)
class OperatorProfile:
    """Measured behaviour of one compiled step during one execution.

    ``wall_time_s`` is the step's measured wall-clock time (seconds); it
    is ``0.0`` on lines that account rows without reading (the seed
    filter, a held group served without a read, and the projection)."""

    operator: str
    rows_in: int
    rows_out: int
    tuples_accessed: int
    indexed_lookups: int
    full_scans: int
    wall_time_s: float = 0.0


class PlanProfile:
    """One plan run's answers plus per-step row counts, access accounting
    and wall time (the payload of ``explain_analyze``), and their one
    recorder: set as ``ctx.profile``, it takes a line per face the counting
    pass or the delta driver runs (:meth:`measure`) and per line that reads
    nothing (:meth:`note`); whoever set it fills in :attr:`rows`."""

    __slots__ = ("plan", "rows", "operators")

    def __init__(self, plan: Plan):
        self.plan = plan
        self.rows: tuple[Row, ...] = ()
        self.operators: list[OperatorProfile] = []

    def measure(self, label, face, source, stats, columns, n):
        """Run the signed face ``face(source, stats, columns, n)`` and record
        it under ``label``: rows in and out, the accesses it charged to
        ``stats``, its wall time.  An unmeasured run calls the face itself."""
        before, start = stats.snapshot(), perf_counter()
        out = face(source, stats, columns, n)
        elapsed, spent = perf_counter() - start, stats.since(before)
        accesses = (spent.tuples_accessed, spent.indexed_lookups, spent.full_scans)
        self.operators.append(OperatorProfile(str(label), n, out[1], *accesses, elapsed))
        return out

    def note(self, label, rows_in: int, rows_out: int) -> None:
        """Record a line under ``label`` that reads nothing."""
        self.operators.append(OperatorProfile(str(label), rows_in, rows_out, 0, 0, 0))

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
    """:func:`execute_plan`, measured: the plan's counting pass
    (:meth:`DeltaProgram.count`) -- same reads, same rows, same order --
    with each operator's row counts, access-statistics delta and wall time
    recorded along the way."""
    program = pipeline_for(plan).program()
    ctx = _as_context(db)
    ctx.profile = profile = PlanProfile(plan)
    profile.rows = tuple(program.count(ctx, program.seed(merge_parameter_values(parameters, kwargs))))
    ctx.profile = None  # a later run on a caller's context records nothing here
    return profile
