"""Incremental scale independence (Fan, Geerts & Libkin 2014, Section 5).

A scale-independent query answered once should stay answered cheaply: when
the database changes, the result must be *refreshable* from the deltas
with bounded access, not recomputed from scratch.  This module is that
refresh path, built on three pieces of machinery:

* the :class:`~repro.relational.instance.ChangeLog` every
  :class:`~repro.relational.instance.Database` keeps -- a monotonic log of
  effective inserts and deletes, sliced by watermark.  One span of it is
  one :class:`~repro.relational.instance.LogSlice`, memoised by the log
  and shared by the many results that refresh over the identical span.
  Every result *pins* its watermark, which lets the log drop what lies
  below the oldest pin instead of growing without bound;
* the three faces every lowered operator has (:mod:`repro.core.executor`:
  *new*, *delta*, *old*), composed by
  :class:`~repro.core.executor.DeltaProgram` into the standard delta
  rule: per changed operator level, new-state prefix |x| in-memory change
  slice |x| old-state suffix, one bulk read per level;
* derivation *counting*: the initial execution materializes how many
  derivations support each answer row, so signed deltas compose exactly
  under deletion -- a row leaves the answer precisely when its last
  derivation dies.

**A refresh costs its slice**, and one that changes nothing reads
nothing.  The delta rule is staged by what each input decides, each stage
resolved once and kept by its owner (:class:`DeltaProgram` has the
mechanics).  The *plan* decides the program.  *Program x slice* decides
which levels changed and which slice index each joins: kept on the
``LogSlice``, so shared by every result over the span.  *Program x seed*
decides the seed columns, the prefilter's verdict, the first level's join
key and that key's *group* -- the rows level 0 fetches, read once by the
counting pass, then kept on the :class:`IncrementalResult` and maintained
from the log like the counts.  The access schema bounds what a result
holds as it bounds what a query reads: at most ``rule.bound`` rows per
disjunct.  A slice that meets neither the group nor the keys it leads to
at level 1 changes nothing, and the write path says so first: each result
registers that footprint in the change log, every logged batch marks the
results its rows meet, and an unmarked result's refresh reads the log's
latest slice -- one attribute load, the span cut once per write by the
first result to refresh -- and returns: no slice call, no join, no read.
A view's changes are not in the log: a view refresh that changes its
answer hands the net to the results reading it (``ViewState.readers``),
pending until their next refresh joins it, and marks them.
A slice that changes the group patches it (not re-read: what a refresh
reads depends on its slice, never on the refreshes before it).
Only when every plan's join (one per disjunct of a union) succeeded does
:meth:`IncrementalResult.refresh` fold the signed changes into the counts
(:func:`~repro.core.executor.fold`) and advance the watermark; when one
raises, the result is as it was *minus its holds*, and marked -- a group
patched towards a state the result never reached is forgotten and read
again by the next refresh that needs it.
:func:`~repro.core.executor.delta_fanout_bound` bounds what a refresh
reads by its slice and the rule bounds, never the database size.

Obtain results through the facade:
``engine.query(q).execute_incremental(p=1)``, then ``result.refresh()``
after mutations.  A refresh that finds the access schema or the view
population replaced, or another ``Database`` on the engine (a reopened
store: the log is the facade's, so it starts afresh), *rebases* --
recompiles through the plan cache and recomputes, holds and all --
rather than mixing plans across versions or slicing a log it never read.
New cost statistics and a cleared plan cache are not replacements: the
plans stay valid, and the refresh stays a delta.

Limitations, by design: plans fetching through an *embedded* access rule
are rejected with :class:`~repro.errors.IncrementalError` (their
per-assignment projection dedup has no exact counting semantics;
:func:`~repro.core.executor.check_delta_supported` names every such
fetch with its causal trace, the text INC001 quotes at prepare time),
and mutations are single-writer: interleaving them with an in-flight
execute or refresh is undefined.
"""

from __future__ import annotations

from typing import Iterator, Mapping
from weakref import finalize

from repro.core.executor import (
    ExecutionContext,
    PlanProfile,
    check_delta_supported,
    delta_fanout_bound,
    fold,
)
from repro.relational.instance import AccessStats, LogSlice, Mark

Row = tuple[object, ...]

__all__ = ["IncrementalResult"]


class IncrementalResult:
    """Materialized answers of one parameterized execution, refreshable
    from the database's change log: a read-only sequence of answer rows
    (the :class:`~repro.api.engine.ResultSet` protocol) that also carries
    the :attr:`watermark` the answers are valid at, the access accounting
    of the last (initial or refresh) pass in :attr:`stats`, and the bound
    the last refresh was charged against in :attr:`delta_bound`."""

    __slots__ = (
        "columns", "watermark", "stats", "fanout_bound", "last_mode", "profiles",
        "_engine", "_prepared", "_values", "_programs", "_seeds", "_views", "_pending",
        "_epoch", "_counts", "_delta_sizes", "_mark", "_held", "_unwatch",
        "__weakref__",  # the change log pins its consumers weakly
    )

    def __init__(self, engine, prepared, values: Mapping, columns: tuple[str, ...]):
        self._engine = engine
        self._prepared = prepared
        self._values = dict(values)
        self.columns = columns
        self._unwatch, self._views = None, {}
        self._materialize("initial")

    # -- sequence behaviour ---------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        """The current answer rows (first-derivation order; rows gained by
        a refresh are appended, rows lost are dropped in place)."""
        return tuple(self._counts)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, index):
        return self.rows[index]

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self._counts if isinstance(row, (list, tuple)) else False

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        return (
            f"IncrementalResult({len(self._counts)} rows, "
            f"watermark={self.watermark}, last={self.last_mode!r})"
        )

    def to_dicts(self) -> list[dict[str, object]]:
        """The rows as dictionaries keyed by the head variable names."""
        return [dict(zip(self.columns, row)) for row in self._counts]

    @property
    def delta_bound(self) -> int | None:
        """The last refresh's a-priori bound on tuples accessed -- a
        function of its change slice and the access-rule bounds only
        (None before the first refresh, 0 for an empty slice).  Computed
        on demand; the refresh hot path only records the slice sizes."""
        if self._delta_sizes is None:
            return None
        sizes = self._delta_sizes
        return sum(delta_fanout_bound(program.plan, sizes) for program in self._programs)

    # -- maintenance -----------------------------------------------------

    def refresh(self, analyze: bool = False) -> "IncrementalResult":
        """Bring the answers up to date with the database's change log by
        running only the delta pipeline over the slice past the current
        watermark, then advance the watermark.  Returns ``self``.

        A slice that misses what the result holds costs zero accesses; one
        no write of which marked the result returns once it is cut.
        With ``analyze=True`` the delta pipeline's per-operator row counts
        and accounting are recorded in :attr:`profiles` (rendered by
        :meth:`explain_analyze`) by the context it runs in; the default
        refresh -- the hot path -- skips that.  Either way the same code
        runs: an unmarked result's analysed refresh records nothing
        (``profiles == ()``), because no delta pipeline ran.  If the
        engine's access schema, views or ``Database``
        were replaced since the last pass the result *rebases* (full
        recompute through the plan cache) instead:
        :attr:`last_mode` says which path ran (``"delta"`` / ``"rebase"``).
        """
        engine = self._engine
        db = engine._database  # none at all: the rebase raises for it
        epoch_db, basis = self._epoch
        if db is not epoch_db or engine._state[1] is not basis:
            # Another Database (its log never issued our watermark), or the
            # access schema or views changed and the plans are stale: rebase
            # (new cost statistics or a cleared plan cache leave the basis).
            return self._materialize("rebase")
        views = self._views
        if views and engine.views.prepare(db, views) != views:
            # A view state rebuilt for another database and back: it never
            # handed us its changes.  (Every other rebuild moves the epoch.)
            return self._materialize("rebase")
        # After the views' refreshes: one that changed a view marked us.
        joining = self._mark.marked
        self._mark.marked = False  # before the slice is cut: a write after it marks again
        slice = db.change_log.latest  # one load: every result refreshing after a write shares it
        if slice is None or slice.start != self.watermark:
            slice = db.change_log.slice_since(self.watermark)
        if not joining:  # no write met the footprint, no view changed: no join, no read, zero stats
            stats = self.stats  # kept while zero: a check costs less than a new one
            if stats.tuples_accessed or stats.indexed_lookups or stats.full_scans:
                self.stats = AccessStats()
            self._delta_sizes, self.watermark, self.profiles = slice.sizes, slice.stop, ()
            self.last_mode = "delta"
            return self
        pending = self._pending
        if pending:  # the views' answer changes ride in a private slice, so privately staged
            slice = LogSlice({**slice.net, **pending}, slice.start, slice.stop)
        stats = AccessStats()
        profiles: tuple[PlanProfile, ...] = ()
        if slice.net:
            # Every disjunct's changes first: a backend error in a later
            # one must leave counts and watermark as they were, so the
            # retry does not apply the earlier ones twice.
            ctx = ExecutionContext(db, stats, slice, views)
            changes, measured = [], []
            try:
                for program, seeded in zip(self._programs, self._seeds):
                    ctx.profile = PlanProfile(program.plan) if analyze else None
                    changes.append(program.join(ctx, seeded))
                    measured.append(ctx.profile)
            except BaseException:
                # ... and no group patched towards a state we never reach.
                for seeded in self._seeds:
                    if seeded is not None:
                        seeded.rows = None
                self._mark.marked = True
                raise
            if [s is not None and s.rows is not None and s.next_keys for s in self._seeds] != self._held:
                self._watch(db.change_log)  # a patch moved the level-1 keys
            if any(changes):  # one count per row, over every disjunct
                fold(self._counts, changes)
            if analyze:
                rows = self.rows
                for profile in measured:
                    profile.rows = rows
                profiles = tuple(measured)
        pending.clear()  # committed: the views' changes are in the counts
        self._delta_sizes = slice.sizes
        self.watermark = slice.stop
        self.stats = stats
        self.profiles = profiles
        self.last_mode = "delta"
        return self

    # -- internals -------------------------------------------------------

    def _materialize(self, mode: str) -> "IncrementalResult":
        """Full counting execution: the initial pass, also the rebase path
        when the access schema, the views or the database changed under us."""
        engine = self._engine
        db = engine.require_database()
        epoch = (db, engine._state[1])  # before compiling: a racing writer rebases us
        prepared, parameters = self._prepared, frozenset(self._values)
        compiled = engine._compiled_for(prepared, parameters)
        # Refuse before materializing anything, naming every disjunct's
        # blockers in the caller's own atoms, for their source spans.
        check_delta_supported(prepared._named(parameters, compiled.plans))
        # Refresh any views the plans read *before* snapshotting the
        # watermark: the counting pass must see views that agree with the
        # base state at that watermark (mutations are single-writer, so
        # nothing moves in between).
        names = compiled.view_names
        views = engine.views.prepare(db, names) if names else {}
        log = db.change_log
        watermark = log.watermark
        ctx = ExecutionContext(db, views=views)
        # What every refresh needs and no slice changes: the compiled delta
        # programs, what each makes of its seed (every plan was compiled for
        # exactly the names in ``_values``) and the views read.
        programs = tuple(pipe.program() for pipe in compiled.pipes)
        seeds = tuple(program.seed(self._values) for program in programs)
        counts: dict[Row, int] = {}
        fold(counts, [program.count(ctx, seeded) for program, seeded in zip(programs, seeds)])
        self._delta_sizes = None
        self._programs = programs
        self._seeds = seeds
        self._epoch = epoch
        self._counts = counts
        # The views hand their answer changes to the results reading them:
        # from now on, and only to ours (a rebase leaves the others).
        for state in self._views.values():
            state.readers.discard(self)
        for state in views.values():
            state.readers.add(self)
        self._views, self._pending = views, {}
        self.watermark = watermark
        log.pin(self)  # hold the log at our watermark while we live
        if self._unwatch is not None:
            self._unwatch()  # a rebase leaves the log it was marked by
        self._mark = Mark()
        self._unwatch = finalize(self, log.watch, self._mark, ())
        self._watch(log)
        self.stats = ctx.stats
        self.fanout_bound = compiled.fanout_bound
        self.profiles = ()
        self.last_mode = mode
        return self

    def _watch(self, log) -> None:
        """(Re-)register the footprint, and the held level-1 keys it follows."""
        self._held = [s is not None and s.rows is not None and s.next_keys for s in self._seeds]
        pairs = zip(self._programs, self._seeds)
        log.watch(self._mark, [entry for p, s in pairs for entry in p.footprint(s)])

    def explain_analyze(self):
        """The current answers plus the profiles of the last
        ``refresh(analyze=True)`` (empty after any other pass) as an
        :class:`~repro.api.engine.ExplainAnalyze`: per-operator row counts
        and access accounting for the faces the refresh applied, labelled
        ``Δ[level]`` / ``new[level]`` / ``old[level]``."""
        from repro.api.engine import ExplainAnalyze, ResultSet

        result = ResultSet(self.rows, self.columns, self.stats, self.fanout_bound)
        return ExplainAnalyze(result, self.profiles)
