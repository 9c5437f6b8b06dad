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
at level 1 changes nothing, and two set probes say so; one that changes
the group patches it (not re-read: what a refresh reads depends on its
slice, never on the refreshes before it).  Only when every plan's join
(one per disjunct of a union) succeeded does :meth:`IncrementalResult.refresh`
fold the signed changes into the counts and advance the watermark; when
one raises, the result is as it was *minus its holds* -- a group patched
towards a state the result never reached is forgotten and read again by
the next refresh that needs it.  The tuples a refresh accesses are bounded
by :func:`~repro.core.executor.delta_fanout_bound` -- a function of the
change-slice size and the access-rule bounds, never of the database size.

Obtain results through the facade:
``engine.query(q).execute_incremental(p=1)``, then ``result.refresh()``
after mutations.  A refresh that observes a new access-schema (or view
population) version, or another ``Database`` on the engine (a reopened
store: the log is the facade's, so it starts afresh), *rebases* --
recompiles through the version-keyed plan cache and recomputes, holds
and all -- rather than mixing plans across versions or slicing a log it
never read.

Limitations, by design: plans fetching through an *embedded* access rule
are rejected with :class:`~repro.errors.IncrementalError` (their
per-assignment projection dedup has no exact counting semantics; the
:mod:`repro.analysis.maintain` classifier decides this statically, so the
error carries the full INC001 causal trace), and mutations are
single-writer: interleaving them with an in-flight execute or refresh is
undefined.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Mapping

from repro.core.executor import (
    ExecutionContext,
    PlanProfile,
    delta_fanout_bound,
)
from repro.relational.instance import AccessStats, LogSlice

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
        "_engine", "_prepared", "_values", "_programs", "_seeds", "_view_names",
        "_epoch", "_counts", "_order", "_delta_sizes",
        "__weakref__",  # the change log pins its consumers weakly
    )

    def __init__(self, engine, prepared, values: Mapping, columns: tuple[str, ...]):
        self._engine = engine
        self._prepared = prepared
        self._values = dict(values)
        self.columns = columns
        self._materialize("initial")

    # -- sequence behaviour ---------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        """The current answer rows (first-derivation order; rows gained by
        a refresh are appended, rows lost are dropped in place)."""
        return tuple(self._order)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index):
        return self.rows[index]

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self._order if isinstance(row, (list, tuple)) else False

    def __bool__(self) -> bool:
        return bool(self._order)

    def __repr__(self) -> str:
        return (
            f"IncrementalResult({len(self._order)} rows, "
            f"watermark={self.watermark}, last={self.last_mode!r})"
        )

    def to_dicts(self) -> list[dict[str, object]]:
        """The rows as dictionaries keyed by the head variable names."""
        return [dict(zip(self.columns, row)) for row in self._order]

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

        A slice that misses what the result holds costs zero accesses.
        With ``analyze=True`` the delta pipeline's per-operator row counts
        and accounting are recorded in :attr:`profiles` (rendered by
        :meth:`explain_analyze`); the default refresh -- the hot path --
        skips that.  If the engine's access schema, views or ``Database``
        were replaced since the last pass the result *rebases* (full
        recompute through the version-keyed plan cache) instead:
        :attr:`last_mode` says which path ran (``"delta"`` / ``"rebase"``).
        """
        engine = self._engine
        db = engine.require_database()
        if (db, engine._access_state[0], engine.views.version) != self._epoch:
            # Another Database (its log never issued our watermark), or the
            # access schema or views changed and the plans are stale: rebase.
            return self._materialize("rebase")
        slice = db.change_log.slice_since(self.watermark)
        # View-assisted plans: bring the views up to date first, then ride
        # their answer changes in the slice under the view names -- the
        # delta pipeline joins them exactly like base-relation changes.
        store = None
        if self._view_names:
            states = engine.views.prepare(db, self._view_names)
            view_delta: dict[str, dict[Row, int]] = {}
            for name in self._view_names:
                net = states[name].changes_since(self.watermark)
                if net is None:
                    # The view cannot replay its answer changes back to
                    # our watermark (re-materialized, or the span does not
                    # align); recompute rather than guess.
                    return self._materialize("rebase")
                if net:
                    view_delta[name] = net
            if view_delta:  # a private slice, so privately staged
                slice = LogSlice({**slice.net, **view_delta}, slice.start, slice.stop)
            store = ExecutionContext(db, views=states).store
        stats = AccessStats()
        profiles: tuple[PlanProfile, ...] = ()
        if slice.net:
            # Every disjunct's changes first: a backend error in a later
            # one must leave counts and watermark as they were, so the
            # retry does not apply the earlier ones twice.
            changes = []
            measured = [[] for _ in self._programs] if analyze else repeat(None)
            try:
                for program, seeded, ops in zip(self._programs, self._seeds, measured):
                    changes.append(program.join(slice, seeded, db, stats, store, ops))
            except BaseException:
                # ... and no group patched towards a state we never reach.
                for seeded in self._seeds:
                    if seeded is not None:
                        seeded.rows = None
                raise
            if any(changes):
                crossed = False
                for counts, changed in zip(self._counts, changes):
                    for row, change in changed.items():
                        before = counts.get(row, 0)
                        count = before + change
                        if count > 0:
                            counts[row] = count
                        else:
                            counts.pop(row, None)
                        if (before > 0) != (count > 0):
                            crossed = True
                if crossed:  # otherwise the answer set, and its order, stand
                    self._reorder()
            if analyze:
                rows = self.rows
                profiles = tuple(
                    PlanProfile(program.plan, rows, tuple(ops))
                    for program, ops in zip(self._programs, measured)
                )
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
        epoch = (db, engine._access_state[0], engine.views.version)
        prepared, parameters = self._prepared, frozenset(self._values)
        compiled = engine._compiled_for(prepared, parameters)
        plans = compiled.plans
        # Classify statically before materializing anything: unlike the
        # executor's per-plan check, the classifier's error carries every
        # blocker's causal trace -- read off the plans in the caller's own
        # atoms, for their source spans.  Imported lazily -- repro.analysis
        # sits above repro.incremental in the layering.
        from repro.analysis.maintain import check_maintainable

        check_maintainable(prepared._named(parameters, plans))
        # Refresh any views the plans read *before* snapshotting the
        # watermark: the counting pass must see views that agree with the
        # base state at that watermark (mutations are single-writer, so
        # nothing moves in between).
        names = compiled.view_names
        states = engine.views.prepare(db, names) if names else None
        log = db.change_log
        watermark = log.watermark
        ctx = ExecutionContext(db, watermark=watermark, views=states)
        # What every refresh needs and no slice changes: the compiled delta
        # programs, what each makes of its seed (every plan was compiled for
        # exactly the names in ``_values``) and the views read.
        programs = tuple(pipe.program() for pipe in compiled.pipes)
        seeds = tuple(program.seed(self._values) for program in programs)
        # Like refresh(), the initial pass skips profile bookkeeping --
        # profiles come from refresh(analyze=True) on demand.
        counts = [
            program.count(seeded, db, ctx.stats, ctx.store)
            for program, seeded in zip(programs, seeds)
        ]
        self._delta_sizes = None
        self._programs = programs
        self._seeds = seeds
        self._view_names = tuple(sorted(names))
        self._epoch = epoch
        self._counts = counts
        self._order: dict[Row, None] = {}
        self._reorder()
        self.watermark = watermark
        log.pin(self)  # hold the log at our watermark while we live
        self.stats = ctx.stats
        self.fanout_bound = compiled.fanout_bound
        self.profiles = ()
        self.last_mode = mode
        return self

    def _reorder(self) -> None:
        """Rebuild the ordered answer set from the per-plan counts:
        surviving rows keep their position, new rows are appended in
        plan/derivation order."""
        alive = self._counts  # a count is kept only while it is positive
        order = {row: None for row in self._order if any(row in counts for counts in alive)}
        for counts in alive:
            for row in counts:
                order.setdefault(row)
        self._order = order

    def explain_analyze(self):
        """The current answers plus the profiles of the last
        ``refresh(analyze=True)`` (empty after any other pass) as an
        :class:`~repro.api.engine.ExplainAnalyze`: per-operator row counts
        and access accounting for the faces the refresh applied, labelled
        ``Δ[level]`` / ``new[level]`` / ``old[level]``."""
        from repro.api.engine import ExplainAnalyze, ResultSet

        result = ResultSet(self.rows, self.columns, self.stats, self.fanout_bound)
        return ExplainAnalyze(result, self.profiles)
