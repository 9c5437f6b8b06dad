"""A maintained result holds the group its seed decides (section 5).

``DeltaProgram.count`` keeps level 0's key group on the seed, ``join``
patches it from the slice and answers a slice that misses it without a
read.  What is universally quantified is drawn (``test_faces_property``'s
instances and update streams, on both backends); what a seeded
mutant must trip over is pinned.

* **twins**: a result refreshed after every batch equals one rebuilt from
  scratch -- rows, derivation counts, watermark -- never reads more than
  a fresh seed's delta join (which fetches level 0 afresh), holds a group
  that equals a fresh read and fits its rule's bound, and charges nothing
  when no slice-bound join closure was called;
* **a view at level 0** holds and patches like a base relation;
* **failure**: a union whose second disjunct fails leaves rows, counts,
  watermark, ``stats`` and *no hold*; the retry re-reads each group once;
* **marks**: the keys a result is watched under move with its patched
  group, and a write landing while a refresh reads its slice is seen by
  the next refresh;
* **the slice memo** never answers for a span a write compacted away, and
  the latest slice never for a span a write has ended;
* **bulk_load** refuses a log somebody pins at watermark 0;
* **mutants**: each seeded fault is killed by the property named for it.
"""

import copy
import gc
import inspect
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_faces_property import (
    RELATIONS,
    VARIABLES,
    VIEW_ACCESS,
    VIEW_QUERY,
    VIEW_SCHEMA,
    apply_batch,
    budget,
    build,
    held_group_is_current,
    rows_of,
    updates,
    values,
)
from test_incremental import FaultyBackend
from repro import Atom, CompactedError, ConjunctiveQuery, Constant, Engine, MemoryBackend, SqliteBackend, UpdateError
from repro.core.executor import DeltaProgram, ExecutionContext, Seeded
from repro.incremental import IncrementalResult
from repro.relational.instance import COMPACT_MIN_DEAD, AccessStats, ChangeLog


@st.composite
def holding_scenarios(draw):
    """``test_faces_property.scenarios`` bent towards programs that hold:
    binary relations keyed on either column and never readable in full,
    and a chain of two or three atoms entered through one parameter --
    relations drawn with repetition, so level 0 and level 1 are often the
    same relation (Q3's shape)."""
    arities = dict.fromkeys(RELATIONS, 2)
    rows = {name: draw(rows_of(2, min_size=3)) for name in RELATIONS}
    stream = draw(updates(rows)) + draw(updates(rows))
    rules = [(name, (p,), ()) for name in RELATIONS for p in (0, 1)]
    links = list(zip(VARIABLES, VARIABLES[1:]))[: draw(st.integers(2, 3))]
    body = []
    for i, (a, b) in enumerate(links):
        if i == len(links) - 1 and not draw(st.integers(0, 4)):
            b = Constant(draw(values))
        terms = [a, b] if draw(st.integers(0, 3)) else [b, a]
        body.append(Atom(draw(st.sampled_from(RELATIONS)), terms))
    present = sorted({t for atom in body for t in atom.terms if not isinstance(t, Constant)})
    head = draw(st.lists(st.sampled_from(present), unique=True))
    bindings = {v: draw(values) for v in present}
    return arities, rows, stream, rules, ConjunctiveQuery(head, body), VARIABLES[:1], bindings


def one_shot(live, db, mark) -> AccessStats:
    """What the span past ``mark`` costs from fresh seeds -- every refresh
    before results held anything: level 0 is fetched whenever a later
    level changed."""
    ctx = ExecutionContext(db, delta=db.change_log.slice_since(mark))
    for program in live._programs:
        program.join(ctx, program.seed(live._values))
    return ctx.stats


def spy_on_joins(monkeypatch) -> list:
    """Record every call of a slice-bound join closure staged from now on."""
    calls: list = []
    stage = DeltaProgram.stage

    def spied(join):
        def call(*args):
            calls.append(join)
            return join(*args)

        vars(call).update(vars(join))  # the index it probes, its key set
        return call

    def staged(self, slice):
        joins = slice.staged[self] = tuple(j and spied(j) for j in stage(self, slice))
        return joins

    monkeypatch.setattr(DeltaProgram, "stage", staged)
    return calls


def holds_of(live):
    return [
        (program, seeded)
        for program, seeded in zip(live._programs, live._seeds)
        if seeded is not None and seeded.rows is not None
    ]


@budget(15)
@given(scenario=holding_scenarios())
def test_a_refreshed_result_is_the_result_rebuilt_from_scratch(
    backend_factory, monkeypatch, scenario
):
    schema, access, _, values = build(scenario)
    _, rows, stream, _, query, _, _ = scenario
    engine = Engine(schema, access, rows, backend=backend_factory())
    db = engine.require_database()
    prepared = engine.query(query)
    live = prepared.execute_incremental(dict(values))
    calls = spy_on_joins(monkeypatch)
    for batch in stream:
        mark = live.watermark
        apply_batch(db, batch)
        parent = one_shot(live, db, mark)
        calls.clear()
        live.refresh()
        if not calls:
            assert live.stats == AccessStats()
        assert live.stats.tuples_accessed <= parent.tuples_accessed <= live.delta_bound
        assert live.stats.indexed_lookups <= parent.indexed_lookups
        rebuilt = prepared.execute_incremental(dict(values))
        assert live.last_mode == "delta" and live.watermark == rebuilt.watermark
        assert live._counts == rebuilt._counts
        assert len(live.rows) == len(rebuilt.rows) and set(live.rows) == set(rebuilt.rows)
        for program, seeded in holds_of(live):
            held_group_is_current(program, seeded, db)
    monkeypatch.undo()


@budget(8)
@given(
    data=st.fixed_dictionaries({"r": rows_of(2, min_size=3), "s": rows_of(2, min_size=3)}),
    draw=st.data(),
    p=values,
)
def test_a_view_assisted_result_holds_and_patches_like_a_base_one(backend_factory, data, draw, p):
    stream = draw.draw(updates(data))
    engine = Engine(VIEW_SCHEMA, VIEW_ACCESS, data, backend=backend_factory())
    engine.views.register("V", "V(b, a) :- r(a, b)", "V(b -> 64)")
    db = engine.require_database()
    prepared = engine.query(VIEW_QUERY)
    live = prepared.execute_incremental(p=p)
    ((program, seeded),) = holds_of(live)
    assert program.levels[0][0] == "V"  # level 0 reads the view's store
    for batch in stream:
        apply_batch(db, batch)
        live.refresh()
        rebuilt = prepared.execute_incremental(p=p)
        assert live.last_mode == "delta" and live._counts == rebuilt._counts
        assert live.stats.tuples_accessed <= live.delta_bound
        # The view's answer changes rode in the private slice and patched
        # the hold: it is the store's group again.
        held_group_is_current(program, seeded, engine.views.state("V").store)


# -- pinned: one stream that every seeded mutant must trip over -------------

PINNED_SCHEMA = "r(a, b); s(a, c); t(a, d)"
PINNED_ACCESS = "r(a -> 4); s(a -> 4); t(a -> 4)"
PINNED_DATA = {
    "r": [(1, 2), (1, 3), (2, 5), (3, 1)],
    "s": [(2, 7), (3, 8)],
    "t": [(7, "x"), (8, "y")],
}
CHAIN = "Q(z) :- r(p, y), s(y, w), t(w, z)"
SAME = "Q(z) :- r(p, y), r(y, z)"  # levels 0 and 1 over one relation: Q3's shape
UNION = "Q(w) :- r(p, y), s(y, w) ; Q(w) :- r(p, y), t(y, w)"
PINNED_STREAM = [
    # p's group: one row leaves, one enters (for SAME: level 1 changes too)
    [("-", "r", (1, 2)), ("+", "r", (1, 4))],
    # level 1 only: joins the row that entered; a phantom under the one that left
    [("+", "s", (4, 7)), ("+", "s", (2, 9))],
    # level 2 gains a derivation while level 1 changes elsewhere
    [("+", "t", (7, "w")), ("+", "s", (6, 6))],
    # a row leaves and comes back inside one slice; another re-enters
    [("-", "r", (1, 3)), ("+", "r", (1, 3)), ("+", "r", (1, 2))],
    # into the group and under the new row at once (README's example)
    [("-", "r", (1, 4)), ("+", "r", (1, 5)), ("+", "r", (5, 9))],
    # misses everything the results hold
    [("+", "r", (6, 6)), ("+", "s", (9, 9))],
    # level 1 only, a delete under a held row
    [("-", "s", (3, 8)), ("-", "r", (5, 9))],
]


def pinned_engine(backend=None):
    engine = Engine(PINNED_SCHEMA, PINNED_ACCESS, PINNED_DATA, backend=backend)
    return engine, engine.require_database()


def over_the_pinned_stream(check):
    def run():
        engine, db = pinned_engine()
        prepared = [engine.query(text) for text in (CHAIN, SAME, UNION)]
        live = [q.execute_incremental(p=1) for q in prepared]
        for batch in PINNED_STREAM:
            apply_batch(db, batch)
            for q, result in zip(prepared, live):
                assert result.refresh().last_mode == "delta"
                check(db, q, result)

    return run


def group_is_current(db, prepared, live):
    assert len(holds_of(live)) == len(live._programs)
    for program, seeded in holds_of(live):
        held_group_is_current(program, seeded, db)


def equals_recompute(db, prepared, live):
    rebuilt = prepared.execute_incremental(p=1)
    assert live._counts == rebuilt._counts and set(live.rows) == set(rebuilt.rows)


def a_failed_refresh_leaves_no_hold():
    """The second disjunct's old-state read fails after the first patched
    its hold; the retry re-reads each group once; then nothing is read."""
    backend = FaultyBackend()
    engine, db = pinned_engine(backend)
    prepared = engine.query(UNION)
    live = prepared.execute_incremental(p=1)
    before = (live.rows, copy.deepcopy(live._counts), live.watermark, live.stats)
    assert len(holds_of(live)) == 2
    # Level 0 gains (1, 7) in both disjuncts; each one's level 1 changes
    # too, under no held row, so the retry needs both new-state prefixes.
    apply_batch(db, [("+", "r", (1, 7)), ("+", "s", (5, 5)), ("+", "t", (6, 6))])
    backend.fuse = 1  # s(7, ?) as of the old state goes through, t(7, ?) fails
    with pytest.raises(OSError, match="injected"):
        live.refresh()
    backend.fuse = None
    assert (live.rows, live._counts, live.watermark, live.stats) == before
    assert holds_of(live) == []
    parent = one_shot(live, db, live.watermark)
    live.refresh()
    assert live.stats == parent  # two old-state reads, two groups of three re-read
    assert (live.stats.tuples_accessed, live.stats.indexed_lookups) == (7, 4)
    equals_recompute(db, prepared, live)
    group_is_current(db, prepared, live)
    apply_batch(db, [("+", "r", (9, 9)), ("+", "s", (6, 1))])
    assert one_shot(live, db, live.watermark).tuples_accessed == 3  # r(1, ?) for s's level
    assert live.refresh().stats == AccessStats()


def a_patch_moves_the_watched_keys():
    """Once the group gains r(1, 4), s(4, ?) marks the result and s(2, ?)
    -- under the row that left -- no longer does."""
    engine, db = pinned_engine()
    prepared = engine.query(CHAIN)
    live = prepared.execute_incremental(p=1)
    apply_batch(db, [("-", "r", (1, 2)), ("+", "r", (1, 4))])
    live.refresh()
    apply_batch(db, [("+", "s", (4, 7))])  # 'x' again, through the new row
    live.refresh()
    equals_recompute(db, prepared, live)
    apply_batch(db, [("+", "s", (2, 9))])
    assert not live._mark.marked


def a_write_during_a_refresh_is_seen_by_the_next():
    """A write landing right after a refresh cut its slice -- a writer
    beside the refresh -- leaves the result marked, so the next refresh
    joins it: whether the refresh it lands in was unmarked (it cuts the
    slice itself) or marked (it joins one)."""
    for marking in ((), [("+", "t", (9, "q"))]):  # t is watched whole
        engine, db = pinned_engine()
        prepared = engine.query(CHAIN)
        live = prepared.execute_incremental(p=1)
        apply_batch(db, marking)
        assert live._mark.marked == bool(marking)
        cut = ChangeLog.slice_since

        def cut_then_write(log, watermark):
            ChangeLog.slice_since = cut
            found = cut(log, watermark)
            db.delete_many("r", [(1, 2)])  # 'x' loses its only derivation
            return found

        ChangeLog.slice_since = cut_then_write
        try:
            live.refresh()
        finally:
            ChangeLog.slice_since = cut
        assert ("x",) in live.rows
        live.refresh()
        equals_recompute(db, prepared, live)


def an_unmarked_refresh_reaches_the_watermark():
    """A refresh no write marked still advances to the log's watermark:
    the latest slice it reads is never one a write has ended."""
    engine, db = pinned_engine()
    live = engine.query(CHAIN).execute_incremental(p=1)
    live.refresh()  # nothing written since: the latest slice is the empty span
    db.insert_many("r", [(6, 6)])  # misses the footprint
    assert not live._mark.marked
    live.refresh()
    assert live.watermark == db.change_log.watermark and live.delta_bound > 0


def a_compacted_span_is_never_served():
    """A span memoised before a write compacted the log past its start
    raises CompactedError -- the memo never answers for it."""
    engine, db = pinned_engine()
    log = db.change_log
    start = log.watermark
    assert log.slice_since(start) is log.slice_since(start)  # memoised, pinned by nobody
    db.insert_many("t", [(100 + i, "z") for i in range(2 * COMPACT_MIN_DEAD)])
    assert log.floor > start
    try:
        served = log.slice_since(start)
    except CompactedError:
        return
    raise AssertionError(f"{served!r} was served from below the floor {log.floor}")


PROPERTIES = {
    "the held group is current": over_the_pinned_stream(group_is_current),
    "refresh = recompute": over_the_pinned_stream(equals_recompute),
    "a failed refresh leaves no hold": a_failed_refresh_leaves_no_hold,
    "a patch moves the watched keys": a_patch_moves_the_watched_keys,
    "a write during a refresh is seen by the next": a_write_during_a_refresh_is_seen_by_the_next,
    "a compacted span is never served": a_compacted_span_is_never_served,
    "an unmarked refresh reaches the log's watermark": an_unmarked_refresh_reaches_the_watermark,
}


@pytest.mark.parametrize("name", PROPERTIES)
def test_the_pinned_properties_hold(name):
    PROPERTIES[name]()


def test_levels_zero_and_one_over_one_relation_are_patched_and_probed_in_one_refresh():
    engine, db = pinned_engine()
    prepared = engine.query(SAME)
    live = prepared.execute_incremental(p=1)
    ((program, seeded),) = holds_of(live)
    assert program.relations == ("r", "r") and seeded.next_keys == {(2,), (3,)}
    apply_batch(db, [("+", "r", (1, 5)), ("+", "r", (5, 9)), ("-", "r", (1, 2))])
    live.refresh()
    assert seeded.rows == [(1, 3), (1, 5)] and seeded.next_keys == {(3,), (5,)}
    assert set(live.rows) == set(prepared.execute(p=1).rows) == {(1,), (9,)}
    # Level 0 came from the hold.  What was read: r(2, ?) and r(5, ?) as of
    # the old state, under the row that left and the row that entered.
    assert (live.stats.tuples_accessed, live.stats.indexed_lookups) == (2, 2)


def test_a_slice_that_misses_the_footprint_calls_no_closure(monkeypatch):
    engine, db = pinned_engine()
    live = engine.query(CHAIN).execute_incremental(p=1)
    calls = spy_on_joins(monkeypatch)
    apply_batch(db, [("+", "r", (5, 5)), ("+", "s", (6, 6))])  # levels 0 and 1, elsewhere
    assert one_shot(live, db, live.watermark).tuples_accessed == 2 and len(calls) == 2
    del calls[:]
    live.refresh()
    assert calls == [] and live.stats == AccessStats() and live.delta_bound > 0
    apply_batch(db, [("+", "t", (6, 6))])  # past level 1 the hold says nothing
    live.refresh()
    assert len(calls) == 1 and live.stats.tuples_accessed == 2  # s(2, ?) and s(3, ?)


def test_an_analysed_refresh_shows_the_held_prefix_as_a_free_line():
    engine, db = pinned_engine()
    live = engine.query(CHAIN).execute_incremental(p=1)

    def new_lines():
        operators = live.profiles[0].operators
        return [
            (op.rows_in, op.rows_out, op.tuples_accessed, op.indexed_lookups)
            for op in operators
            if op.operator.startswith("new[1] fetch r(")
        ]

    apply_batch(db, [("+", "s", (2, 9))])
    live.refresh(analyze=True)
    assert new_lines() == [(1, 2, 0, 0)]
    live._seeds[0].rows = None  # as a failed refresh leaves it
    apply_batch(db, [("+", "s", (3, 9))])
    live.refresh(analyze=True)
    assert new_lines() == [(1, 2, 2, 1)] and live.stats.tuples_accessed == 2
    assert holds_of(live)


def test_an_unmarked_results_analysed_refresh_records_nothing(monkeypatch):
    """The profile is the run: a slice that misses the footprint runs no
    delta pipeline, analysed or not, so there is nothing to record."""
    engine, db = pinned_engine()
    prepared = engine.query(CHAIN)
    plain, analysed = (prepared.execute_incremental(p=1) for _ in range(2))
    calls = spy_on_joins(monkeypatch)
    apply_batch(db, [("+", "r", (5, 5)), ("+", "s", (6, 6))])  # levels 0 and 1, elsewhere
    plain.refresh()
    analysed.refresh(analyze=True)
    assert calls == [] and analysed.profiles == () == plain.profiles
    assert analysed.rows == plain.rows and analysed.stats == plain.stats == AccessStats()
    assert analysed.watermark == plain.watermark == db.change_log.watermark
    assert analysed.explain_analyze().profiles == ()


# -- an unlogged load under a pinned log -------------------------------------


@pytest.mark.parametrize("make", (MemoryBackend, SqliteBackend))
@pytest.mark.parametrize("consumer", ("result", "view"))
def test_bulk_load_refuses_a_log_somebody_pins(make, consumer):
    engine = Engine("friend(pid1, pid2)", "friend(pid1 -> 8)", {}, backend=make())
    db = engine.require_database()
    db.bulk_load("friend", [(1, 2)])
    prepared = engine.query("Q(x) :- friend(x, p)" if consumer == "view" else "Q(y) :- friend(p, y)")
    if consumer == "view":
        engine.views.register("V", "V(p, x) :- friend(x, p)", "V(p -> 8)")
        held = engine.views.prepare(db, ["V"])
    else:
        held = prepared.execute_incremental(p=1)
    assert db.change_log.watermark == 0
    with pytest.raises(UpdateError, match="0 mutation.s. and 1 maintained result.s. or view.s. hold it"):
        db.bulk_load("friend", [(1, 3), (3, 2)])
    assert db.size("friend") == 1
    db.insert_many("friend", [(1, 3), (3, 2)])  # the logged way reaches them
    if consumer == "view":
        assert set(prepared.execute(p=2).rows) == {(1,), (3,)}
    else:
        assert set(held.refresh().rows) == {(2,), (3,)} and held.last_mode == "delta"


def test_bulk_load_is_pristine_again_once_the_consumer_is_gone():
    engine = Engine("friend(pid1, pid2)", "friend(pid1 -> 8)", {})
    db = engine.require_database()
    live = engine.query("Q(y) :- friend(p, y)").execute_incremental(p=1)
    with pytest.raises(UpdateError, match="1 maintained result"):
        db.bulk_load("friend", [(1, 2)])
    del live
    gc.collect()
    assert db.bulk_load("friend", [(1, 2)]) == 1


# -- seeded mutants ------------------------------------------------------------

#: name -> (where the line lives, the line to break, what to break it
#: into, the property that must notice)
MUTANTS = {
    "the patch keeps deleted rows": (
        DeltaProgram.join,
        "if net.get(row, 0) >= 0]",
        "if net.get(row, 0) >= -1]",
        "the held group is current",
    ),
    "the patch drops inserted rows": (
        DeltaProgram.join,
        "for row, sign in entries if sign > 0]",
        "for row, sign in entries if sign > 1]",
        "the held group is current",
    ),
    "the footprint ignores level 1": (
        DeltaProgram.footprint,
        "for key in seeded.next_keys),",
        "for key in ()),",
        "refresh = recompute",
    ),
    "the footprint ignores levels >= 2": (
        DeltaProgram.footprint,
        "for relation in relations[2:]),",
        "for relation in relations[3:]),",
        "refresh = recompute",
    ),
    "the hold aliases the backend's live bucket": (
        Seeded.lookup_keys,
        "list(self.source.lookup_keys(relation, positions, keys, stats)[0])",
        "self.source.lookup_keys(relation, positions, keys, stats)[0]",
        "the held group is current",
    ),
    "holds survive a failed join": (
        IncrementalResult.refresh,
        "seeded.rows = None",
        "pass",
        "a failed refresh leaves no hold",
    ),
    "no re-registration after a patch": (
        IncrementalResult.refresh,
        "self._watch(db.change_log)",
        "pass",
        "a patch moves the watched keys",
    ),
    "marking on insert only": (
        ChangeLog.extend,
        "watched = self._watched.get(relation)",
        "watched = self._watched.get(relation) if op == '+' else None",
        "refresh = recompute",
    ),
    "clearing the mark after the slice is read": (
        IncrementalResult.refresh,
        "        slice = db.change_log.slice_since(self.watermark)\n",
        "        slice = db.change_log.slice_since(self.watermark)\n    self._mark.marked = False\n",
        "a write during a refresh is seen by the next",
    ),
    "the last-slice shortcut survives compaction": (
        ChangeLog.extend,
        "self._slices.clear()",
        "pass",
        "a compacted span is never served",
    ),
    "the latest slice survives a write": (
        ChangeLog.extend,
        "self.latest = None",
        "pass",
        "an unmarked refresh reaches the log's watermark",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_seeded_hold_mutants_are_killed(monkeypatch, name):
    target, old, new, killer = MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1, f"mutation site of {name!r} moved"
    module = inspect.getmodule(target)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<{name}>", "exec"), namespace)
    owner = getattr(module, target.__qualname__.split(".")[0])
    monkeypatch.setattr(owner, target.__name__, namespace[target.__name__])
    killed_by = []
    for label, check in PROPERTIES.items():
        try:
            check()
        except Exception:
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killer in killed_by, f"{name!r} survived {killer}: killed by {killed_by}"
