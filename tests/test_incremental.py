"""Tests for incremental scale independence (repro.incremental).

The heart is differential: after every churn batch, ``refresh()`` must
agree exactly with a from-scratch execution on the mutated database --
through the batched pipeline, the per-tuple reference path and naive
active-domain evaluation -- for mixed, delete-only and insert-only
streams.  Around that: derivation counting under shared answers,
watermark/no-op semantics, the delta access bound, unions, embedded-rule
rejection and the access-schema-change rebase.
"""

import copy
import gc
import weakref

import pytest

from reference_executor import execute_per_tuple
from sql_oracle import SqlOracle
from repro import (
    CompactedError,
    Database,
    Engine,
    IncrementalError,
    IncrementalResult,
    MemoryBackend,
    ViewState,
    delta_fanout_bound,
)
from repro.core.executor import DeltaProgram, Pipeline, execute_plan
from repro.logic.parser import parse_query
from repro.relational import instance
from repro.relational.instance import COMPACT_MIN_DEAD, SLICE_CACHE_SIZE, LogSlice
from repro.workloads import (
    RUNNING_QUERIES,
    SOCIAL_ACCESS,
    SOCIAL_SCHEMA,
    VIEW_QUERIES,
    ChurnBatch,
    generate_churn,
    generate_social_network,
    register_workload_views,
    sample_pids,
    social_engine,
)

CHURN_CASES = [
    ("mixed", 0.5),
    ("delete_only", 1.0),
    ("insert_only", 0.0),
]


@pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
@pytest.mark.parametrize("label, delete_fraction", CHURN_CASES, ids=lambda c: str(c))
def test_refresh_matches_from_scratch_execution(bundle, label, delete_fraction):
    for persons, seed in ((40, 0), (90, 3)):
        engine = social_engine(persons, seed=seed)
        db = engine.require_database()
        prepared = bundle.prepare(engine)
        plan = prepared.plan(bundle.parameters)
        query = parse_query(bundle.query, schema=engine.schema)
        param = bundle.parameters[0]
        pids = range(0, persons, 5)
        live = {pid: prepared.execute_incremental({param: pid}) for pid in pids}
        stream = generate_churn(
            generate_social_network(persons, seed=seed),
            batches=4,
            batch_size=12,
            seed=seed + 1,
            delete_fraction=delete_fraction,
        )
        for batch in stream:
            batch.apply(db, strict=True)
            for pid in pids:
                result = live[pid].refresh()
                refreshed = set(result.rows)
                batched = set(execute_plan(plan, db, {param: pid}))
                per_tuple = set(execute_per_tuple(plan, db, {param: pid}))
                naive = set(query.evaluate(db, {param: pid}))
                assert refreshed == batched == per_tuple == naive, (
                    f"{bundle.name}/{label} diverges at persons={persons} "
                    f"seed={seed} pid={pid}"
                )


@pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
def test_refresh_stays_within_delta_bound_and_never_scans(bundle):
    persons, seed = 120, 1
    engine = social_engine(persons, seed=seed)
    db = engine.require_database()
    prepared = bundle.prepare(engine)
    plans = (prepared.plan(bundle.parameters),)
    param = bundle.parameters[0]
    live = {pid: prepared.execute_incremental({param: pid}) for pid in range(0, 40, 3)}
    stream = generate_churn(
        generate_social_network(persons, seed=seed), batches=3, batch_size=10, seed=9
    )
    for batch in stream:
        watermark = db.change_log.watermark
        batch.apply(db)
        delta = db.change_log.net_since(watermark)
        sizes = {relation: len(rows) for relation, rows in delta.items()}
        bound = sum(delta_fanout_bound(plan, sizes) for plan in plans)
        for result in live.values():
            result.refresh()
            assert result.stats.tuples_accessed <= bound
            assert result.stats.full_scans == 0
            assert result.delta_bound <= bound


def test_refresh_access_depends_on_slice_not_database_size():
    """The same churn batch against a 30x bigger database must not cost a
    single extra tuple: the delta bound is database-size independent and
    the measured accesses respect it at both scales."""
    bounds = {}
    for persons in (100, 3000):
        engine = social_engine(persons, seed=0)
        db = engine.require_database()
        prepared = RUNNING_QUERIES[2].prepare(engine)  # Q3, the deepest plan
        live = prepared.execute_incremental(p=1)
        db.insert_many("friend", [(1, 7), (7, 2)])
        db.delete_many("friend", db.lookup("friend", {0: 2})[:1])
        live.refresh()
        bounds[persons] = (live.delta_bound, live.stats.tuples_accessed)
    assert bounds[100][0] == bounds[3000][0]  # identical slice -> identical bound
    assert bounds[3000][1] <= bounds[3000][0]


def test_counting_keeps_answers_with_surviving_derivations():
    """An answer produced by two derivations must survive the deletion of
    one of them -- the counting semantics deletions require."""
    engine = social_engine(2, seed=0)  # tiny shell; we control the data
    db = engine.require_database()
    db.delete_many("friend", db.scan("friend"))
    db.delete_many("person", db.scan("person"))
    db.insert_many("person", [(0, "a", "NYC"), (1, "b", "NYC"), (2, "c", "NYC")])
    db.insert_many("friend", [(0, 1), (1, 2), (0, 2), (2, 2)])
    # Q3: friends-of-friends of 0 in NYC; answer 2 is derivable via
    # 0->1->2 and via 0->2->2.
    prepared = engine.query(RUNNING_QUERIES[2].query)
    live = prepared.execute_incremental(p=0)
    assert (2,) in live.rows
    db.delete_many("friend", [(1, 2)])
    live.refresh()
    assert (2,) in live.rows  # the 0->2->2 derivation survives
    db.delete_many("friend", [(2, 2)])
    live.refresh()
    assert (2,) not in live.rows  # the last derivation died
    assert set(live.rows) == set(prepared.execute(p=0).rows)


def test_noop_refresh_costs_zero_accesses_and_advances_nothing():
    engine = social_engine(50, seed=2)
    prepared = RUNNING_QUERIES[0].prepare(engine)
    live = prepared.execute_incremental(p=3)
    watermark = live.watermark
    rows = live.rows
    live.refresh()
    assert live.watermark == watermark
    assert live.rows == rows
    assert live.stats.tuples_accessed == 0
    assert live.stats.indexed_lookups == 0
    assert live.delta_bound == 0


def test_watermark_advances_past_applied_changes():
    engine = social_engine(50, seed=2)
    db = engine.require_database()
    prepared = RUNNING_QUERIES[0].prepare(engine)
    live = prepared.execute_incremental(p=3)
    before = live.watermark
    db.insert_many("friend", [(3, 49)])
    assert db.change_log.watermark == before + 1
    live.refresh()
    assert live.watermark == before + 1


def test_irrelevant_changes_refresh_for_free():
    """A slice that only touches relations outside the query costs zero
    accesses."""
    engine = social_engine(50, seed=2)
    db = engine.require_database()
    prepared = RUNNING_QUERIES[0].prepare(engine)  # Q1: friend + person only
    live = prepared.execute_incremental(p=3)
    db.insert_many("visits", [(3, "url999")])
    live.refresh()
    assert live.stats.tuples_accessed == 0
    assert set(live.rows) == set(prepared.execute(p=3).rows)


def test_union_query_refreshes_per_disjunct():
    engine = social_engine(80, seed=4)
    db = engine.require_database()
    prepared = engine.query(
        "Q(y) :- friend(p, y), person(y, n, 'NYC') ; "
        "Q(y) :- friend(p, y), person(y, n, 'SF')"
    )
    live = prepared.execute_incremental(p=1)
    stream = generate_churn(
        generate_social_network(80, seed=4), batches=3, batch_size=8, seed=5
    )
    for batch in stream:
        batch.apply(db)
        live.refresh()
        assert set(live.rows) == set(prepared.execute(p=1).rows)


def test_embedded_access_rule_is_rejected():
    engine = social_engine(20, seed=0)
    engine.access = (
        "person(pid -> 1); friend(pid1 -> pid2, 32); visits(pid -> 8)"
    )
    prepared = RUNNING_QUERIES[0].prepare(engine)
    with pytest.raises(IncrementalError) as excinfo:
        prepared.execute_incremental(p=1)
    # The message names the offending relation and rule, so the fix
    # (declare a plain rule) is actionable without reading the plan.
    message = str(excinfo.value)
    assert "'friend'" in message
    assert "friend(pid1 -> pid2, 32)" in message
    assert "plain rule" in message


def test_access_schema_change_rebases_on_refresh():
    engine = social_engine(60, seed=1)
    db = engine.require_database()
    prepared = RUNNING_QUERIES[0].prepare(engine)
    live = prepared.execute_incremental(p=2)
    db.insert_many("friend", [(2, 59)])
    engine.access = "person(pid -> 1); friend(pid1 -> 64); visits(pid -> 8)"
    live.refresh()
    assert live.last_mode == "rebase"
    assert set(live.rows) == set(prepared.execute(p=2).rows)
    # After the rebase, plain delta refreshes resume.
    db.insert_many("friend", [(2, 58)])
    live.refresh()
    assert live.last_mode == "delta"
    assert set(live.rows) == set(prepared.execute(p=2).rows)


def test_refresh_analyze_records_delta_pipeline_profiles():
    engine = social_engine(60, seed=1)
    db = engine.require_database()
    prepared = RUNNING_QUERIES[2].prepare(engine)
    live = prepared.execute_incremental(p=2)
    db.insert_many("friend", [(2, 59), (59, 3)])
    live.refresh(analyze=True)
    assert live.profiles  # one PlanProfile per plan
    operators = [op.operator for profile in live.profiles for op in profile.operators]
    assert any(op.startswith("Δ[") for op in operators)
    rendered = str(live.explain_analyze())
    assert "Δ[1]" in rendered
    assert "rows" in rendered
    # The default refresh skips profile bookkeeping (the hot path).
    db.insert_many("friend", [(2, 58)])
    live.refresh()
    assert live.profiles == ()


def test_engine_one_shot_and_refresh_sugar():
    engine = social_engine(40, seed=3)
    live = engine.query("Q(y) :- friend(p, y)").execute_incremental(p=1)
    assert isinstance(live, IncrementalResult)
    engine.database.insert_many("friend", [(1, 39)])
    assert live.refresh() is live
    assert (39,) in live


def test_result_behaves_like_a_sequence():
    engine = social_engine(40, seed=3)
    live = engine.query("Q(y) :- friend(p, y)").execute_incremental(p=1)
    rows = live.rows
    assert len(live) == len(rows)
    assert list(live) == list(rows)
    assert all(row in live for row in rows)
    assert "nope" not in live
    assert bool(live) == bool(rows)
    assert live.columns == ("y",)
    assert live.to_dicts() == [{"y": row[0]} for row in rows]
    assert "IncrementalResult" in repr(live)


def test_gained_rows_append_and_lost_rows_drop_in_place():
    engine = social_engine(2, seed=0)
    db = engine.require_database()
    db.delete_many("friend", db.scan("friend"))
    db.insert_many("friend", [(0, 10), (0, 11)])
    live = engine.query("Q(y) :- friend(p, y)").execute_incremental(p=0)
    assert live.rows == ((10,), (11,))
    db.delete_many("friend", [(0, 10)])
    db.insert_many("friend", [(0, 12)])
    live.refresh()
    assert live.rows == ((11,), (12,))


def test_constant_wrapped_parameter_values_refresh_correctly():
    """Regression: parameter values arriving as Constant wrappers must be
    unwrapped once at the entry point, so the in-memory delta joins see
    the same plain values the database stores."""
    from repro import Constant

    engine = social_engine(30, seed=0)
    db = engine.require_database()
    prepared = engine.query("Q(y) :- friend(p, y)")
    live = prepared.execute_incremental(p=Constant(1))
    assert set(live.rows) == set(prepared.execute(p=1).rows)
    db.insert_many("friend", [(1, 29)])
    live.refresh()
    assert (29,) in live.rows
    assert set(live.rows) == set(prepared.execute(p=Constant(1)).rows)


# -- a refresh costs its slice: what is staged, by whom, how often ---------------


def count_stage_work(monkeypatch):
    """Spy on the per-(program, slice) stage builder and on the slice
    index it resolves: returns the two call logs."""
    staged, indexed = [], []
    build, index = DeltaProgram.stage, LogSlice.index

    def counting_stage(self, slice):
        staged.append((self, slice))
        return build(self, slice)

    def counting_index(self, relation, positions):
        indexed.append((relation, positions))
        return index(self, relation, positions)

    monkeypatch.setattr(DeltaProgram, "stage", counting_stage)
    monkeypatch.setattr(LogSlice, "index", counting_index)
    return staged, indexed


def test_results_over_one_span_share_what_the_slice_decides(monkeypatch):
    """48 results of three programs over one span: a span that meets no
    result's footprint stages nothing; one that marks some stages exactly
    the programs of the marked results -- once each, however many results
    of a program it marked -- and resolves each slice index once per
    changed level of a staged program."""
    persons = 200
    engine = social_engine(persons, seed=1)
    db = engine.require_database()
    pids = list(dict.fromkeys(sample_pids(persons, 40, seed=1)))[:16]
    maintained = [(bundle.prepare(engine), pid) for bundle in RUNNING_QUERIES for pid in pids]
    live = [prepared.execute_incremental(p=pid) for prepared, pid in maintained]
    assert len(live) == 48 and len({id(r._programs[0]) for r in live}) == 3
    staged, indexed = count_stage_work(monkeypatch)
    # Span 1 changes both relations, far from every maintained person:
    # the writes mark nobody, so no refresh stages or indexes anything.
    db.insert_many("friend", [(persons + 7, persons + 8)])
    db.insert_many("visits", [(persons + 7, "url-far")])
    for result in live:
        assert not result._mark.marked
        result.refresh()
        assert result.last_mode == "delta" and result.watermark == db.change_log.watermark
        assert result.stats.tuples_accessed == 0 and result.delta_bound > 0
    assert staged == [] and indexed == []
    # Span 2 reaches a friend ``y`` of a maintained person (not one itself):
    # the page ``y`` visits is Q2's level 1, ``y``'s friends Q3's.  Nothing
    # changed at level 0, so no Q1 result is marked and Q1 is not staged.
    near = next(f for pid in pids for _, f in db.lookup("friend", {0: pid}) if f not in pids)
    db.insert_many("visits", [(near, "url-near")])
    db.insert_many("friend", [(near, persons - 1)])
    marked = {r._programs[0] for r in live if r._mark.marked}
    assert marked == {r._programs[0] for r in live[16:]}  # Q2 and Q3
    for result in live:
        result.refresh()
    assert len({id(slice) for _, slice in staged}) == 1
    assert sorted(id(program) for program, _ in staged) == sorted(map(id, marked))
    # One resolution per changed level: Q2 friend, visits; Q3 friend twice.
    assert sorted(indexed) == [("friend", (0,))] * 3 + [("visits", (0,))]
    (slice,) = {slice for _, slice in staged}
    assert set(slice._index) == {("friend", (0,)), ("visits", (0,))}
    assert not any(result._mark.marked for result in live)
    for (prepared, pid), result in zip(maintained, live):
        assert set(result.rows) == set(prepared.execute(p=pid).rows)
    assert any(("url-near",) in result.rows for result in live[16:32])


REJECTING_ACCESS = "person(pid -> 1); friend(pid1 -> 64); friend(pid2 -> 64); visits(pid -> 16)"


@pytest.mark.parametrize(
    "text",
    [
        "Q(y) :- friend(p, y), p = q",
        # PR 20's shape: every disjunct binds through parameter equalities.
        "Q(y) :- friend(x, y), x = p, x = q ; Q(y) :- friend(y, x), x = p, x = q",
    ],
    ids=["cq", "ucq"],
)
def test_a_seed_the_prefilter_rejects_refreshes_to_empty_for_free(monkeypatch, text):
    data = generate_social_network(60, seed=2)
    engine = Engine(SOCIAL_SCHEMA, REJECTING_ACCESS, data)
    db = engine.require_database()
    prepared = engine.query(text)
    rejected = prepared.execute_incremental(p=1, q=2)
    passing = prepared.execute_incremental(p=1, q=1)
    assert rejected.rows == () and passing.rows
    checks = []
    seed = Pipeline.seed
    monkeypatch.setattr(Pipeline, "seed", lambda self, *args: checks.append(args) or seed(self, *args))
    stream = generate_churn(data, batches=4, batch_size=10, seed=3)
    for batch in stream:
        batch.apply(db)
        db.insert_many("friend", [(1, 59), (59, 1), (2, 58)])  # right at the seeds
        db.delete_many("friend", [(1, 59), (2, 58)])
        for analyze in (False, True):
            db.insert_many("friend", [(1, 57)])
            asked = len(checks)
            rejected.refresh(analyze=analyze)
            passing.refresh()
            # The verdict on values that never change was reached once,
            # at materialisation; no refresh asks again.
            assert len(checks) == asked
            assert rejected.last_mode == "delta" and rejected.rows == ()
            assert rejected.stats == instance.AccessStats()  # zero accesses
            assert rejected.watermark == db.change_log.watermark
            db.delete_many("friend", [(1, 57)])
        assert set(passing.refresh().rows) == set(prepared.execute(p=1, q=1).rows)
    assert prepared.execute(p=1, q=2).rows == () and checks  # the spy does see executes


# -- a failed refresh applies nothing ----------------------------------------


class FaultyBackend(MemoryBackend):
    """A memory backend whose ``lookup_keys`` raises once ``fuse`` more
    calls went through (``None``: never) -- a backend error in the middle
    of a refresh."""

    fuse: int | None = None

    def lookup_keys(self, relation, positions, keys, stats=None):
        if self.fuse is not None:
            if not self.fuse:
                raise OSError("injected backend fault")
            self.fuse -= 1
        return super().lookup_keys(relation, positions, keys, stats)


def test_refresh_that_fails_in_a_later_disjunct_applies_nothing():
    backend = FaultyBackend()
    engine = social_engine(2, seed=0, backend=backend)
    db = engine.require_database()
    db.delete_many("friend", db.scan("friend"))
    db.delete_many("person", db.scan("person"))
    db.insert_many("person", [(0, "a", "NYC"), (1, "b", "NYC"), (2, "c", "SF")])
    db.insert_many("friend", [(0, 2)])
    prepared = engine.query(
        "Q(y) :- friend(p, y), person(y, n, 'NYC') ; "
        "Q(y) :- friend(p, y), person(y, n, 'SF')"
    )
    live = prepared.execute_incremental(p=0)
    rows, counts, watermark = live.rows, copy.deepcopy(live._counts), live.watermark
    assert rows == ((2,),)
    db.insert_many("friend", [(0, 1)])
    # Each disjunct joins the new edge in memory, then looks the person
    # up: let the first disjunct's lookup through, fail the second's.
    backend.fuse = 1
    with pytest.raises(OSError, match="injected"):
        live.refresh()
    backend.fuse = None
    assert (live.rows, live._counts, live.watermark) == (rows, counts, watermark)
    live.refresh()  # the retry starts from the untouched state
    assert live.last_mode == "delta"
    assert set(live.rows) == set(prepared.execute(p=0).rows) == {(1,), (2,)}
    # Had the failed pass left the first disjunct's +1 behind, the retry
    # would have counted (1,) twice and this delete could not remove it.
    db.delete_many("friend", [(0, 1)])
    assert live.refresh().rows == ((2,),)


def test_view_refresh_that_fails_moves_nothing():
    backend = FaultyBackend()
    engine = social_engine(30, seed=1, backend=backend)
    db = engine.require_database()
    engine.views.register("FoF", "FoF(a, c) :- friend(a, b), friend(b, c)")
    state = engine.views.prepare(db, ["FoF"])["FoF"]
    before = (state.rows, dict(state.counts), state.watermark)
    source, target = next(iter(db.scan("friend")))
    db.insert_many("friend", [(target, 29), (29, source)])
    backend.fuse = 0  # the delta joins the slice, then reads old state
    with pytest.raises(OSError, match="injected"):
        state.refresh()
    backend.fuse = None
    assert (state.rows, state.counts, state.watermark) == before
    assert state.refresh()
    assert state.watermark == db.change_log.watermark
    rebuilt = ViewState(state.view, db)
    assert state.counts == rebuilt.counts and set(state.rows) == set(rebuilt.rows)


# -- results reading views: a view hands its answer change to its readers ---


def view_readers(backend=None):
    """A social engine with V1/V2, Q4 (reads V1 and person, never friend)
    prepared on it, and a pid with one NYC person who does not follow it."""
    engine = social_engine(200, seed=1, backend=backend)
    register_workload_views(engine)
    db = engine.require_database()
    p = sample_pids(200, 1, seed=1)[0]
    followers = {f for f, q in db.scan("friend") if q == p}
    outsider = next(
        pid for pid, _, city in db.scan("person") if city == "NYC" and pid not in followers | {p}
    )
    return engine, db, VIEW_QUERIES[0].prepare(engine), p, outsider


def test_view_readers_join_nothing_after_a_write_their_views_do_not_see(monkeypatch):
    engine, db, prepared, _, _ = view_readers()
    pids = list(dict.fromkeys(sample_pids(200, 8, seed=1)))[:4]
    live = [prepared.execute_incremental(p=pid) for pid in pids]
    assert len(live) == 4 and prepared.plan(["p"]).view_relations == {"V1"}
    joins, join = [], DeltaProgram.join
    monkeypatch.setattr(DeltaProgram, "join", lambda self, *args: joins.append(self) or join(self, *args))
    db.insert_many("visits", [(pids[0], "url-new"), (pids[1], "url-new")])
    for result in live:
        assert result.refresh().last_mode == "delta" and result.stats.tuples_accessed == 0
    assert joins == []


def test_a_view_change_at_a_readers_key_marks_it():
    engine, db, prepared, p, outsider = view_readers()
    live = prepared.execute_incremental(p=p)
    assert all(relation != "friend" for relation, _, _ in live._mark.footprint)
    db.insert_many("friend", [(outsider, p)])
    assert not live._mark.marked  # the write met no footprint of the reader ...
    engine.views.prepare(db, ["V1"])
    assert live._mark.marked  # ... the view it changed hands the change on
    assert live._pending == {"V1": {(p, outsider): 1}}
    live.refresh()
    raw = {name: set(db.scan(name)) for name in engine.schema.names}
    assert (outsider,) in live.rows and live._pending == {}
    assert set(live.rows) == SqlOracle(engine.schema, raw).answers(prepared.query, {"p": p})


def test_a_view_reader_whose_join_fails_keeps_its_pending_change():
    backend = FaultyBackend()
    engine, db, prepared, p, outsider = view_readers(backend=backend)
    live = prepared.execute_incremental(p=p)
    before = (live.rows, copy.deepcopy(live._counts), live.watermark)
    db.insert_many("friend", [(outsider, p)])
    backend.fuse = 0  # V1 refreshes without a read; the reader's person lookup fails
    with pytest.raises(OSError, match="injected"):
        live.refresh()
    backend.fuse = None
    assert (live.rows, live._counts, live.watermark) == before
    assert live._mark.marked and live._pending == {"V1": {(p, outsider): 1}}
    assert live.refresh().last_mode == "delta" and live._pending == {}
    assert live._counts == prepared.execute_incremental(p=p)._counts
    assert set(live.rows) == set(prepared.execute(p=p).rows) and (outsider,) in live.rows


def test_a_view_reader_rebases_over_a_view_state_rebuilt_behind_it():
    """Another Database and back, without a refresh between: the view state
    rebuilt for ours never had the reader, so the reader rebases."""
    engine, db, prepared, p, outsider = view_readers()
    live = prepared.execute_incremental(p=p)
    engine.database = Database(engine.schema)
    prepared.execute(p=p)  # V1 rebuilt for the empty database
    engine.database = db
    db.insert_many("friend", [(outsider, p)])
    prepared.execute(p=p)  # ... and for ours, past the write
    assert live.refresh().last_mode == "rebase" and (outsider,) in live.rows
    db.delete_many("friend", [(outsider, p)])
    assert live.refresh().last_mode == "delta" and (outsider,) not in live.rows


def test_a_rebase_leaves_the_readers_of_views_its_plans_no_longer_read():
    engine, db, prepared, p, outsider = view_readers()
    live = prepared.execute_incremental(p=p)
    state = engine.views.state("V1")
    assert live in state.readers
    engine.access = f"{SOCIAL_ACCESS}; friend(pid2 -> 64)"  # Q4 reads friend itself now
    assert live.refresh().last_mode == "rebase" and live._views == {}
    assert live not in state.readers
    db.insert_many("friend", [(outsider, p)])
    engine.views.prepare(db, ["V1"])  # V1 changes at p, no longer ours to join
    assert live._pending == {}
    assert set(live.refresh().rows) == set(prepared.execute(p=p).rows)


def test_a_retry_after_a_fault_reuses_the_staged_slice_and_equals_a_recompute(monkeypatch):
    """The fault hits after the (program, slice) residual was memoised;
    the retry runs over the same slice and residual, and nothing of the
    failed pass shows."""
    backend = FaultyBackend()
    engine = social_engine(40, seed=3, backend=backend)
    db = engine.require_database()
    prepared = RUNNING_QUERIES[2].prepare(engine)  # Q3: two changed levels
    live = prepared.execute_incremental(p=1)
    friend = next(iter(live._counts), (2,))[0]
    db.insert_many("friend", [(1, 39), (39, friend), (friend, 38)])
    db.delete_many("friend", db.lookup("friend", {0: 1})[:1])
    staged, _ = count_stage_work(monkeypatch)
    before = (live.rows, copy.deepcopy(live._counts), live.watermark)
    backend.fuse = 1  # the new-state prefix goes through, an old-state read fails
    with pytest.raises(OSError, match="injected"):
        live.refresh()
    backend.fuse = None
    assert (live.rows, live._counts, live.watermark) == before
    assert len(staged) == 1
    (slice,) = {slice for _, slice in staged}
    assert live.refresh().last_mode == "delta"
    assert len(staged) == 1  # same span, same slice, residual already there
    assert db.change_log.slice_since(before[2]) is slice
    fresh = prepared.execute_incremental(p=1)
    assert live._counts == fresh._counts and set(live.rows) == set(fresh.rows)
    assert set(live.rows) == set(prepared.execute(p=1).rows)


# -- the change log stays bounded under churn --------------------------------


def test_a_loaded_database_nobody_refreshes_retains_almost_nothing():
    engine = social_engine(1000, seed=0)
    db = engine.require_database()
    log = db.change_log
    assert log.watermark == db.size() > 4 * COMPACT_MIN_DEAD
    assert len(log) <= COMPACT_MIN_DEAD  # nobody pins: appends drop it all
    assert log.floor == log.watermark - len(log)
    with pytest.raises(CompactedError, match="compacted"):
        log.net_since(0)


def test_sustained_churn_holds_a_steady_state_log_and_ledgers():
    """200k effective mutations in 16-row batches, every consumer
    refreshed every batch: the log stays under a constant however long
    the run, and a result reading a view holds no view change past its
    refresh; a lagging result holds the floor until it is dropped."""
    persons, seed, batch_size = 300, 2, 16
    data = generate_social_network(persons, seed=seed)
    engine = Engine(SOCIAL_SCHEMA, SOCIAL_ACCESS, data)
    register_workload_views(engine)
    db = engine.require_database()
    log = db.change_log
    engine.views.refresh(db)
    forward = generate_churn(data, batches=64, batch_size=batch_size, seed=seed)
    # Replaying the inverses last-first walks back to the initial state,
    # so the period can repeat for ever with every operation effective.
    period = [*forward, *(ChurnBatch(b.inserts, b.deletes) for b in reversed(forward))]
    maintained = [
        (bundle.prepare(engine), pid)
        for bundle in (*RUNNING_QUERIES, VIEW_QUERIES[0])
        for pid in sample_pids(persons, 2, seed=seed)
    ]
    live = [prepared.execute_incremental(p=pid) for prepared, pid in maintained]
    readers = [result for result in live if result._views]
    assert len(readers) == 2

    def churn(batches: int) -> int:
        """Run ``batches`` batches, everything refreshed after each one;
        returns the most entries the log held after a refresh round."""
        most = 0
        for i in range(batches):
            period[i % len(period)].apply(db)
            for result in live:
                result.refresh()
            engine.views.refresh(db)
            assert all(reader._pending == {} for reader in readers)
            most = max(most, len(log))
        return most

    start = log.watermark
    limit = 4 * COMPACT_MIN_DEAD
    assert churn(len(period) * 98) < limit
    assert log.watermark - start >= 200_000
    for (prepared, pid), result in zip(maintained, live):
        assert result.last_mode == "delta"
        assert set(result.rows) == set(prepared.execute(p=pid).rows)

    # A result that stops refreshing holds the floor at its watermark ...
    prepared, pid = maintained[0]
    lagging = prepared.execute_incremental(p=pid)
    held = lagging.watermark
    churn(len(period) * 3)
    assert log.floor <= held and len(log) >= log.watermark - held > limit
    assert lagging.refresh().last_mode == "delta"  # ... and still refreshes exactly
    assert set(lagging.rows) == set(prepared.execute(p=pid).rows)
    # ... and dropping it releases the pin.
    del lagging
    gc.collect()
    churn(len(period))
    assert log.floor > held and len(log) < limit


def test_a_dropped_slice_takes_what_was_staged_on_it(monkeypatch):
    """The per-(program, slice) residuals live exactly as long as the
    slice: the log's LRU and compaction drop both at once, and nothing
    else holds them."""
    monkeypatch.setattr(instance, "COMPACT_MIN_DEAD", 4)  # before the Database exists
    engine = social_engine(40, seed=5)
    db = engine.require_database()
    log = db.change_log
    live = [bundle.prepare(engine).execute_incremental(p=pid) for bundle in RUNNING_QUERIES for pid in (1, 2)]

    def span(i: int) -> weakref.ref:
        """One more distinct span, everything refreshed over it."""
        mark = log.watermark
        db.insert_many("friend", [(1, 1000 + i), (1000 + i, 2), (2, 1000 + i)])
        db.insert_many("visits", [(1000 + i, f"url{i}-{j}") for j in range(3)])
        for result in live:
            result.refresh()
        slice = log.slice_since(mark)
        assert len(slice.staged) == 3 and all(slice.staged.values())
        return weakref.ref(slice)

    first = span(0)
    later = [span(i) for i in range(1, SLICE_CACHE_SIZE + 2)]
    gc.collect()
    assert first() is None  # more than SLICE_CACHE_SIZE spans later: evicted, gone
    assert later[-1]() is not None  # the hot one is still shared
    # Every pin sits at the watermark, so the next appends compact the
    # whole retained prefix away -- and with it every memoised slice.
    mark = log.watermark
    db.insert_many("visits", [(1, f"bulk{i}") for i in range(8)])
    assert log.floor == mark and not log._slices
    gc.collect()
    assert all(ref() is None for ref in later)
    for result in live:
        assert result.refresh().last_mode == "delta"
