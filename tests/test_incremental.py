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

import pytest

from repro import (
    CompactedError,
    Engine,
    IncrementalError,
    IncrementalResult,
    MemoryBackend,
    ViewState,
    delta_fanout_bound,
)
from repro.core.executor import execute_per_tuple, execute_plan
from repro.logic.parser import parse_query
from repro.relational.instance import COMPACT_MIN_DEAD
from repro.workloads import (
    RUNNING_QUERIES,
    SOCIAL_ACCESS,
    SOCIAL_SCHEMA,
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
    live = engine.execute_incremental("Q(y) :- friend(p, y)", p=1)
    assert isinstance(live, IncrementalResult)
    engine.database.insert_many("friend", [(1, 39)])
    assert live.refresh() is live
    assert (39,) in live


def test_result_behaves_like_a_sequence():
    engine = social_engine(40, seed=3)
    live = engine.execute_incremental("Q(y) :- friend(p, y)", p=1)
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
    live = engine.execute_incremental("Q(y) :- friend(p, y)", p=0)
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
    before = (state.rows, dict(state.counts), state.watermark, list(state._ledger))
    source, target = next(iter(db.scan("friend")))
    db.insert_many("friend", [(target, 29), (29, source)])
    backend.fuse = 0  # the delta joins the slice, then reads old state
    with pytest.raises(OSError, match="injected"):
        state.refresh()
    backend.fuse = None
    assert (state.rows, state.counts, state.watermark, state._ledger) == before
    assert state.refresh()
    assert state.watermark == db.change_log.watermark
    rebuilt = ViewState(state.view, db)
    assert state.counts == rebuilt.counts and set(state.rows) == set(rebuilt.rows)


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
    refreshed every batch: the log and the view ledgers stay under a
    constant however long the run; a lagging result holds the floor until
    it is dropped."""
    persons, seed, batch_size = 300, 2, 16
    data = generate_social_network(persons, seed=seed)
    engine = Engine(SOCIAL_SCHEMA, SOCIAL_ACCESS, data)
    register_workload_views(engine)
    db = engine.require_database()
    log = db.change_log
    states = engine.views.refresh(db)
    forward = generate_churn(data, batches=64, batch_size=batch_size, seed=seed)
    # Replaying the inverses last-first walks back to the initial state,
    # so the period can repeat for ever with every operation effective.
    period = [*forward, *(ChurnBatch(b.inserts, b.deletes) for b in reversed(forward))]
    maintained = [
        (bundle.prepare(engine), pid)
        for bundle in RUNNING_QUERIES
        for pid in sample_pids(persons, 2, seed=seed)
    ]
    live = [prepared.execute_incremental(p=pid) for prepared, pid in maintained]

    def churn(batches: int) -> int:
        """Run ``batches`` batches, everything refreshed after each one;
        returns the most entries the log held after a refresh round."""
        most = 0
        for i in range(batches):
            period[i % len(period)].apply(db)
            for result in live:
                result.refresh()
            engine.views.refresh(db)
            most = max(most, len(log))
        return most

    start = log.watermark
    limit = 4 * COMPACT_MIN_DEAD
    assert churn(len(period) * 98) < limit
    assert log.watermark - start >= 200_000
    assert all(len(state._ledger) < limit // batch_size for state in states.values())
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
