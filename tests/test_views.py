"""Scale independence using views (Section 6): definition validation,
materialization and incremental maintenance, homomorphism rewriting,
engine wiring, and differential correctness of view-assisted plans."""

import pytest

from reference_executor import execute_per_tuple
from sql_oracle import SqlOracle
from repro import (
    Atom,
    Constant,
    Engine,
    MemoryBackend,
    NotControlledError,
    RewritingError,
    SchemaError,
    Variable,
    parse_query,
)
from repro.analysis import certify_plan
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    OldState,
    ProbeOp,
    execute_plan,
    pipeline_for,
)
from repro.logic.homomorphism import body_homomorphisms
from repro.views import ViewDef, ViewState, compile_with_views, implied_view_atoms
from repro.workloads import (
    DEFAULT_VIEW_BOUND,
    VIEW_QUERIES,
    generate_churn,
    generate_social_network,
    max_in_degree,
    register_workload_views,
    sample_urls,
    social_engine,
    workload_views,
)

SCHEMA_TEXT = "person(pid, name, city); friend(pid1, pid2); visits(pid, url)"
ACCESS_TEXT = "person(pid -> 1); friend(pid1 -> 32); visits(pid -> 8)"
DATA = {
    "person": [
        (1, "ann", "NYC"),
        (2, "bob", "SF"),
        (3, "cat", "NYC"),
        (4, "dan", "NYC"),
    ],
    "friend": [(2, 1), (3, 1), (1, 2), (4, 3)],
    "visits": [(1, "url1"), (2, "url1"), (3, "url2")],
}
FOLLOWERS_NYC = "Q(x) :- friend(x, p), person(x, n, 'NYC')"


@pytest.fixture
def engine():
    return Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)


def v1_def(bound=64):
    return ViewDef(
        "V1", "V1(pid, follower) :- friend(follower, pid)", f"V1(pid -> {bound})"
    )


# -- definition-time validation -------------------------------------------


class TestViewDefValidation:
    def test_repeated_head_variable_rejected(self):
        with pytest.raises(RewritingError, match="repeats head variable"):
            ViewDef("V", "V(x, x) :- friend(x, y)")

    def test_empty_body_rejected(self):
        with pytest.raises(RewritingError, match="at least one body atom"):
            ViewDef("V", parse_query("Q()"))

    def test_bad_name_rejected(self):
        with pytest.raises(SchemaError, match="identifier"):
            ViewDef("not a name", "V(x) :- friend(x, y)")

    def test_union_rejected(self):
        with pytest.raises(RewritingError, match="single conjunctive query"):
            ViewDef("V", "V(x) :- friend(x, y) ; V(x) :- friend(y, x)")

    def test_embedded_rule_rejected(self):
        with pytest.raises(SchemaError, match="embedded"):
            ViewDef(
                "V", "V(a, b) :- friend(a, b)", "V(a -> b, 5)"
            )

    def test_rule_on_other_relation_rejected(self):
        from repro import AccessRule

        with pytest.raises(SchemaError):
            ViewDef("V", "V(a, b) :- friend(a, b)", [AccessRule("W", ["a"], 5)])

    def test_rule_attribute_must_be_a_head_name(self):
        from repro import ParseError

        with pytest.raises(ParseError):
            ViewDef("V", "V(a, b) :- friend(a, b)", "V(zzz -> 5)")


class TestViewSetRegistration:
    def test_unknown_body_relation_fails_at_register(self, engine):
        with pytest.raises(SchemaError, match="not definable over the base"):
            engine.views.register("V", "V(x) :- enemies(x, y)")

    def test_wrong_arity_fails_at_register(self, engine):
        with pytest.raises(SchemaError, match="not definable over the base"):
            engine.views.register("V", "V(x) :- friend(x, y, z)")

    def test_name_collision_with_base_relation(self, engine):
        with pytest.raises(SchemaError, match="collides with a base relation"):
            engine.views.register("friend", "friend(a, b) :- visits(a, b)")

    def test_duplicate_registration_rejected(self, engine):
        engine.views.register(v1_def())
        with pytest.raises(SchemaError, match="already registered"):
            engine.views.register(v1_def())

    def test_views_over_views_rejected(self, engine):
        engine.views.register(v1_def())
        with pytest.raises(SchemaError, match="not definable over the base"):
            engine.views.register("V9", "V9(a) :- V1(a, b)")

    def test_register_pieces_and_def_are_exclusive(self, engine):
        with pytest.raises(SchemaError, match="not both"):
            engine.views.register(v1_def(), "V1(a, b) :- friend(a, b)")
        with pytest.raises(SchemaError, match="needs a ViewDef"):
            engine.views.register("V1")

    def test_drop_unknown_view(self, engine):
        with pytest.raises(SchemaError, match="unknown view"):
            engine.views.drop("V1")

    def test_version_bumps_on_register_and_drop(self, engine):
        v0 = engine.views.version
        engine.views.register(v1_def())
        assert engine.views.version == v0 + 1
        engine.views.drop("V1")
        assert engine.views.version == v0 + 2
        assert len(engine.views) == 0

    def test_registry_protocol(self, engine):
        view = engine.views.register(v1_def())
        assert "V1" in engine.views
        assert engine.views.get("V1") is view
        assert engine.views.names() == ("V1",)
        assert [v.name for v in engine.views] == ["V1"]
        with pytest.raises(SchemaError, match="unknown view"):
            engine.views.get("V7")


# -- materialization and maintenance --------------------------------------


class TestViewState:
    def test_materialization_matches_naive_evaluation(self, engine):
        view = v1_def()
        engine.views.register(view)
        db = engine.require_database()
        state = engine.views.prepare(db, ["V1"])["V1"]
        naive = set(view.query.evaluate(db))
        assert set(state.rows) == naive == {(1, 2), (1, 3), (2, 1), (3, 4)}

    def test_store_reads_and_accounting(self, engine):
        from repro import AccessStats

        engine.views.register(v1_def())
        db = engine.require_database()
        store = engine.views.prepare(db, ["V1"])["V1"].store
        stats = AccessStats()
        (rows,) = store.lookup_keys("V1", (0,), [(1,)], stats)
        assert set(rows) == {(1, 2), (1, 3)}
        assert (stats.tuples_accessed, stats.indexed_lookups) == (2, 1)
        assert store.contains_rows("V1", [(1, 2), (9, 9)], stats) == (True, False)
        groups = store.lookup_keys("V1", (0,), [(1,), (1,), (9,)], stats)
        assert [set(g) for g in groups] == [{(1, 2), (1, 3)}, {(1, 2), (1, 3)}, set()]
        # distinct-key accounting: the repeated key is charged once
        assert stats.indexed_lookups == 1 + 2 + 2

    def test_view_reads_charge_the_execution_only(self, engine):
        """Fetch and probe, new face and old: a view read is charged to
        the execution's stats and never to the database's counters."""
        engine.views.register(v1_def())
        db = engine.require_database()
        store = engine.views.prepare(db, ["V1"])["V1"].store
        ctx = ExecutionContext(db, delta={"V1": {(1, 2): -1, (1, 9): 1}})
        before = db.stats.snapshot()
        for source in (store, OldState(store, ctx.slice)):
            source.lookup_keys("V1", (0,), [(1,), (2,)], ctx.stats)
            source.contains_rows("V1", [(1, 3), (9, 9)], ctx.stats)
        assert db.stats == before
        assert (ctx.stats.tuples_accessed, ctx.stats.indexed_lookups) == (8, 8)

    def test_full_view_scan_is_counted_as_scan(self, engine):
        from repro import AccessStats

        engine.views.register(v1_def())
        state = engine.views.prepare(engine.require_database(), ["V1"])["V1"]
        stats = AccessStats()
        (rows,) = state.store.lookup_keys("V1", (), [()], stats)
        assert len(rows) == 4
        assert stats.full_scans == 1

    def test_single_atom_refresh_touches_zero_stored_tuples(self, engine):
        engine.views.register(v1_def())
        db = engine.require_database()
        state = engine.views.prepare(db, ["V1"])["V1"]
        db.insert_many("friend", [(4, 1), (2, 3)])
        db.delete_many("friend", [(2, 1)])
        before = db.stats.snapshot()
        net = state.refresh()
        assert db.stats.since(before).tuples_accessed == 0
        assert net == {(1, 4): 1, (3, 2): 1, (1, 2): -1}
        assert set(state.rows) == set(v1_def().query.evaluate(db))

    def test_index_built_before_a_refresh_stream_stays_current(self, engine):
        """In-place index maintenance is the backend's job now: an index
        built before a mixed refresh stream must answer exactly like one
        built after it."""
        engine.views.register(v1_def())
        db = engine.require_database()
        state = engine.views.prepare(db, ["V1"])["V1"]
        (before,) = state.store.lookup_keys("V1", (0,), [(1,)])  # builds (0,)
        assert set(before) == {(1, 2), (1, 3)}
        for inserts, deletes in [
            ([(4, 1)], [(2, 1)]),
            ([(2, 1), (4, 2)], [(3, 1)]),
            ([(3, 1)], [(4, 1), (1, 2)]),
        ]:
            db.insert_many("friend", inserts)
            db.delete_many("friend", deletes)
            state.refresh()
        keys = [(pid,) for pid in range(1, 5)]
        early = state.store.lookup_keys("V1", (0,), keys)
        rows = state.rows
        assert set(rows) == set(v1_def().query.evaluate(db))
        for key, group in zip(keys, early):
            assert list(group) == [row for row in rows if row[0] == key[0]]
        # An index on other positions, first built now, agrees row for row.
        late = state.store.lookup_keys("V1", (0, 1), list(rows))
        assert [list(g) for g in late] == [[row] for row in rows]

    def test_len_rows_and_order(self, engine):
        engine.views.register(v1_def())
        db = engine.require_database()
        state = engine.views.prepare(db, ["V1"])["V1"]
        assert len(state) == 4 and state.rows[0] == (1, 2)
        db.delete_many("friend", [(2, 1)])
        state.refresh()
        db.insert_many("friend", [(2, 1), (4, 1)])
        state.refresh()
        # First-derivation order; a re-entered row queues up like a new one.
        assert state.rows == ((1, 3), (2, 1), (3, 4), (1, 2), (1, 4))
        assert len(state) == 5
        assert "ViewState('V1', 5 rows" in repr(state)

    def test_multi_atom_view_materializes_and_refreshes(self, engine):
        view = ViewDef(
            "NYCF",
            "NYCF(a, b) :- friend(a, b), person(b, n, 'NYC')",
            "NYCF(a -> 32)",
        )
        engine.views.register(view)
        db = engine.require_database()
        state = engine.views.prepare(db, ["NYCF"])["NYCF"]
        assert set(state.rows) == set(view.query.evaluate(db))
        # Churn both relations, including a person delete that kills
        # derivations sideways.
        db.insert_many("friend", [(2, 3), (2, 4)])
        db.delete_many("person", [(3, "cat", "NYC")])
        db.insert_many("person", [(5, "eli", "NYC")])
        db.insert_many("friend", [(1, 5)])
        state.refresh()
        assert set(state.rows) == set(view.query.evaluate(db))

    def test_a_projecting_view_keeps_one_count_per_row(self, engine):
        """A non-projecting view's rows have one derivation each, so it keeps
        no counts (each reads 1); a projecting view keeps one count per row,
        in answer order, through every 0 <-> 1 <-> 2 crossing, and its
        ``counts`` is a copy."""
        engine.views.register(v1_def())
        engine.views.register(ViewDef("F", "F(pid) :- friend(pid, y)", "F(pid -> 1)"))
        db = engine.require_database()
        states = engine.views.prepare(db, ["V1", "F"])
        v1, f = states["V1"], states["F"]
        assert (v1.flat, f.flat) == (True, False)
        assert f.counts == {(2,): 1, (3,): 1, (1,): 1, (4,): 1}
        for write, rows, net, counts in (
            # (2,) 1 -> 3, (5,) enters last
            (db.insert_many, [(2, 3), (2, 4), (5, 1)], {(5,): 1}, [(2, 3), (3, 1), (1, 1), (4, 1), (5, 1)]),
            # (2,) 3 -> 1 in place: no answer change
            (db.delete_many, [(2, 1), (2, 3)], {}, [(2, 1), (3, 1), (1, 1), (4, 1), (5, 1)]),
            # (2,) and (5,) leave
            (db.delete_many, [(2, 4), (5, 1)], {(2,): -1, (5,): -1}, [(3, 1), (1, 1), (4, 1)]),
            # (2,) re-enters at 2, last
            (db.insert_many, [(2, 1), (2, 3)], {(2,): 1}, [(3, 1), (1, 1), (4, 1), (2, 2)]),
        ):
            write("friend", rows)
            for state in (v1, f):
                changed = state.refresh()
                rebuilt = ViewState(state.view, db)
                assert state.counts == rebuilt.counts
                assert set(state.rows) == set(rebuilt.rows) == set(state.counts)
                assert all(sign in (1, -1) for sign in changed.values())
            assert set(v1.counts.values()) == {1}
            assert f.refresh() == {} and changed == net
            assert list(f.counts.items()) == [((pid,), n) for pid, n in counts]
            assert f.rows == tuple(f.counts)
        f.counts[(2,)] = 99
        assert f.counts[(2,)] == 2

    def test_unsatisfiable_view_is_empty(self, engine):
        view = ViewDef("EMPTY", "EMPTY(a) :- friend(a, b), b = 1, b = 2")
        engine.views.register(view)
        state = engine.views.prepare(engine.require_database(), ["EMPTY"])["EMPTY"]
        assert state.rows == ()


#: A flat two-atom view (its head keeps every body variable) and its
#: projecting twin (the head drops the middle person).
FLAT_AND_PROJECTING = {
    "FOF3": "FOF3(x, y, z) :- friend(x, y), friend(y, z)",
    "FOF2": "FOF2(x, z) :- friend(x, y), friend(y, z)",
}


def churned_views(backend):
    """Both views of FLAT_AND_PROJECTING over a churned social network:
    yields each state right after each refresh, then checks it against
    its rematerialisation."""
    data = generate_social_network(60, seed=4)
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data, backend=backend)
    for name, text in FLAT_AND_PROJECTING.items():
        engine.views.register(name, text)
    db = engine.require_database()
    states = engine.views.prepare(db)
    assert (states["FOF3"].flat, states["FOF2"].flat) == (True, False)
    for batch in generate_churn(data, batches=8, batch_size=12, seed=5):
        batch.apply(db)
        for state in states.values():
            net = state.refresh()
            yield state
            rebuilt = ViewState(state.view, db)
            assert set(state.rows) == set(rebuilt.rows) and state.counts == rebuilt.counts
            assert all(sign in (1, -1) for sign in net.values())
    # The churn drove the projecting view's fold past a count of 1.
    assert any(n > 1 for n in states["FOF2"].counts.values())


def test_flat_and_projecting_views_refresh_to_their_rematerialisation(backend_factory):
    assert sum(1 for _ in churned_views(backend_factory())) == 16


def test_no_view_refresh_asks_its_store(monkeypatch):
    """The projecting view folds its join's changes into its own counts and
    the flat one applies them as they stand: neither asks its store which
    changed rows it held."""
    asked: list = []
    contains_rows = MemoryBackend.contains_rows

    def spied(self, relation, rows, stats=None):
        asked.append(relation)
        return contains_rows(self, relation, rows, stats)

    monkeypatch.setattr(MemoryBackend, "contains_rows", spied)
    refreshed = [state.view.name for state in churned_views(MemoryBackend())]
    assert sorted(set(refreshed)) == sorted(FLAT_AND_PROJECTING) and len(refreshed) == 16
    assert not set(asked) & set(FLAT_AND_PROJECTING)


def test_a_result_reading_a_projecting_view_follows_its_count_crossings(backend_factory):
    """``Q(x) :- friend(x, y)`` is answered from the projecting view F: a
    row leaves the maintained result only when F's count for it reaches 0,
    through every 0 <-> 1 <-> 2 crossing, on both backends."""
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, DATA, backend=backend_factory())
    engine.views.register("F", "F(pid) :- friend(pid, y)", "F({} -> 16)")
    db = engine.require_database()
    prepared = engine.query("Q(x) :- friend(x, y)")
    live = prepared.execute_incremental()
    assert prepared.plan([]).view_relations == {"F"}
    raw = {name: set(rows) for name, rows in DATA.items()}
    for inserted, rows in (
        (True, [(2, 3), (2, 4), (5, 1)]),  # F(2) 1 -> 3, F(5) enters
        (False, [(2, 1), (2, 3)]),  # F(2) 3 -> 1
        (False, [(2, 4), (5, 1)]),  # F(2) and F(5) leave
        (True, [(2, 1), (2, 3)]),  # F(2) re-enters at 2
    ):
        (db.insert_many if inserted else db.delete_many)("friend", rows)
        (raw["friend"].update if inserted else raw["friend"].difference_update)(rows)
        assert live.refresh().last_mode == "delta"
        oracle = SqlOracle(engine.schema, raw).answers(prepared.query)
        assert set(live.rows) == set(prepared.execute().rows) == oracle


# -- rewriting -------------------------------------------------------------


class TestRewriting:
    def test_body_homomorphisms_enumerates_all_mappings(self):
        source = parse_query("Q(a, b) :- friend(a, b)").body
        target = parse_query("Q(x) :- friend(x, y), friend(y, x)").body
        homs = list(body_homomorphisms(source, target))
        assert len(homs) == 2
        a, b = Variable("a"), Variable("b")
        mapped = {(h[a], h[b]) for h in homs}
        assert mapped == {
            (Variable("x"), Variable("y")),
            (Variable("y"), Variable("x")),
        }

    def test_body_homomorphisms_match_constants_by_value(self):
        source = parse_query("Q(x) :- person(x, n, 'NYC')").body
        target_hit = parse_query("Q(y) :- person(y, m, 'NYC')").body
        target_miss = parse_query("Q(y) :- person(y, m, 'SF')").body
        assert list(body_homomorphisms(source, target_hit))
        assert not list(body_homomorphisms(source, target_miss))

    def test_implied_view_atoms(self, engine):
        query = parse_query(FOLLOWERS_NYC, schema=engine.schema)
        implied = implied_view_atoms(query, workload_views())
        assert implied == (
            (Atom("V1", (Variable("p"), Variable("x"))), "V1"),
        )

    def test_no_mapping_no_atoms(self, engine):
        query = parse_query("Q(u) :- visits(p, u)", schema=engine.schema)
        implied = implied_view_atoms(query, (v1_def(),))
        assert implied == ()


# -- engine wiring ---------------------------------------------------------


class TestEngineViews:
    def test_uncontrolled_query_executes_once_view_registered(self, engine):
        q = engine.query(FOLLOWERS_NYC)
        with pytest.raises(NotControlledError):
            q.execute(p=1)
        engine.views.register(v1_def())
        result = q.execute(p=1)
        assert set(result.rows) == {(3,)}  # followers of 1: {2, 3}; NYC: 3
        assert result.stats.tuples_accessed <= result.fanout_bound
        assert result.stats.full_scans == 0

    def test_controlled_query_never_uses_views(self, engine):
        engine.views.register(v1_def())
        q = engine.query("Q(y) :- friend(p, y), person(y, n, 'NYC')")
        plan = q.plan(["p"])
        assert plan.view_relations == frozenset()

    def test_unhelpful_views_still_raise_not_controlled(self, engine):
        engine.views.register(v1_def())
        with pytest.raises(NotControlledError, match="view"):
            engine.execute("Q(y) :- visits(y, u)", u="url1")

    def test_no_views_message_unchanged(self, engine):
        with pytest.raises(NotControlledError):
            engine.execute("Q(y) :- visits(y, u)", u="url1")

    def test_combined_error_carries_the_base_diagnostic(self, engine):
        # With views registered but unhelpful, the error names both the
        # missing rewriting and the base compile's own diagnostic
        # (unreachable variables / uncovered atoms).
        engine.views.register(v1_def())
        with pytest.raises(NotControlledError, match="unreachable|uncovered"):
            engine.execute("Q(y) :- visits(y, u)", u="url1")

    def test_snapshot_is_immutable_under_registry_churn(self, engine):
        engine.views.register(v1_def())
        catalog = engine.views.snapshot()
        assert catalog.names() == ("V1",)
        engine.views.drop("V1")
        # The catalog still describes the population it was taken from;
        # the live registry has moved on (and bumped its version).
        assert catalog.names() == ("V1",)
        assert "V1" in catalog.extended_schema()
        assert engine.views.snapshot().names() == ()
        assert engine.views.snapshot().version == catalog.version + 1

    def test_drop_restores_not_controlled(self, engine):
        engine.views.register(v1_def())
        q = engine.query(FOLLOWERS_NYC)
        assert q.execute(p=1)
        engine.views.drop("V1")
        with pytest.raises(NotControlledError):
            q.execute(p=1)

    def test_register_strands_cached_plans(self, engine):
        # A plan cached before a view registration must not be served
        # after it: the views version is part of the cache key.
        q = engine.query("Q(y) :- friend(p, y)")
        q.execute(p=1)
        misses = engine.cache_stats().misses
        engine.views.register(v1_def())
        q.execute(p=1)
        assert engine.cache_stats().misses == misses + 1  # recompiled

    def test_view_plans_lower_to_view_operators(self, engine):
        engine.views.register(v1_def())
        plan = engine.query(FOLLOWERS_NYC).plan(["p"])
        ops = pipeline_for(plan)
        assert any(isinstance(op, FetchOp) and op.view for op in ops)
        assert "V1" in plan.view_relations
        explained = engine.query(FOLLOWERS_NYC).explain(["p"])
        assert "V1" in explained

    def test_view_reads_do_not_inflate_database_stats(self, engine):
        engine.views.register(v1_def())
        q = engine.query(FOLLOWERS_NYC)
        q.execute(p=1)  # warm: materialization scans are charged to db
        db = engine.require_database()
        before = db.stats.snapshot()
        result = q.execute(p=1)
        base_delta = db.stats.since(before)
        # The execution's own stats include the view reads, so they
        # exceed the database's base-table-only delta.
        assert result.stats.tuples_accessed > base_delta.tuples_accessed
        assert base_delta.full_scans == 0

    def test_views_refresh_lazily_before_execution(self, engine):
        engine.views.register(v1_def())
        q = engine.query(FOLLOWERS_NYC)
        assert set(q.execute(p=1).rows) == {(3,)}
        engine.database.insert_many("friend", [(4, 1)])  # 4 follows 1; dan is NYC
        assert set(q.execute(p=1).rows) == {(3,), (4,)}
        engine.database.delete_many("friend", [(3, 1)])
        assert set(q.execute(p=1).rows) == {(4,)}

    def test_prepare_refreshes_a_stale_view_in_place_without_the_registry_lock(self, engine):
        """The per-execute fast path: a write makes V1 stale, and the next
        prepare refreshes the same state under V1's own lock -- the
        registry lock is never taken -- to what a fresh materialisation
        holds."""
        engine.views.register(v1_def())
        db = engine.require_database()
        state = engine.views.prepare(db, ("V1",))["V1"]
        db.insert_many("friend", [(4, 1), (2, 4)])
        db.delete_many("friend", [(3, 1)])
        registry = engine.views._lock
        taken = []

        class Watched:
            def __enter__(self):
                taken.append(1)
                return registry.__enter__()

            def __exit__(self, *exc):
                return registry.__exit__(*exc)

        engine.views._lock = Watched()
        try:
            served = engine.views.prepare(db, ("V1",))
        finally:
            engine.views._lock = registry
        assert served["V1"] is state and not taken
        assert state.watermark == db.change_log.watermark
        assert set(state.rows) == set(ViewState(engine.views.get("V1"), db).rows)

    def test_a_dropped_view_is_never_served(self, engine):
        """Neither after a drop nor while a state outlives it in the
        registry (a materialisation racing the drop): the name must be
        registered, or prepare raises."""
        import threading

        engine.views.register(v1_def())
        db = engine.require_database()
        dropped = engine.views.prepare(db, ("V1",))["V1"]
        engine.views.drop("V1")
        db.insert_many("friend", [(4, 1)])
        with pytest.raises(SchemaError, match="unknown view"):
            engine.views.prepare(db, ("V1",))
        engine.views._states["V1"] = dropped
        engine.views._state_locks["V1"] = threading.Lock()
        with pytest.raises(SchemaError, match="unknown view"):
            engine.views.prepare(db, ("V1",))
        del engine.views._states["V1"], engine.views._state_locks["V1"]
        engine.views.register(v1_def())
        fresh = engine.views.prepare(db, ("V1",))["V1"]
        assert fresh is not dropped
        assert set(fresh.rows) == set(ViewState(engine.views.get("V1"), db).rows)

    def test_union_with_view_needing_disjunct(self, engine):
        engine.views.register(v1_def())
        u = engine.query(
            "Q(x) :- friend(p, x) ; Q(x) :- friend(x, p)"
        )
        result = u.execute(p=1)
        assert set(result.rows) == {(2,), (3,)}  # 1 follows 2; 2 and 3 follow 1

    def test_explain_analyze_on_view_plan(self, engine):
        engine.views.register(v1_def())
        analyzed = engine.query(FOLLOWERS_NYC).explain_analyze(p=1)
        assert set(analyzed.result.rows) == {(3,)}
        assert "view scan" in str(analyzed)

    def test_executing_view_plan_without_states_is_a_clear_error(self, engine):
        engine.views.register(v1_def())
        plan = engine.query(FOLLOWERS_NYC).plan(["p"])
        with pytest.raises(SchemaError, match="no state"):
            execute_plan(plan, engine.require_database(), {"p": 1})

    def test_replacing_database_rematerializes(self, engine):
        from repro import Database

        engine.views.register(v1_def())
        q = engine.query(FOLLOWERS_NYC)
        assert set(q.execute(p=1).rows) == {(3,)}
        engine.database = Database(
            engine.schema,
            {
                "person": [(1, "ann", "NYC"), (7, "gil", "NYC")],
                "friend": [(7, 1)],
                "visits": [],
            },
        )
        assert set(q.execute(p=1).rows) == {(7,)}


# -- incremental execution over view-assisted plans ------------------------


class TestIncrementalViewPlans:
    def test_refresh_matches_recompute_after_mixed_churn(self, engine):
        engine.views.register(v1_def())
        q = engine.query(FOLLOWERS_NYC)
        live = q.execute_incremental(p=1)
        db = engine.require_database()
        db.insert_many("friend", [(4, 1)])
        db.insert_many("person", [(6, "fay", "NYC")])
        db.insert_many("friend", [(6, 1)])
        db.delete_many("friend", [(3, 1)])
        live.refresh()
        assert live.last_mode == "delta"
        assert set(live.rows) == set(q.execute(p=1).rows) == {(4,), (6,)}

    def test_refresh_is_delta_bounded(self, engine):
        engine.views.register(v1_def())
        live = engine.query(FOLLOWERS_NYC).execute_incremental(p=1)
        db = engine.require_database()
        db.insert_many("friend", [(4, 1)])
        live.refresh()
        assert live.delta_bound is not None
        assert live.stats.tuples_accessed <= live.delta_bound
        assert live.stats.full_scans == 0

    def test_view_register_or_drop_rebases(self, engine):
        engine.views.register(v1_def())
        live = engine.query(FOLLOWERS_NYC).execute_incremental(p=1)
        engine.views.register(
            ViewDef("V2", "V2(url, visitor) :- visits(visitor, url)", "V2(url -> 8)")
        )
        live.refresh()
        assert live.last_mode == "rebase"
        assert set(live.rows) == {(3,)}

    def test_no_op_refresh_is_free(self, engine):
        engine.views.register(v1_def())
        live = engine.query(FOLLOWERS_NYC).execute_incremental(p=1)
        live.refresh()
        assert live.last_mode == "delta"
        assert live.stats.tuples_accessed == 0


# -- differential tests on seeded workloads --------------------------------


SIZES_AND_SEEDS = [(30, 0), (30, 5), (90, 2)]


def _view_engines():
    for persons, seed in SIZES_AND_SEEDS:
        engine = social_engine(persons, seed=seed)
        register_workload_views(engine)
        yield persons, seed, engine


def _parameter_values(bundle, persons, seed):
    if bundle.name == "Q5":
        data = generate_social_network(persons, seed=seed)
        return [{"u": url} for url in sorted({r[1] for r in data["visits"]})]
    return [{"p": pid} for pid in range(persons)]


@pytest.mark.parametrize("bundle", VIEW_QUERIES, ids=lambda b: b.name)
def test_view_assisted_matches_per_tuple_and_naive(bundle):
    for persons, seed, engine in _view_engines():
        prepared = bundle.prepare(engine)
        plan = prepared.plan(bundle.parameters)
        db = engine.require_database()
        states = engine.views.prepare(db, plan.view_relations)
        query = parse_query(bundle.query, schema=engine.schema)
        for values in _parameter_values(bundle, persons, seed):
            facade = set(prepared.execute(values).rows)
            ctx = ExecutionContext(db, views=states)
            batched = set(execute_plan(plan, ctx, values))
            per_tuple = set(
                execute_per_tuple(plan, ExecutionContext(db, views=states), values)
            )
            naive = set(query.evaluate(db, values))
            assert facade == batched == per_tuple == naive, (
                f"{bundle.name} disagrees at persons={persons} seed={seed} "
                f"values={values}"
            )


@pytest.mark.parametrize("bundle", VIEW_QUERIES, ids=lambda b: b.name)
def test_view_assisted_matches_naive_after_churn(bundle):
    for persons, seed, engine in _view_engines():
        prepared = bundle.prepare(engine)
        db = engine.require_database()
        data = generate_social_network(persons, seed=seed)
        query = parse_query(bundle.query, schema=engine.schema)
        for batch in generate_churn(data, batches=3, batch_size=12, seed=seed + 9):
            batch.apply(db)
            for values in _parameter_values(bundle, persons, seed)[::7]:
                result = prepared.execute(values)  # views refresh lazily
                naive = set(query.evaluate(db, values))
                assert set(result.rows) == naive, (
                    f"{bundle.name} diverged after churn at persons={persons} "
                    f"seed={seed} values={values}"
                )
                assert result.stats.tuples_accessed <= result.fanout_bound


@pytest.mark.parametrize("bundle", VIEW_QUERIES, ids=lambda b: b.name)
def test_view_assisted_access_is_bounded_independent_of_size(bundle):
    """The acceptance claim: the same constant fanout bound covers every
    execution at every database size -- the bound is a function of the
    declared rules only, and measured accesses stay within it."""
    bounds = set()
    for persons in (50, 500):
        engine = social_engine(persons)
        register_workload_views(engine)
        prepared = bundle.prepare(engine)
        data = generate_social_network(persons)
        values_stream = (
            [{"u": u} for u in sample_urls(data, 6)]
            if bundle.name == "Q5"
            else [{"p": p} for p in range(0, persons, persons // 6)]
        )
        for values in values_stream:
            result = prepared.execute(values)
            bounds.add(result.fanout_bound)
            assert result.stats.tuples_accessed <= result.fanout_bound
            assert result.stats.full_scans == 0
    assert len(bounds) == 1  # one database-size-independent bound


def test_incremental_view_queries_refresh_correctly_on_seeded_churn():
    for persons, seed, engine in _view_engines():
        db = engine.require_database()
        data = generate_social_network(persons, seed=seed)
        prepared = {b.name: b.prepare(engine) for b in VIEW_QUERIES}
        live = {
            name: p.execute_incremental(_parameter_values_one(name, persons, seed))
            for name, p in prepared.items()
        }
        for batch in generate_churn(data, batches=3, batch_size=10, seed=seed + 3):
            batch.apply(db)
            for name, result in live.items():
                result.refresh()
                assert result.last_mode == "delta"
                fresh = prepared[name].execute(
                    _parameter_values_one(name, persons, seed)
                )
                assert set(result.rows) == set(fresh.rows), (
                    f"{name} incremental diverged at persons={persons} "
                    f"seed={seed}"
                )


def _parameter_values_one(name, persons, seed):
    if name == "Q5":
        data = generate_social_network(persons, seed=seed)
        return {"u": sample_urls(data, 1, seed=seed)[0]}
    return {"p": persons // 2}


def test_workload_view_bounds_are_truthful_on_generated_instances():
    for persons, seed in SIZES_AND_SEEDS + [(400, 0)]:
        data = generate_social_network(persons, seed=seed)
        assert max_in_degree(data, "friend") <= DEFAULT_VIEW_BOUND
        assert max_in_degree(data, "visits") <= DEFAULT_VIEW_BOUND


def test_view_probe_operator_appears_for_fully_bound_view_atoms():
    # With both views registered, "who visited ?u AND follows ?p" binds
    # the visitor through V2 and then has the implied V1 atom fully
    # bound, so the pipeline carries a view *probe* next to the view scan.
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)
    register_workload_views(engine, bound=8)
    text = "Q(y) :- visits(y, u), friend(y, p)"
    q = engine.query(text)
    plan = q.plan(["u", "p"])
    ops = pipeline_for(plan)
    assert any(isinstance(op, FetchOp) and op.view for op in ops)
    assert any(isinstance(op, ProbeOp) and op.view for op in ops)
    result = q.execute(u="url1", p=1)
    naive = parse_query(text, schema=engine.schema).evaluate(
        engine.require_database(), {"u": "url1", "p": 1}
    )
    assert set(result.rows) == set(naive) == {(2,)}


# -- a view answers for its atoms: what a plan reads ------------------------

TWO_VIEWS = "Q(f, u) :- friend(f, p), visits(f, u)"


def test_view_relations_names_the_views_a_step_reads():
    # Both workload views map into the query; V1 is its way in, and V2's
    # atom is entailed once visits(f, u) is fetched -- so V2 is neither
    # read, listed, refreshed nor sliced.
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)
    register_workload_views(engine)
    db = engine.require_database()
    q = engine.query(TWO_VIEWS)
    plan = q.plan(["p"])
    assert str(plan.query) == (
        "Q(?f, ?u) <- friend(?f, ?p), visits(?f, ?u), V1(?p, ?f), V2(?u, ?f)"
    )
    assert [str(s.atom) for s in plan.steps] == ["V1(?p, ?f)", "visits(?f, ?u)"]
    assert [str(a) for a in plan.entailed()] == ["friend(?f, ?p)", "V2(?u, ?f)"]
    assert plan.view_relations == {"V1"} and plan.fanout_bound == 64 + 64 * 8
    engine.views.refresh(db)  # materialize both, so V2 has a watermark to keep
    stale = engine.views.state("V2").watermark
    db.insert_many("visits", [(2, "url9"), (3, "url9")])
    db.insert_many("friend", [(4, 1)])
    naive = set(q.query.evaluate(db, {"p": 1}))
    assert set(q.execute(p=1).rows) == naive == {(2, "url1"), (2, "url9"), (3, "url2"), (3, "url9")}
    assert engine.views.state("V2").watermark == stale < db.change_log.watermark
    assert engine.views.state("V1").watermark == db.change_log.watermark
    # The certifier still wants every view a *step* reads registered.
    report = certify_plan(plan, engine.access, [engine.views.get("V2")])
    assert {d.code for d in report} >= {"CRT005"}


def test_an_incremental_result_over_an_unread_view_refreshes_to_a_recompute():
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)
    register_workload_views(engine)
    db = engine.require_database()
    q = engine.query(TWO_VIEWS)
    live = q.execute_incremental(p=1)
    assert list(live._views) == ["V1"]
    batches = (
        ("friend", db.insert_many, [(4, 1), (1, 1)]),
        ("visits", db.insert_many, [(4, "url3"), (2, "url2")]),
        ("friend", db.delete_many, [(2, 1)]),
        ("visits", db.delete_many, [(3, "url2"), (4, "url3")]),
    )
    for _, write, rows in batches:
        write(_, rows)
        live.refresh()
        assert live.last_mode == "delta"
        assert set(live.rows) == set(q.execute(p=1).rows) == set(q.query.evaluate(db, {"p": 1}))
    assert engine.views.state("V2") is None  # never materialized: nothing read it


def test_a_projecting_view_keeps_every_probe():
    # V(pid) :- friend(pid, y) proves that ?p follows *someone*, not that
    # ?p follows ?y: the plan, its bound and its reads are the parent's.
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)
    view = engine.views.register("V", "V(pid) :- friend(pid, y)", "V(pid -> 1)")
    assert view.stands_for(Atom("V", (Variable("p"),))) == ()
    q = engine.query("Q(y) :- friend(p, y), visits(y, u)")
    plan = compile_with_views(q.query, engine.access, engine.views, ["p"])
    assert [str(s) for s in plan.steps] == [
        "probe V(?p)",
        "fetch friend(?p, ?y) via friend(pid1 -> 32), binding ?y",
        "fetch visits(?y, ?u) via visits(pid -> 8), binding ?u",
    ]
    assert plan.fanout_bound == 1 + 32 + 32 * 8 and plan.entailed() == ()
    states = engine.views.prepare(engine.require_database(), plan.view_relations)
    ctx = ExecutionContext(engine.require_database(), views=states)
    assert set(execute_plan(plan, ctx, p=1)) == {(2,)}
    assert ctx.stats.tuples_accessed == 1 + 1 + 1  # V(1), friend(1, 2), visits(2, url1)


def test_stands_for_follows_the_head_not_the_body():
    v1 = v1_def()
    p, f = Variable("p"), Variable("f")
    assert v1.stands_for(Atom("V1", (p, f))) == (Atom("friend", (f, p)),)
    same = ViewDef("W", "W(a, b) :- friend(a, c), visits(c, b), a = c")
    assert same.stands_for(Atom("W", (p, f))) == (
        Atom("friend", (p, p)),
        Atom("visits", (p, f)),
    )
    fixed = ViewDef("C", "C(a, b) :- friend(a, b), b = 7")
    assert fixed.stands_for(Atom("C", (p, Constant(7)))) == (Atom("friend", (p, Constant(7))),)
    assert fixed.stands_for(Atom("C", (p, f))) == ()  # not a row the view can hold
    assert ViewDef("U", "U(a) :- friend(a, b), a = 1, a = 2").stands_for(Atom("U", (p,))) == ()


# -- explain() says where the atom went --------------------------------------

#: Q1-Q3 with the workload views registered, rendered by the parent of the
#: PR that taught views to answer for their atoms: no view is read, no atom
#: goes unread, so not a byte may move.
BASE_EXPLAINS = (
    "parameters: ?p\n"
    "1. fetch friend(?p, ?y) via friend(pid1 -> 32), binding ?y  [<= 32 tuples]\n"
    "2. fetch person(?y, ?n, 'NYC') via person(pid -> 1), binding ?n  [<= 32 tuples]\n"
    "project: (?y)\naccess bound: 64 tuples\ncost estimate: 64",
    "parameters: ?p\n"
    "1. fetch friend(?p, ?y) via friend(pid1 -> 32), binding ?y  [<= 32 tuples]\n"
    "2. fetch visits(?y, ?u) via visits(pid -> 8), binding ?u  [<= 256 tuples]\n"
    "project: (?u)\naccess bound: 288 tuples\ncost estimate: 288",
    "parameters: ?p\n"
    "1. fetch friend(?p, ?y) via friend(pid1 -> 32), binding ?y  [<= 32 tuples]\n"
    "2. fetch friend(?y, ?z) via friend(pid1 -> 32), binding ?z  [<= 1024 tuples]\n"
    "3. fetch person(?z, ?n, 'NYC') via person(pid -> 1), binding ?n  [<= 1024 tuples]\n"
    "project: (?z)\naccess bound: 2080 tuples\ncost estimate: 2080",
)


def test_explain_names_the_atoms_no_step_reads():
    from repro.workloads import RUNNING_QUERIES

    engine = social_engine(200, seed=1)
    register_workload_views(engine)
    for bundle, expected in zip(RUNNING_QUERIES, BASE_EXPLAINS):
        assert bundle.prepare(engine).explain(bundle.parameters) == expected
    q4, q5 = (bundle.prepare(engine) for bundle in VIEW_QUERIES)
    assert q4.explain(["p"]) == (
        "parameters: ?p\n"
        "1. fetch V1(?p, ?f) via V1(pid -> 64), binding ?f  [<= 64 tuples]\n"
        "2. fetch person(?f, ?n, 'NYC') via person(pid -> 1), binding ?n  [<= 64 tuples]\n"
        "entailed, not read: friend(?f, ?p)\n"
        "project: (?f)\naccess bound: 128 tuples\ncost estimate: 128"
    )
    assert q5.explain(["u"]) == (
        "parameters: ?u\n"
        "1. fetch V2(?u, ?y) via V2(url -> 64), binding ?y  [<= 64 tuples]\n"
        "entailed, not read: visits(?y, ?u)\n"
        "project: (?y)\naccess bound: 64 tuples\ncost estimate: 64"
    )
    # In the caller's own names, whatever the shared plan calls them ...
    twin = engine.query("Q(fan, site) :- visits(fan, site), friend(fan, idol)")
    assert twin.explain(["idol"]).splitlines()[3:5] == [
        "entailed, not read: friend(?fan, ?idol)",
        "entailed, not read: V2(?site, ?fan)",
    ]
    # ... and explain_analyze says the same of the plan that ran.
    analyzed = str(twin.explain_analyze(idol=7)).splitlines()
    assert [line for line in analyzed if line.startswith("entailed")] == [
        "entailed, not read: friend(?v0, ?idol)",
        "entailed, not read: V2(?v1, ?v0)",
    ]
    assert "entailed" not in str(engine.query(RUNNING_QUERIES[0].query).explain_analyze(p=7))
