"""The Engine facade: end-to-end workflow, plan caching, invalidation."""

import pytest

from repro import (
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Database,
    Engine,
    NotControlledError,
    ParseError,
    Plan,
    PreparedQuery,
    ResultSet,
    SchemaError,
)
import repro.api.engine as engine_module
import repro.logic.parser as parser_module

SCHEMA_TEXT = "person(pid, name, city); friend(pid1, pid2)"
ACCESS_TEXT = "friend(pid1 -> 5000); friend(pid2 -> 5000); person(pid -> 1)"
DATA = {
    "person": [
        (1, "ann", "NYC"),
        (2, "bob", "NYC"),
        (3, "cat", "SF"),
        (4, "dan", "NYC"),
        (5, "eve", "SF"),
    ],
    "friend": [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 1)],
}
NYC_FRIENDS = "Q(y) :- friend(p, y), person(y, n, 'NYC')"


@pytest.fixture
def engine():
    return Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)


# -- construction ----------------------------------------------------------


def test_engine_from_objects(social_schema, social_access, social_db):
    eng = Engine(social_schema, social_access, data=social_db)
    assert eng.schema is social_schema
    assert eng.access is social_access
    assert eng.database is social_db


def test_engine_from_text_builds_equivalent_components(engine, social_schema):
    assert engine.schema == social_schema
    assert engine.database.size("friend") == 6


def test_mismatched_access_schema_rejected(social_access):
    with pytest.raises(SchemaError, match="different database schema"):
        Engine("other(a)", social_access)


def test_mismatched_database_rejected(social_schema):
    other = Database(Engine("other(a)").schema)
    with pytest.raises(SchemaError, match="does not match"):
        Engine(social_schema, data=other)


def test_default_access_schema_is_empty(social_schema):
    eng = Engine(social_schema)
    assert len(eng.access) == 0
    assert not eng.query("Q(x) :- person(x, n, c)").is_controlled(["x"])


# -- the end-to-end one-liner ----------------------------------------------


def test_end_to_end_workflow(engine):
    q = engine.query(NYC_FRIENDS)
    assert isinstance(q, PreparedQuery)
    assert q.columns == ("y",)

    assert q.is_controlled(["p"])
    assert not q.is_controlled()

    plan = q.plan(["p"])
    assert isinstance(plan, Plan)
    explanation = q.explain(["p"])
    assert "fetch" in explanation and "access bound" in explanation

    result = q.execute(p=1)
    assert isinstance(result, ResultSet)
    assert result == [(2,)]
    assert result.stats.full_scans == 0
    assert result.stats.tuples_accessed <= result.fanout_bound

    qsi = q.decide_qsi(["p"])
    assert qsi.scale_independent
    qdsi = q.decide_qdsi(budget=10)
    assert qdsi.scale_independent
    assert qdsi.tuples_accessed <= 10


def test_uncontrolled_query_rejected(engine):
    q = engine.query(NYC_FRIENDS)
    with pytest.raises(NotControlledError):
        q.plan()
    with pytest.raises(NotControlledError):
        q.execute()


def test_execute_via_parameter_mapping(engine):
    q = engine.query(NYC_FRIENDS)
    assert q.execute({"p": 1}) == q.execute(p=1)
    assert q.execute({"?p": 1}) == q.execute(p=1)


def test_engine_one_shot_execute_and_explain(engine):
    assert engine.execute(NYC_FRIENDS, p=1) == [(2,)]
    assert "fetch" in engine.query(NYC_FRIENDS).explain(["p"])


def test_prebuilt_query_accepted(engine):
    q = ConjunctiveQuery(
        ["y"], [Atom("friend", ["?p", "?y"]), Atom("person", ["?y", "?n", "NYC"])]
    )
    assert engine.query(q).execute(p=1) == [(2,)]


def test_query_text_validated_against_schema(engine):
    with pytest.raises(ParseError, match="unknown relation 'enemy'"):
        engine.query("Q(x) :- enemy(p, x)")
    with pytest.raises(ParseError, match="arity"):
        engine.query("Q(x) :- person(x)")


def test_prebuilt_query_validated_against_schema(engine):
    with pytest.raises(SchemaError):
        engine.query(ConjunctiveQuery(["x"], [Atom("person", ["?x"])]))
    with pytest.raises(TypeError):
        engine.query(42)


def test_execute_without_database(social_schema):
    eng = Engine(social_schema, ACCESS_TEXT)
    q = eng.query(NYC_FRIENDS)
    assert q.is_controlled(["p"])  # planning works without data
    with pytest.raises(SchemaError, match="no database is bound"):
        q.execute(p=1)


def test_load_and_add(social_schema):
    eng = Engine(social_schema, ACCESS_TEXT).load(DATA)
    assert eng.execute(NYC_FRIENDS, p=1) == [(2,)]
    assert eng.add("friend", (1, 4))
    assert eng.execute(NYC_FRIENDS, p=1) == [(2,), (4,)]


def test_union_query_execution(engine):
    u = engine.query("Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)")
    result = u.execute(p=1)
    assert set(result.rows) == {(2,), (3,), (5,)}
    plans = u.plan(["p"])
    assert isinstance(plans, tuple) and len(plans) == 2
    explanation = u.explain(["p"])
    assert "disjunct 1" in explanation and "total access bound" in explanation


def test_union_parameters_must_occur_in_every_disjunct(engine):
    u = engine.query("Q(y) :- friend(p, y) ; Q(y) :- friend(y, q)")
    # The verdict and the plan-producing methods agree: a parameter set
    # that misses a disjunct is a ValueError everywhere, never True-then-raise.
    with pytest.raises(ValueError, match="not occurring"):
        u.is_controlled(["p", "q"])
    with pytest.raises(ValueError, match="not occurring"):
        u.plan(["p", "q"])
    with pytest.raises(ValueError, match="not occurring"):
        u.execute(p=1, q=1)


def test_unknown_parameter_rejected_consistently(engine):
    q = engine.query(NYC_FRIENDS)
    with pytest.raises(ValueError, match=r"not occurring.*\?zzz"):
        q.is_controlled(["zzz"])
    with pytest.raises(ValueError, match=r"not occurring.*\?zzz"):
        q.execute(zzz=1)


def test_one_shot_parameter_iterables(engine):
    # Generators must not be silently exhausted between the occurrence
    # check and the verdict, nor between UCQ disjuncts.
    q = engine.query(NYC_FRIENDS)
    assert q.is_controlled(iter(["p"]))
    u = engine.query("Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)")
    assert u.decide_qsi(iter(["p"])).scale_independent
    from repro import decide_qsi as core_decide_qsi

    assert core_decide_qsi(u.query, engine.access, iter(["p"])).scale_independent


def test_result_set_is_unhashable(engine):
    result = engine.execute(NYC_FRIENDS, p=1)
    with pytest.raises(TypeError):
        hash(result)
    assert isinstance(hash(result.rows), int)  # the rows tuple is the key


def test_result_set_behaviour(engine):
    result = engine.execute("Q(y, n) :- friend(p, y), person(y, n, c)", p=1)
    assert len(result) == 2
    assert sorted(result) == [(2, "bob"), (3, "cat")]
    assert (2, "bob") in result
    assert result[0] in {(2, "bob"), (3, "cat")}
    assert result.columns == ("y", "n")
    assert {"y": 2, "n": "bob"} in result.to_dicts()
    assert result == {(2, "bob"), (3, "cat")}
    assert bool(result)
    assert "2 rows" in repr(result)


def test_result_set_contains_does_not_coerce_strings(engine):
    result = engine.execute("Q(c) :- person(p, n, c)", p=1)
    assert result.rows == (("NYC",),)
    assert ("NYC",) in result
    assert [  # lists coerce to row tuples
        "NYC"
    ] in result
    assert "NYC" not in result  # a bare string is not a row
    assert 42 not in result


# -- plan caching ----------------------------------------------------------


def counting_compile(monkeypatch):
    calls = []
    real = engine_module.compile_plan

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_plan", wrapper)
    return calls


def test_repeated_execute_hits_the_cache(engine, monkeypatch):
    calls = counting_compile(monkeypatch)
    q = engine.query(NYC_FRIENDS)

    q.execute(p=1)
    assert len(calls) == 1
    stats = engine.cache_stats()
    assert (stats.hits, stats.misses, stats.size) == (0, 1, 1)

    # Same parameter set, different value: zero recompilation.
    q.execute(p=2)
    q.execute(p=3)
    assert len(calls) == 1
    stats = engine.cache_stats()
    assert (stats.hits, stats.misses) == (0, 1)  # held: no probe, no compile
    assert stats.compilations == 1


def test_equal_query_text_shares_cache_entry(engine, monkeypatch):
    calls = counting_compile(monkeypatch)
    engine.query(NYC_FRIENDS).execute(p=1)
    # A separately prepared but equal query maps to the same cache key.
    engine.query(NYC_FRIENDS).execute(p=9)
    assert len(calls) == 1
    assert engine.cache_stats().hits == 0  # the memoised query holds the entry


def test_different_parameter_set_compiles_again(engine, monkeypatch):
    calls = counting_compile(monkeypatch)
    q = engine.query("Q(y) :- friend(p, y), person(y, n, c)")
    q.execute(p=1)
    q.execute(p=1, y=2)
    assert len(calls) == 2
    assert engine.cache_stats().misses == 2


def test_plan_and_explain_share_the_cache(engine, monkeypatch):
    calls = counting_compile(monkeypatch)
    q = engine.query(NYC_FRIENDS)
    q.plan(["p"])
    q.explain(["p"])
    q.execute(p=1)
    assert len(calls) == 1
    assert engine.cache_stats().hits == 0  # explain and execute take the held entry


def test_access_schema_change_invalidates_cache(engine, monkeypatch):
    calls = counting_compile(monkeypatch)
    q = engine.query(NYC_FRIENDS)
    q.execute(p=1)
    assert len(calls) == 1

    engine.access = AccessSchema.parse(engine.schema, ACCESS_TEXT)
    stats = engine.cache_stats()
    assert stats.size == 0
    assert stats.invalidations == 1

    q.execute(p=1)
    assert len(calls) == 2  # recompiled against the new rules


def test_access_schema_change_affects_verdict(engine):
    q = engine.query(NYC_FRIENDS)
    assert q.is_controlled(["p"])
    engine.access = "person(pid -> 1)"  # drop the friend rule
    assert not q.is_controlled(["p"])
    with pytest.raises(NotControlledError):
        q.execute(p=1)


def test_clear_plan_cache(engine):
    q = engine.query(NYC_FRIENDS)
    q.execute(p=1)
    engine.clear_plan_cache()
    assert engine.cache_stats().size == 0


def test_lru_eviction():
    eng = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA, plan_cache_size=2)
    queries = [
        "Q(y) :- friend(p, y)",
        "Q(y) :- friend(y, p)",
        "Q(n) :- person(p, n, c)",
    ]
    for text in queries:
        eng.execute(text, p=1)
    stats = eng.cache_stats()
    assert stats.size == 2
    assert stats.evictions == 1
    # The least recently used entry (the first query) was evicted.
    eng.execute(queries[0], p=1)
    assert eng.cache_stats().misses == 4


def test_cache_disabled():
    eng = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA, plan_cache_size=0)
    q = eng.query("Q(y) :- friend(p, y)")
    q.execute(p=1)
    q.execute(p=1)
    stats = eng.cache_stats()
    assert (stats.hits, stats.misses, stats.size) == (0, 2, 0)


def test_union_compiles_one_plan_per_disjunct(engine, monkeypatch):
    calls = counting_compile(monkeypatch)
    u = engine.query("Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)")
    u.execute(p=1)
    assert len(calls) == 2
    u.execute(p=2)
    assert len(calls) == 2  # one cache entry covers both plans
    assert engine.cache_stats().hits == 0  # ... and the union holds it


# -- explain_analyze -------------------------------------------------------


def test_explain_analyze_reports_per_operator_rows(engine):
    report = engine.query(NYC_FRIENDS).explain_analyze(p=1)
    assert set(report.result) == {(2,)}
    assert len(report.profiles) == 1
    operators = report.profiles[0].operators
    assert operators[0].rows_in == 1
    assert all(op.rows_in >= 0 for op in operators)
    text = str(report)
    assert "fetch" in text and "rows" in text and "total" in text


def test_explain_analyze_union_has_one_profile_per_disjunct(engine):
    report = engine.query(
        "Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)"
    ).explain_analyze(p=1)
    assert len(report.profiles) == 2
    assert "disjunct" in str(report)


def test_explain_analyze_matches_execute(engine):
    q = engine.query(NYC_FRIENDS)
    assert set(q.explain_analyze(p=1).result) == set(q.execute(p=1))


def test_explain_analyze_accounting_matches_result_stats(engine):
    report = engine.query(NYC_FRIENDS).explain_analyze(p=1)
    per_operator = sum(p.tuples_accessed for p in report.profiles)
    assert per_operator == report.result.stats.tuples_accessed


# -- satellite hardening ---------------------------------------------------


def test_union_disjuncts_must_agree_on_head_names(engine):
    with pytest.raises(ValueError, match="head variable names"):
        engine.query("Q(y) :- friend(p, y) ; Q(z) :- friend(z, p)")


def test_union_with_agreeing_heads_still_prepares(engine):
    q = engine.query("Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)")
    assert q.columns == ("y",)


def test_decide_qdsi_rejects_non_integer_budget(engine):
    q = engine.query(NYC_FRIENDS)
    for bad in (1.5, "10", True, None):
        with pytest.raises(ValueError, match="budget"):
            q.decide_qdsi(budget=bad)


def test_decide_qdsi_rejects_negative_budget(engine):
    with pytest.raises(ValueError, match="non-negative"):
        engine.query(NYC_FRIENDS).decide_qdsi(budget=-3)


def test_plan_cache_is_thread_safe_under_concurrent_traffic(engine):
    import threading

    errors = []
    barrier = threading.Barrier(8)

    def hammer(worker: int):
        barrier.wait()
        try:
            for i in range(100):
                result = engine.execute(NYC_FRIENDS, p=(i % 5) + 1)
                assert result.fanout_bound is not None
                if worker == 0 and i % 25 == 0:
                    engine.clear_plan_cache()
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    stats = engine.cache_stats()
    assert stats.invalidations >= 4
    # Each generation compiles afresh; a held execute is no probe.
    assert stats.invalidations + 1 <= stats.misses <= stats.hits + stats.misses < 800


def test_concurrent_cold_start_compiles_once(engine, monkeypatch):
    # Single-flight: N threads cold-starting the same (query, parameter
    # set) must trigger exactly one compile_plan; the rest wait on the
    # in-flight marker and are served the leader's plans as hits.
    import threading
    import time

    real = engine_module.compile_plan
    calls = []

    def slow_counted_compile(*args, **kwargs):
        calls.append(args)
        # Hold the flight open until every other thread waits on it: one
        # arriving after it landed is served by the held entry, no probe.
        (flight,) = engine._cache._inflight.values()
        deadline = time.monotonic() + 10
        while flight.waiting < workers - 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_plan", slow_counted_compile)

    workers = 8
    barrier = threading.Barrier(workers)
    results, errors = [], []

    def hammer():
        barrier.wait()
        try:
            results.append(engine.execute(NYC_FRIENDS, p=1).rows)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(calls) == 1  # one compilation, not eight
    stats = engine.cache_stats()
    assert stats.misses == 1
    assert stats.compilations == 1
    assert stats.hits == workers - 1
    assert len(set(results)) == 1  # every thread saw the same answers


def test_concurrent_cold_start_shares_compile_failure(engine):
    # A failing leader propagates its NotControlledError to every waiter
    # instead of each of them re-running the doomed fixpoint.
    import threading

    workers = 6
    barrier = threading.Barrier(workers)
    outcomes = []

    def hammer_uncontrolled():
        barrier.wait()
        try:
            engine.execute("Q(y, z) :- friend(y, z)")
        except NotControlledError:
            outcomes.append("not-controlled")
        except Exception:  # pragma: no cover - only on regression
            outcomes.append("other")

    threads = [
        threading.Thread(target=hammer_uncontrolled) for _ in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes == ["not-controlled"] * workers
    # The failed flight left no entry behind: a later probe retries.
    assert engine.cache_stats().size <= 1


def test_cache_stats_count_invalidations(engine):
    engine.execute(NYC_FRIENDS, p=1)
    engine.access = ACCESS_TEXT  # replacing the access schema invalidates
    engine.clear_plan_cache()
    assert engine.cache_stats().invalidations == 2


def test_stale_plans_cached_in_flight_are_never_served_after_access_change(engine):
    # Simulate a compile that raced an access replacement: it stores its
    # plans under the key it built from the access-schema version it
    # compiled against. After the replacement bumps the version, that key
    # must be unreachable -- so replay the losing side of the race by
    # hand: build the key the engine probes with before the change, swap
    # the access schema, then let the stale flight land.
    from repro.logic.terms import Variable

    q = engine.query(NYC_FRIENDS)
    params = frozenset({Variable("p")})
    stale = engine._compiled_for(q, params)
    stale_key = (engine._state[0], q._shapes[params].key, params)
    engine.access = "friend(pid1 -> 7); friend(pid2 -> 7); person(pid -> 1)"
    landed = engine._cache.get_or_compute(stale_key, lambda: stale)
    assert landed is stale  # the entry is really in the cache
    assert q.execute(p=1).fanout_bound == 7 + 7 * 1  # not the stale 5005


class TestPerExecutionStatsIsolation:
    """ResultSet.stats are charged through a per-execution
    ExecutionContext: concurrent executes against one engine must never
    contaminate each other's deltas, while Database.stats stays the
    cumulative engine-wide view."""

    def test_concurrent_executes_see_their_own_deltas(self):
        import threading

        from repro.workloads import social_engine

        engine = social_engine(300, seed=5)
        q1 = engine.query("Q(y) :- friend(p, y), person(y, n, 'NYC')")
        q3 = engine.query(
            "Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"
        )
        # Solo baselines: each (query, pid)'s exact access counts.
        jobs = [(q1, pid) for pid in range(40)] + [(q3, pid) for pid in range(40)]
        expected = {}
        for i, (query, pid) in enumerate(jobs):
            result = query.execute(p=pid)
            expected[i] = (
                result.stats.tuples_accessed,
                result.stats.indexed_lookups,
                set(result.rows),
            )

        observed: dict[int, tuple] = {}
        barrier = threading.Barrier(8)
        errors = []

        def worker(worker_id: int):
            try:
                barrier.wait()
                for i in range(worker_id, len(jobs), 8):
                    query, pid = jobs[i]
                    result = query.execute(p=pid)
                    observed[i, worker_id] = (
                        i,
                        result.stats.tuples_accessed,
                        result.stats.indexed_lookups,
                        set(result.rows),
                    )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(observed) == len(jobs)
        for i, tuples, lookups, rows in observed.values():
            assert (tuples, lookups, rows) == expected[i], f"job {i} contaminated"

    def test_database_stats_stay_cumulative(self):
        from repro.workloads import social_engine

        engine = social_engine(50, seed=0)
        db = engine.require_database()
        db.reset_stats()
        first = engine.execute("Q(y) :- friend(p, y)", p=1)
        second = engine.execute("Q(y) :- friend(p, y)", p=2)
        assert (
            db.stats.tuples_accessed
            == first.stats.tuples_accessed + second.stats.tuples_accessed
        )

    def test_explain_analyze_stats_are_per_execution(self):
        from repro.workloads import social_engine

        engine = social_engine(50, seed=0)
        analyzed = engine.query("Q(y) :- friend(p, y)").explain_analyze(p=1)
        again = engine.query("Q(y) :- friend(p, y)").explain_analyze(p=1)
        assert (
            analyzed.result.stats.tuples_accessed
            == again.result.stats.tuples_accessed
        )
        assert analyzed.result.stats.tuples_accessed == sum(
            op.tuples_accessed
            for profile in analyzed.profiles
            for op in profile.operators
        )


# -- the text memo ---------------------------------------------------------


def counting_reads(monkeypatch, delay=0.0):
    """The texts ``engine.query`` and ``engine.execute`` hand the plain-rule
    reader, which matches a never-seen text once (an execute's with its
    shape key) before the token parser reads what is no plain rule."""
    import time

    calls = []
    real = parser_module._plain_rule

    def wrapper(text, schema, parameters=None):
        calls.append(text)
        time.sleep(delay)
        return real(text, schema, parameters)

    monkeypatch.setattr(engine_module, "_plain_rule", wrapper)
    monkeypatch.setattr(parser_module, "_plain_rule", wrapper)
    return calls


@pytest.mark.parametrize("text", ["Q(y) :- friend(1, y)", "Q(y) :- friend(p, y), p = 1"])
def test_a_text_no_plain_rule_meets_the_plain_reader_once(monkeypatch, text):
    """A number or an equality makes a text no plain rule: it is matched
    once and then read by the token parser, through either entry point."""
    calls = counting_reads(monkeypatch)
    answers = []
    for entry in (lambda engine: engine.query(text).execute(), lambda engine: engine.execute(text)):
        calls.clear()
        answers.append(entry(Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA)).rows)
        assert calls == [text]
    assert answers[0] == answers[1] == ((2,), (3,))


def test_repeated_texts_are_parsed_once_each(engine, monkeypatch):
    calls = counting_reads(monkeypatch)
    texts = [f"Q(y{i}) :- friend(p, y{i}), person(y{i}, n, 'NYC')" for i in range(40)]
    for i in range(4096):
        assert engine.execute(texts[i % 40], p=1).rows == ((2,),)
    assert sorted(calls) == sorted(texts)
    stats = engine.text_cache_stats()
    assert (stats.hits, stats.misses, stats.size) == (4096 - 40, 40, 40)
    assert (stats.evictions, stats.invalidations, stats.maxsize) == (0, 0, 128)
    assert engine.query(texts[0]) is engine.query(texts[0])
    assert engine.query(texts[0]).text == texts[0]


def test_text_memo_is_bounded_by_plan_cache_size_and_evicts_lru(monkeypatch):
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA, plan_cache_size=2)
    calls = counting_reads(monkeypatch)
    a, b, c = ("Q(y) :- friend(p, y)", "Q(x) :- friend(p, x)", "Q(z) :- friend(p, z)")
    first_a = engine.query(a)
    engine.query(b)
    assert engine.query(a) is first_a  # a is now the most recently used
    engine.query(c)  # evicts b
    stats = engine.text_cache_stats()
    assert (stats.size, stats.maxsize, stats.evictions) == (2, 2, 1)
    assert engine.query(a) is first_a and calls == [a, b, c]
    engine.query(b)
    assert calls == [a, b, c, b]


def test_plan_cache_size_zero_disables_the_text_memo(monkeypatch):
    engine = Engine(SCHEMA_TEXT, ACCESS_TEXT, data=DATA, plan_cache_size=0)
    calls = counting_reads(monkeypatch)
    first, second = engine.query(NYC_FRIENDS), engine.query(NYC_FRIENDS)
    assert first is not second and first.query == second.query
    assert calls == [NYC_FRIENDS, NYC_FRIENDS]
    stats = engine.text_cache_stats()
    assert (stats.hits, stats.misses, stats.size) == (0, 2, 0)


@pytest.mark.parametrize(
    "text, error, position",
    [
        ("Q(y) :-\n  friend(p, y", ParseError, (2, 14)),
        ("Q(y) :-\n  enemy(p, y)", ParseError, (2, 3)),
        ("Q(y) :- friend(p, y), person(y)", ParseError, (1, 23)),
        ("Q(x) :- friend(x, y) ; Q(y) :- friend(x, y)", ValueError, None),
    ],
)
def test_failing_texts_are_never_memoised(engine, monkeypatch, text, error, position):
    calls = counting_reads(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(error) as excinfo:
            engine.query(text)
        if position is not None:
            assert (excinfo.value.line, excinfo.value.column) == position
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert calls == [text, text]  # parsed (and rejected) afresh each time
    assert engine.text_cache_stats().size == 0


def test_concurrent_first_sight_of_a_text_parses_once(engine, monkeypatch):
    import threading

    calls = counting_reads(monkeypatch, delay=0.05)
    barrier = threading.Barrier(8)
    prepared = []

    def worker():
        barrier.wait(timeout=10)
        prepared.append(engine.query(NYC_FRIENDS))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert calls == [NYC_FRIENDS]
    assert len(prepared) == 8 and all(p is prepared[0] for p in prepared)
    stats = engine.text_cache_stats()
    assert (stats.hits, stats.misses) == (7, 1)


def test_memoised_text_never_serves_a_stale_plan():
    engine = Engine(SCHEMA_TEXT, "friend(pid1 -> 5000); person(pid -> 1)", data=DATA)
    followers = "Q(x) :- friend(x, p)"
    assert engine.execute(NYC_FRIENDS, p=1).rows == ((2,),)
    with pytest.raises(NotControlledError):
        engine.execute(followers, p=4)
    memoised = engine.query(followers)

    # The rule NYC_FRIENDS was planned through goes away: the memo still
    # knows the text, the plan is gone with the access-schema version.
    engine.access = "person(pid -> 1)"
    assert engine.query(NYC_FRIENDS) is engine.query(NYC_FRIENDS)
    with pytest.raises(NotControlledError):
        engine.execute(NYC_FRIENDS, p=1)

    # A view makes the uncontrolled text executable -- through the very
    # PreparedQuery memoised while it was not.
    engine.views.register(
        "followers", "followers(pid, follower) :- friend(follower, pid)", "followers(pid -> 64)"
    )
    assert engine.query(followers) is memoised
    assert sorted(engine.execute(followers, p=4).rows) == [(2,), (3,)]
    engine.views.drop("followers")
    with pytest.raises(NotControlledError):
        engine.execute(followers, p=4)
    assert engine.text_cache_stats().invalidations == 0


def test_clear_plan_cache_leaves_the_text_memo_alone(engine, monkeypatch):
    parses, compiles = counting_reads(monkeypatch), counting_compile(monkeypatch)
    engine.execute(NYC_FRIENDS, p=1)
    engine.clear_plan_cache()
    engine.execute(NYC_FRIENDS, p=1)
    assert (len(parses), len(compiles)) == (1, 2)


def test_memoised_text_still_reports_source_spans(engine):
    text = "Q(y) :-\n  friend(p, y),\n  person(y, n, 'NYC')"
    for _ in range(2):  # the second round is served from the memo
        # With no parameter nothing binds ?p: QRY007 anchors at the first
        # atom it cannot read, friend on line 2.
        (finding,) = engine.query(text).diagnostics([]).by_code("QRY007")
        assert "?p" in finding.message
        assert (finding.span.line, finding.span.column) == (2, 3)
    assert engine.text_cache_stats().hits == 1


@pytest.mark.parametrize("spelling", ["nan", "-nan"])
def test_nan_texts_hit_the_plan_cache(spelling, monkeypatch):
    # One shared NaN object per spelling: two texts the memo keeps apart
    # parse to equal queries, so the second finds the first one's plan.
    engine = Engine("r(a, b)", "r(a -> 3)", data={"r": [(1, 2.0)]})
    calls = counting_compile(monkeypatch)
    for comment in ("", "  # again"):
        text = f"Q(b) :- r(a, b), r(a, {spelling}){comment}"
        assert engine.execute(text, a=1).rows == ()
    assert engine.text_cache_stats().misses == 2
    stats = engine.cache_stats()
    assert len(calls) == 1 and (stats.hits, stats.misses, stats.size) == (1, 1, 1)


# -- one plan per query shape ----------------------------------------------

# NYC_FRIENDS with its variables renamed and its atoms swapped (and a line
# break, so the spans differ too).
NYC_TWIN = "Q(who) :- person(who, called, 'NYC'),\n  friend(p, who)"


def counting_canonical(monkeypatch):
    calls = []
    real = engine_module.canonical_form

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine_module, "canonical_form", wrapper)
    return calls


def test_renamed_and_reordered_texts_share_one_plan_and_one_pipeline(engine, monkeypatch):
    from repro.core.executor import pipeline_cache_stats

    calls = counting_compile(monkeypatch)
    lowered = pipeline_cache_stats().misses
    first, twin = engine.query(NYC_FRIENDS), engine.query(NYC_TWIN)
    assert first is not twin and first.query != twin.query
    assert first.execute(p=1).rows == twin.execute(p=1).rows == ((2,),)
    assert len(calls) == 1 and pipeline_cache_stats().misses == lowered + 1
    stats = engine.cache_stats()
    assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
    params = frozenset({engine_module.Variable("p")})
    (plan,), (same,) = (engine._compiled_for(q, params).plans for q in (first, twin))
    assert plan is same
    # The twin probed with an equal key once, then adopted the cached
    # entry's key object: from now on the probe is an identity compare.
    assert twin._shapes[params].key is first._shapes[params].key
    # A different constant, head or parameter is a different shape.
    engine.execute("Q(y) :- friend(p, y), person(y, n, 'SF')", p=1)
    engine.execute("Q(n) :- friend(p, y), person(y, n, 'NYC')", p=1)
    engine.execute("Q(y) :- friend(p, y), person(y, n, 'NYC')", y=2)
    assert len(calls) == 4


def test_ties_between_equal_fetches_break_by_canonical_atom_order():
    engine = Engine("r(a, b); s(a, b)", "r(a -> 4); s(a -> 4)", data={"r": [(1, 2)], "s": [(1, 2)]})
    plans = [
        engine.query(text).plan(["p"])
        for text in ("Q(y) :- r(p, y), s(p, y)", "Q(y) :- s(p, y), r(p, y)")
    ]
    assert [[str(s) for s in plan.steps] for plan in plans] == [
        ["fetch r(?p, ?y) via r(a -> 4), binding ?y", "probe s(?p, ?y)"]
    ] * 2
    assert engine.cache_stats().misses == 1


def test_plan_explain_and_diagnostics_speak_the_callers_text(engine):
    from repro.analysis import check_plan
    from repro.core.executor import execute_plan

    engine.execute(NYC_FRIENDS, p=1)  # the shape is compiled under other names
    twin = engine.query(NYC_TWIN)
    plan = twin.plan(["p"])
    assert plan.query == twin.query and plan is twin.plan(["p"])
    assert [str(step.atom) for step in plan.steps] == [
        "friend(?p, ?who)",
        "person(?who, ?called, 'NYC')",
    ]
    assert [(s.atom.span.line, s.atom.span.column) for s in plan.steps] == [(2, 3), (1, 11)]
    assert plan.head_terms == twin.query.head
    explained = twin.explain(["p"])
    assert "?who" in explained and "?called" in explained and "?v0" not in explained
    assert explained == engine.query(NYC_FRIENDS).explain(["p"]).replace("?y", "?who").replace(
        "?n", "?called"
    )
    (finding,) = twin.diagnostics([]).by_code("QRY007")
    assert "?who" in finding.message and "?called" in finding.message
    assert "?y" not in finding.message and "?n " not in finding.message
    assert (finding.span.line, finding.span.column) == (1, 11)
    # The plan in the caller's names is a certified-quality plan that
    # executes exactly like the shared one.
    check_plan(plan, engine.access)
    for pid in range(1, 6):
        assert execute_plan(plan, engine.database, p=pid) == twin.execute(p=pid).rows


def test_union_plans_come_back_per_disjunct_in_the_callers_names(engine):
    engine.execute("Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)", p=1)
    twin = engine.query("Q(b) :- friend(p, b) ;\nQ(b) :- friend(b, p)")
    assert engine.cache_stats().size == 1
    first, second = twin.plan(["p"])
    assert (str(first.steps[0].atom), str(second.steps[0].atom)) == (
        "friend(?p, ?b)",
        "friend(?b, ?p)",
    )
    assert second.steps[0].atom.span.line == 2
    assert "disjunct 2: Q(?b) <- friend(?b, ?p)" in twin.explain(["p"])
    assert twin.execute(p=1).rows == engine.execute(
        "Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)", p=1
    ).rows
    assert engine.cache_stats().misses == 1


def test_not_controlled_is_reported_in_the_callers_words(engine):
    engine.access = "person(pid -> 1)"
    for text, variable in ((NYC_FRIENDS, "?y"), (NYC_TWIN, "?who")):
        with pytest.raises(NotControlledError) as failure:
            engine.execute(text, p=1)
        message = str(failure.value)
        assert variable in message and "?v0" not in message
        assert failure.value.__context__ is None  # not chained to the shared attempt
    assert engine.cache_stats().size == 0  # failures are never cached


def test_view_assisted_plans_come_back_with_the_view_atoms_renamed():
    from repro.analysis import check_plan
    from repro.core.executor import ExecutionContext, execute_plan

    engine = Engine(SCHEMA_TEXT, "friend(pid1 -> 5000); person(pid -> 1)", data=DATA)
    engine.views.register(
        "followers", "followers(pid, follower) :- friend(follower, pid)", "followers(pid -> 64)"
    )
    engine.execute("Q(x) :- friend(x, p)", p=4)
    twin = engine.query("Q(fan) :- friend(fan, p)")
    plan = twin.plan(["p"])
    assert engine.cache_stats().misses == 1 and plan.view_relations == {"followers"}
    assert str(plan.query) == "Q(?fan) <- friend(?fan, ?p), followers(?p, ?fan)"
    assert [str(step.atom) for step in plan.steps] == ["followers(?p, ?fan)"]
    assert plan.query.body[0].span is not None and plan.steps[0].atom.span is None
    check_plan(plan, engine.access, engine.views.snapshot().definitions())
    views = engine.views.prepare(engine.database, plan.view_relations)
    ctx = ExecutionContext(engine.database, views=views)
    assert execute_plan(plan, ctx, p=4) == twin.execute(p=4).rows == ((2,), (3,))


def test_eight_threads_on_eight_renamings_compile_once(engine, monkeypatch):
    import threading
    import time

    real = engine_module.compile_plan
    calls = []

    def slow_counted_compile(*args, **kwargs):
        calls.append(args)
        time.sleep(0.05)  # hold the flight open so every thread piles up
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_plan", slow_counted_compile)
    texts = [
        f"Q(y{i}) :- person(y{i}, n{i}, 'NYC'), friend(p, y{i})"
        if i % 2
        else f"Q(y{i}) :- friend(p, y{i}), person(y{i}, n{i}, 'NYC')"
        for i in range(8)
    ]
    barrier = threading.Barrier(len(texts), timeout=10)
    results, errors = [], []

    def hammer(text):
        try:
            barrier.wait()
            results.append(engine.execute(text, p=1).rows)
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(text,)) for text in texts]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(calls) == 1 and results == [((2,),)] * 8
    stats = engine.cache_stats()
    assert (stats.misses, stats.hits, stats.size) == (1, 7, 1)
    assert engine.text_cache_stats().misses == 8


def test_no_stale_plan_reaches_the_twin_of_the_query_that_compiled_it():
    engine = Engine(SCHEMA_TEXT, "friend(pid1 -> 5000); person(pid -> 1)", data=DATA)
    followers, twin = "Q(x) :- friend(x, p)", "Q(fan) :- friend(fan, p)"
    assert engine.execute(NYC_FRIENDS, p=1).fanout_bound == 10000

    # access replacement: the twin must be planned under the new bounds
    engine.access = "friend(pid1 -> 7); person(pid -> 1)"
    assert engine.execute(NYC_TWIN, p=1).fanout_bound == 14
    assert engine.execute(NYC_FRIENDS, p=1).fanout_bound == 14

    # view register / drop: executable for the twin exactly while the view is there
    with pytest.raises(NotControlledError):
        engine.execute(followers, p=4)
    engine.views.register(
        "followers", "followers(pid, follower) :- friend(follower, pid)", "followers(pid -> 64)"
    )
    assert sorted(engine.execute(twin, p=4).rows) == [(2,), (3,)]
    engine.views.drop("followers")
    for text in (followers, twin):
        with pytest.raises(NotControlledError):
            engine.execute(text, p=4)

    # refreshed cost statistics: the shape is planned again, for whoever asks
    misses = engine.cache_stats().misses
    engine.refresh_cost_stats()
    engine.execute(NYC_TWIN, p=1)
    engine.execute(NYC_FRIENDS, p=1)
    stats = engine.cache_stats()
    assert stats.misses == misses + 1 and stats.invalidations == 1


def test_a_held_query_object_is_validated_and_canonicalised_once(engine, monkeypatch):
    forms = counting_canonical(monkeypatch)
    validated = []
    real = type(engine.schema).validate_query

    def counting_validate(schema, query):
        validated.append(query)
        return real(schema, query)

    monkeypatch.setattr(type(engine.schema), "validate_query", counting_validate)
    held = ConjunctiveQuery(
        ["y"], [Atom("friend", ["?p", "?y"]), Atom("person", ["?y", "?n", "NYC"])]
    )
    for pid in (1, 2, 1):
        engine.execute(held, p=pid)
    assert engine.query(held) is engine.query(held)
    # one validation by the engine, one by compile_plan on the one miss
    assert validated.count(held) == 1 and len(forms) == 1
    # text and query objects go through the same memo, counted together
    engine.execute(NYC_FRIENDS, p=1)
    stats = engine.text_cache_stats()
    assert (stats.misses, stats.size) == (2, 2) and stats.hits == 4
    assert engine.cache_stats().misses == 1  # ... and through the same plan
    # a query object that fails validation is never remembered
    bad = ConjunctiveQuery(["y"], [Atom("nope", ["?y"])])
    for _ in range(2):
        with pytest.raises(SchemaError):
            engine.query(bad)
    assert engine.text_cache_stats().size == 2


# -- the plan-cache entry is what an execution needs --------------------------


def test_union_disjuncts_sharing_a_row_return_it_once_where_first_derived(engine):
    # Person 1 follows 2 and 3; 5 follows 1 and 4 follows 5.  The second
    # disjunct re-derives (2,) and the third derives nothing new first.
    u = engine.query(
        "Q(y) :- friend(p, y) ; Q(y) :- friend(p, y), person(y, n, 'NYC') ; Q(y) :- friend(y, p)"
    )
    result = u.execute(p=1)
    assert result.rows == ((2,), (3,), (5,))
    assert result.fanout_bound == sum(plan.fanout_bound for plan in u.plan(["p"]))
    analyzed = u.explain_analyze(p=1)
    assert analyzed.result.rows == result.rows and analyzed.result.stats == result.stats
    assert [profile.rows for profile in analyzed.profiles] == [((2,), (3,)), ((2,),), ((5,),)]
    live = u.execute_incremental(p=1)
    assert live.rows == result.rows and live.fanout_bound == result.fanout_bound


def test_view_assisted_execute_right_after_a_write_sees_the_refreshed_view():
    engine = Engine(SCHEMA_TEXT, "friend(pid1 -> 5000); person(pid -> 1)", data=DATA)
    engine.views.register(
        "followers", "followers(pid, follower) :- friend(follower, pid)", "followers(pid -> 64)"
    )
    q = engine.query("Q(x) :- friend(x, p)")
    assert q.plan(["p"]).view_relations == {"followers"}
    assert q.execute(p=4).rows == ((2,), (3,))
    engine.database.insert_many("friend", [(5, 4)])
    assert q.execute(p=4).rows == ((2,), (3,), (5,))  # the cached entry, a fresh view
    engine.database.delete_many("friend", [(2, 4)])
    assert q.explain_analyze(p=4).result.rows == ((3,), (5,))
    stats = engine.cache_stats()
    assert (stats.misses, stats.size) == (1, 1)


def test_the_facade_probes_one_cache_and_execute_plan_still_counts_the_other(engine):
    from repro import execute_plan
    from repro.core.executor import pipeline_cache_stats

    q = engine.query(NYC_FRIENDS)
    q.execute(p=1)  # compiles and lowers: one miss in each cache
    plans, pipes = engine.cache_stats(), pipeline_cache_stats()
    for _ in range(3):
        q.execute(p=1)
        q.explain_analyze(p=1)
    q.execute_incremental(p=1)
    after = pipeline_cache_stats()
    assert engine.cache_stats() == plans  # all seven held: no probe, no compile
    assert (after.hits, after.misses) == (pipes.hits, pipes.misses)
    plan = q.plan(["p"])  # the caller's own writing of the shared plan
    assert execute_plan(plan, engine.database, p=1) == ((2,),)
    assert execute_plan(plan, engine.database, p=1) == ((2,),)
    direct = pipeline_cache_stats()
    assert (direct.hits, direct.misses) == (after.hits + 1, after.misses + 1)


def test_union_whose_disjuncts_bind_through_parameter_equalities_executes(engine):
    # Each disjunct's seed filter copies ?p onto its own representative;
    # the binding must not leak into the values the next disjunct checks.
    u = engine.query("Q(y) :- friend(x, y), x = p ; Q(y) :- friend(y, x), x = p")
    assert u.execute(p=1).rows == ((2,), (3,), (5,))
    assert u.explain_analyze(p=1).result.rows == ((2,), (3,), (5,))


# -- a never-seen text is keyed as it is read --------------------------------


def test_an_executed_plain_text_brings_its_shape_key(engine, monkeypatch):
    walks = []
    real = engine_module.canonical_key
    monkeypatch.setattr(engine_module, "canonical_key", lambda *args: walks.append(args) or real(*args))
    p = frozenset({engine_module.Variable("p")})
    assert engine.execute(NYC_FRIENDS, p=1).rows == ((2,),) and walks == []
    first = engine.query(NYC_FRIENDS)
    assert first._read_keys[p] == first._shapes[p].key == real(first.query, p)
    # Read by query() first, a text has no key: its first execute walks.
    twin = engine.query("Q(x) :- friend(p, x), person(x, m, 'NYC')")
    assert twin.execute(p=1).rows == ((2,),) and len(walks) == 1
    # So do a token-path text, a tie (friend(p, z) and friend(p, w) sign
    # alike), and a parameter set other than the one the text was read under.
    for text in ("Q(y) <- friend(?p, y), person(y, n, 'NYC')", "Q(y) :- friend(p, y), friend(p, z), friend(p, w)"):
        engine.execute(text, p=1)
    assert engine.query(NYC_FRIENDS).execute(p=1, n="bob").rows == ((2,),)
    # The twin and the token-path text share NYC_FRIENDS's shape.
    assert len(walks) == 4 and engine.cache_stats().misses == 3


def test_a_read_key_that_fails_to_compile_is_not_remembered(engine):
    text = "Q(x) :- person(x, n, c)"  # nothing bounds ?x under ?n
    for _ in range(2):
        with pytest.raises(NotControlledError):
            engine.execute(text, n="ann")
    q = engine.query(text)
    assert q._read_keys and q._shapes == {}


# -- a parameter set that fails is not remembered ---------------------------


def test_failing_parameter_sets_leave_no_shape_behind(engine):
    q = engine.query("Q(y) :- friend(p, y)")
    for i in range(100):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="parameters not occurring in the query") as failure:
                q.execute({f"junk{i}": 1})
            messages.append(str(failure.value))
        assert messages[0] == messages[1] and f"?junk{i}" in messages[0]
    assert q._shapes == {}
    messages = []
    for attempt in (q.plan, q.explain, q.execute):  # no parameter: nothing bounds ?p
        with pytest.raises(NotControlledError) as failure:
            attempt()
        messages.append(str(failure.value))
    assert len(set(messages)) == 1 and "?p" in messages[0]
    assert q._shapes == {} and engine.cache_stats().size == 0
    assert q.execute(p=1).rows == ((2,), (3,))
    assert list(q._shapes) == [frozenset({engine_module.Variable("p")})]


# -- the canonical query is built where it is read, not on the way in -------


@pytest.mark.parametrize(
    "reader",
    [
        lambda q: q.plan(["p"]),
        lambda q: q.explain(["p"]),
        lambda q: q.diagnostics(["p"]),
        lambda q: q.execute_incremental(p=1),
    ],
    ids=["plan", "explain", "diagnostics", "execute_incremental"],
)
def test_execute_builds_no_canonical_query_and_its_readers_build_it_once(
    engine, monkeypatch, reader
):
    forms = counting_canonical(monkeypatch)
    engine.execute(NYC_FRIENDS, p=1)
    assert len(forms) == 1  # the compile, on the one plan-cache miss
    twin = engine.query(NYC_TWIN)  # a fresh PreparedQuery of a cached shape
    for pid in (1, 2, 1):
        assert twin.execute(p=pid).fanout_bound == 5000 + 5000 * 1
    assert len(forms) == 1 and engine.cache_stats().misses == 1
    reader(twin)
    assert len(forms) == 2 and forms[1][0] is twin.query
    reader(twin)
    twin.execute(p=1)
    assert len(forms) == 2 and engine.cache_stats().misses == 1


# -- single-flight on one condition ------------------------------------------


def test_waiters_of_a_failing_flight_get_its_exception_and_the_key_is_cleared():
    import threading
    import time

    from repro.api.cache import PlanCache

    cache, boom, release = PlanCache(8), RuntimeError("boom"), threading.Event()
    outcomes = []

    def failing():
        release.wait(timeout=10)
        raise boom

    def probe(compute):
        try:
            outcomes.append(cache.get_or_compute("k", compute))
        except RuntimeError as exc:
            outcomes.append(exc)

    leader = threading.Thread(target=probe, args=(failing,))
    leader.start()
    deadline = time.monotonic() + 10
    while "k" not in cache._inflight and time.monotonic() < deadline:
        time.sleep(0.001)
    flight = cache._inflight["k"]
    waiters = [threading.Thread(target=probe, args=(lambda: "recomputed",)) for _ in range(7)]
    for t in waiters:
        t.start()
    while flight.waiting < 7 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert flight.waiting == 7 and outcomes == []  # all parked on the leader's flight
    assert cache.get_or_compute("other", lambda: 1) == 1  # which blocks nobody else
    release.set()
    for t in [leader, *waiters]:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in [leader, *waiters])
    assert len(outcomes) == 8 and all(outcome is boom for outcome in outcomes)
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.size) == (0, 2, 1) and cache._inflight == {}
    assert cache.get_or_compute("k", lambda: "recomputed") == "recomputed"
    assert cache.stats().misses == 3


def test_a_miss_allocates_no_event_and_no_condition(monkeypatch):
    import threading

    from repro.api.cache import PlanCache

    cache, made = PlanCache(128), []
    for name in ("Event", "Condition"):
        real = getattr(threading, name)
        monkeypatch.setattr(
            threading, name, lambda *args, real=real, name=name: made.append(name) or real(*args)
        )
    for i in range(1_000):
        assert cache.get_or_compute(i, lambda: -i) == -i
    stats = cache.stats()
    assert (stats.misses, stats.evictions, stats.size) == (1_000, 872, 128)
    assert made == [] and cache._inflight == {}
