"""One generation keys the plan cache, and a prepared query holds its entry.

The engine keeps its state -- access schema, view catalog, cost statistics
-- in one slot under a generation that each of six writers advances as it
replaces the slot (access replacement, view register, view drop,
``refresh_cost_stats``, ``clear_cost_stats``, ``clear_plan_cache``).  A
``PreparedQuery`` holds the entry it was last given with its generation
and probes the shared cache only when the generation moved.

* **per writer**: after each writer a held query compiles exactly once,
  then serves the plan a fresh engine in the same state compiles, with
  answers equal to naive evaluation;
* **maintained results** rebase when the access schema or the views are
  replaced, and stay a delta across new cost statistics or a cleared
  plan cache;
* **eviction**: an entry the LRU evicted still executes, compiling nothing,
  from the query that holds it; a disabled cache holds nothing;
* **threads**: eight threads execute beside all six writers;
* **mutants**: deleting each writer's bump (and the held check, and the
  basis replacement) is killed by the check named for it.
"""

import sys
import threading

import pytest

from mutation import mutate
from repro import Engine
from repro.incremental import IncrementalResult
from repro.views.definition import ViewSet

SCHEMA = "person(pid, name, city); friend(pid1, pid2); visits(pid, url)"
ACCESS = "friend(pid1 -> 5000); friend(pid2 -> 5000); person(pid -> 1); visits(pid -> 8)"
TIGHT = "friend(pid1 -> 7); friend(pid2 -> 7); person(pid -> 1); visits(pid -> 8)"
DATA = {
    "person": [
        (1, "ann", "NYC"),
        (2, "bob", "NYC"),
        (3, "cat", "SF"),
        (4, "dan", "NYC"),
        (5, "eve", "SF"),
    ],
    "friend": [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 1)],
    "visits": [(1, "a"), (2, "a"), (4, "b")],
}
PIDS = range(1, 6)
#: followers of p who live in NYC: fetched through friend(pid2 -> N) over
#: base data, or through the followers view once it is registered and the
#: cost model prefers it (it does without statistics, not with them).
FOLLOWERS_NYC = "Q(f) :- friend(f, p), person(f, n, 'NYC')"
FOLLOWERS = ("followers", "followers(pid, follower) :- friend(follower, pid)", "followers(pid -> 64)")


def register_followers(engine):
    engine.views.register(*FOLLOWERS)


def with_stats(engine):
    register_followers(engine)
    engine.refresh_cost_stats()


def nothing(engine):
    pass


#: writer -> (the state it starts from, the write, FOLLOWERS_NYC's access
#: bound after it: 7 + 7 under TIGHT, 64 + 64 through the view, 5000 + 5000
#: over base data)
WRITERS = {
    "access replacement": (nothing, lambda engine: setattr(engine, "access", TIGHT), 14),
    "view register": (nothing, register_followers, 128),
    "view drop": (register_followers, lambda engine: engine.views.drop("followers"), 10000),
    "refresh_cost_stats": (register_followers, lambda engine: engine.refresh_cost_stats(), 10000),
    "clear_cost_stats": (with_stats, lambda engine: engine.clear_cost_stats(), 128),
    "clear_plan_cache": (nothing, lambda engine: engine.clear_plan_cache(), 10000),
}


def replica(engine):
    """A fresh engine in ``engine``'s state: the plans it must serve."""
    fresh = Engine(engine.schema, engine.access, data=engine.database)
    for view in engine.views:
        fresh.views.register(view)
    if engine.cost_stats is not None:
        fresh.refresh_cost_stats(engine.cost_stats)
    return fresh


def naive(query, engine, p):
    return set(query.query.evaluate(engine.database, {"p": p}))


def held_query_serves_the_new_state(writer):
    setup, write, bound = WRITERS[writer]
    engine = Engine(SCHEMA, ACCESS, data=DATA)
    setup(engine)
    q = engine.query(FOLLOWERS_NYC)
    q.execute(p=4)  # compiles, and holds the entry
    misses = engine.cache_stats().misses
    write(engine)
    for p in PIDS:
        result = q.execute(p=p)
        assert set(result.rows) == naive(q, engine, p), (writer, p)
        assert result.fanout_bound == bound, writer
        assert result.stats.tuples_accessed <= result.fanout_bound
    assert q.explain(["p"]) == replica(engine).query(FOLLOWERS_NYC).explain(["p"]), writer
    assert engine.cache_stats().misses == misses + 1, f"{writer}: one compile"


@pytest.mark.parametrize("writer", WRITERS)
def test_a_held_query_compiles_once_after_each_writer_and_serves_the_new_state(writer):
    held_query_serves_the_new_state(writer)


#: writer -> whether a refresh after it rebases (its basis was replaced)
REBASES = {
    "access replacement": True,
    "view register": True,
    "view drop": True,
    "refresh_cost_stats": False,
    "clear_cost_stats": False,
    "clear_plan_cache": False,
}


def maintained_result_rebases_only_on_a_new_basis(writer):
    setup, write, _ = WRITERS[writer]
    engine = Engine(SCHEMA, ACCESS, data=DATA)
    setup(engine)
    q = engine.query(FOLLOWERS_NYC)
    live = q.execute_incremental(p=4)
    assert live.rows == ((2,),)
    write(engine)
    engine.database.insert_many("friend", [(1, 4), (4, 4)])
    live.refresh()
    assert live.last_mode == ("rebase" if REBASES[writer] else "delta"), writer
    assert set(live.rows) == naive(q, engine, 4) == {(1,), (2,), (4,)}
    engine.database.delete_many("friend", [(2, 4)])
    assert live.refresh().last_mode == "delta"
    assert set(live.rows) == naive(q, engine, 4) == {(1,), (4,)}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_maintained_result_rebases_exactly_when_access_or_views_are_replaced(writer):
    maintained_result_rebases_only_on_a_new_basis(writer)


def evicted_entry_still_executes():
    engine = Engine(SCHEMA, ACCESS, data=DATA, plan_cache_size=1)
    held = engine.query(FOLLOWERS_NYC)
    held.execute(p=4)
    engine.query("Q(y) :- friend(p, y), person(y, n, 'NYC')").execute(p=1)
    stats = engine.cache_stats()
    assert (stats.misses, stats.evictions, stats.size) == (2, 1, 1)
    for p in PIDS:
        assert set(held.execute(p=p).rows) == naive(held, engine, p)
    assert engine.cache_stats() == stats  # no probe, no compile


def test_an_evicted_entry_still_executes_from_the_query_that_holds_it():
    evicted_entry_still_executes()


def disabled_cache_holds_nothing():
    engine = Engine(SCHEMA, ACCESS, data=DATA, plan_cache_size=0)
    q = engine.query(FOLLOWERS_NYC)
    for p in PIDS:
        assert set(q.execute(p=p).rows) == naive(q, engine, p)
    assert engine.cache_stats().misses == len(PIDS)
    assert [shape.held for shape in q._shapes.values()] == [(None, None)]


def test_a_disabled_cache_holds_nothing():
    disabled_cache_holds_nothing()


# -- eight threads beside all six writers -----------------------------------

#: A view no reader's query mentions, so a drop never strands an execute
#: between compiling a plan that reads it and preparing its state.
VISITORS = ("visitors", "visitors(url, visitor) :- visits(visitor, url)", "visitors(url -> 8)")
READS = (
    FOLLOWERS_NYC,
    "Q(y) :- friend(p, y), person(y, n, 'NYC')",
    "Q(z) :- friend(p, y), friend(y, z)",
    "Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)",
)


def test_eight_threads_execute_beside_all_six_writers():
    engine = Engine(SCHEMA, ACCESS, data=DATA)
    queries = [engine.query(text) for text in READS]
    expected = {(i, p): naive(q, engine, p) for i, q in enumerate(queries) for p in PIDS}
    barrier = threading.Barrier(8)
    readers_done = threading.Event()
    errors, writes = [], [0, 0]

    def reader(worker):
        try:
            barrier.wait(timeout=10)
            for n in range(1000):
                i, p = (worker + n) % len(queries), n % 5 + 1
                result = queries[i].execute(p=p)
                assert set(result.rows) == expected[i, p], (READS[i], p)
                assert result.stats.tuples_accessed <= result.fanout_bound
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    def writer(worker, steps):
        try:
            barrier.wait(timeout=10)
            while not readers_done.is_set():
                for step in steps:
                    step()
                writes[worker] += 1
        except Exception as exc:  # pragma: no cover - only on regression
            errors.append(exc)

    access_writer = (
        lambda: setattr(engine, "access", TIGHT),
        engine.clear_plan_cache,
        engine.refresh_cost_stats,
        lambda: setattr(engine, "access", ACCESS),
    )
    view_writer = (
        lambda: engine.views.register(*VISITORS),
        engine.clear_cost_stats,
        lambda: engine.views.drop("visitors"),
    )
    threads = [threading.Thread(target=reader, args=(w,)) for w in range(6)]
    threads += [
        threading.Thread(target=writer, args=(0, access_writer)),
        threading.Thread(target=writer, args=(1, view_writer)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, inside the writers' slot replacement too
    try:
        for t in threads:
            t.start()
        for t in threads[:6]:
            t.join(timeout=60)
        readers_done.set()
        for t in threads[6:]:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert min(writes) >= 1
    # Each step of each writer's round advanced the generation exactly once.
    assert engine._state[0] == len(access_writer) * writes[0] + len(view_writer) * writes[1]
    # Quiescent again: every held query serves the final state's plan.
    fresh = replica(engine)
    for q in queries:
        assert q.explain(["p"]) == fresh.query(q.query).explain(["p"])


# -- seeded mutants ----------------------------------------------------------

PROPERTIES = {
    **{f"after {w}": (lambda w=w: held_query_serves_the_new_state(w)) for w in WRITERS},
    **{
        f"rebase rule at {w}": (lambda w=w: maintained_result_rebases_only_on_a_new_basis(w))
        for w in WRITERS
    },
    "evicted entry executes": evicted_entry_still_executes,
    "disabled cache holds nothing": disabled_cache_holds_nothing,
}

#: name -> (class, attribute, the code to break, what to break it into, the
#: property that must notice)
MUTANTS = {
    "access replacement keeps the generation": (
        Engine,
        "access",
        "self._advance(self._coerce_access(access))",
        "self._state = (self._state[0], (self._coerce_access(access), self._state[1][1]), self._state[2])",
        "after access replacement",
    ),
    "view register keeps the generation": (
        ViewSet,
        "register",
        "self._owner._advance()",
        "pass",
        "after view register",
    ),
    "view drop keeps the generation": (
        ViewSet,
        "drop",
        "self._owner._advance()",
        "pass",
        "after view drop",
    ),
    "refresh_cost_stats keeps the generation": (
        Engine,
        "refresh_cost_stats",
        "self._advance(cost_stats=stats)",
        "self._state = self._state[:2] + (stats,)",
        "after refresh_cost_stats",
    ),
    "clear_cost_stats keeps the generation": (
        Engine,
        "clear_cost_stats",
        "self._advance(cost_stats=None)",
        "self._state = self._state[:2] + (None,)",
        "after clear_cost_stats",
    ),
    "clear_plan_cache keeps the generation": (
        Engine,
        "clear_plan_cache",
        "self._advance()",
        "pass",
        "after clear_plan_cache",
    ),
    "no writer moves the generation": (
        Engine,
        "_advance",
        "(generation + 1, basis,",
        "(generation, basis,",
        "after clear_plan_cache",
    ),
    "a held entry is served across generations": (
        Engine,
        "_compiled_for",
        "if held == generation:",
        "if held is not None:",
        "after access replacement",
    ),
    "a view change keeps the basis": (
        Engine,
        "_advance",
        "if access is not None or catalog is not basis[1]:",
        "if access is not None:",
        "after view register",
    ),
    "every writer replaces the basis": (
        Engine,
        "_advance",
        "if access is not None or catalog is not basis[1]:",
        "if True:",
        "rebase rule at refresh_cost_stats",
    ),
    "a maintained result keys on the generation": (
        IncrementalResult,
        "_materialize",
        "epoch = (db, engine._state[1])",
        "epoch = (db, engine._state)",
        "rebase rule at clear_plan_cache",
    ),
    "a disabled cache holds": (
        Engine,
        "_compiled_for",
        "if self._cache.maxsize != 0:",
        "if True:",
        "disabled cache holds nothing",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_generation_mutants_are_killed(monkeypatch, name):
    owner, attribute, old, new, killer = MUTANTS[name]
    mutate(monkeypatch, owner, attribute, old, new, name)
    killed_by = []
    for label, check in PROPERTIES.items():
        try:
            check()
        except Exception:
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killer in killed_by, f"{name!r} survived {killer}: killed by {killed_by}"
