"""A held execute binds once.

A ``PreparedQuery`` keeps one *bind* per tuple of parameter keys as the
caller gave them (``('p',)``, ``('?p', 'c')``, ...): the engine generation,
the plan-cache entry, and per disjunct the pipe with the binding of that
key order -- where each value seeds a slot, and the prefilter's conditions
by position.  While no writer moved the generation, an execute is the
values, the seed columns they fill and the pipeline.

* **spellings**: generated spellings -- ``'p'``, ``'?p'``, ``Variable``,
  ``Constant``-wrapped values, a mapping plus keywords, a
  ``MappingProxyType``, two spellings of one variable (the last wins) --
  return, on the first execute and on a bound one, the rows and stats of
  ``execute_plan`` on the query's plan and the SQLite oracle's answers,
  on memory and SQLite, for a CQ, a UCQ and two
  prefilter queries (``p = 1``, ``p = r``);
* **writers**: each of the six generation writers makes the next execute
  rebind through the plan cache, with one miss and no hit, as a first
  execute has;
* **never bound**: keys that fail, a disabled plan cache, no database;
* **threads**: eight threads execute spelled keys beside the writers;
* **mutants**: a bind that ignores the generation, one keyed on the key
  set, a prefilter position off by one, a value left ``Constant``-wrapped,
  a failing key tuple kept, a bind under a disabled cache and a bind
  without a database are each killed by the check named for them.
"""

import sys
import threading
from itertools import chain
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mutation import mutate
from sql_oracle import SqlOracle
from repro import Constant, Database, DatabaseSchema, Engine, SchemaError, Variable
from repro.api.engine import PreparedQuery
from repro.core.executor import ExecutionContext, Pipeline, execute_plan
from repro.errors import NotControlledError

SCHEMA = "person(pid, name, city); friend(pid1, pid2); visits(pid, url)"
ACCESS = "friend(pid1 -> 5000); friend(pid2 -> 5000); person(pid -> 1); visits(pid -> 8)"
TIGHT = "friend(pid1 -> 7); friend(pid2 -> 7); person(pid -> 1); visits(pid -> 8)"
DATA = {
    "person": [(1, "ann", "NYC"), (2, "bob", "NYC"), (3, "cat", "SF"), (4, "dan", "NYC"), (5, "eve", "SF")],
    "friend": [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 1), (2, 1)],
    "visits": [(1, "a"), (2, "a"), (4, "b")],
}
#: name -> (query text, its parameters); DOMAIN holds each parameter's values
QUERIES = {
    "cq": ("Q(y, n) :- friend(p, y), person(y, n, c)", ("p", "c")),
    "ucq": ("Q(y) :- friend(p, y), person(y, n, c) ; Q(y) :- friend(y, p), person(y, n, c)", ("p", "c")),
    "p = 1": ("Q(y) :- friend(p, y), person(y, n, c), p = 1", ("p", "c")),
    "p = r": ("Q(y) :- friend(x, y), person(y, n, c), x = p, x = r", ("p", "r", "c")),
}
DOMAIN = {"p": (1, 2, 4, 5), "r": (1, 2, 4), "c": ("NYC", "SF")}


def engine_on(backend=None, **options):
    schema = DatabaseSchema.parse(SCHEMA)
    return Engine(schema, ACCESS, Database(schema, DATA, backend=backend), **options)


def expected(engine, prepared, names, values):
    """What ``prepared.execute(values)`` must return: rows and stats of
    ``execute_plan`` on the query's own plan(s), one context for the union."""
    plans = prepared.plan(names)
    ctx = ExecutionContext(engine.database)
    plans = plans if isinstance(plans, tuple) else (plans,)
    rows = dict.fromkeys(chain(*[execute_plan(plan, ctx, values) for plan in plans]))
    return tuple(rows), ctx.stats


def call(prepared, spelled):
    """Execute with a spelling: ``(items, how, split)`` -- the key/value
    pairs in merge order, passed as one ``dict``, a ``MappingProxyType``,
    or a mapping followed by keywords from ``split`` on."""
    items, how, split = spelled
    if how == "proxy":
        return prepared.execute(MappingProxyType(dict(items)))
    if how == "keywords":
        return prepared.execute(dict(items[:split]), **dict(items[split:]))
    return prepared.execute(dict(items))


def merged_keys(spelled) -> tuple:
    """The keys of the one ``dict`` a spelling is merged into, in order."""
    items, how, split = spelled
    if how == "keywords":
        return tuple({**dict(items[:split]), **dict(items[split:])})
    return tuple(dict(items))


@st.composite
def spellings(draw, names):
    """``(values, spelled)``: the plain value per parameter name, and one
    way of writing them down."""
    values = {name: draw(st.sampled_from(DOMAIN[name])) for name in names}
    items = []
    for name in draw(st.permutations(names)):
        key = draw(st.sampled_from([name, "?" + name, Variable(name)]))
        value = values[name]
        items.append((key, Constant(value) if draw(st.booleans()) else value))
    if draw(st.booleans()):  # an earlier spelling of one variable, with another value
        name = draw(st.sampled_from(names))
        at = next(i for i, (key, _) in enumerate(items) if _name(key) == name)
        decoy = draw(st.sampled_from([name, "?" + name, Variable(name)]))
        other = draw(st.sampled_from([v for v in DOMAIN[name] if v != values[name]]))
        items.insert(draw(st.integers(0, at)), (decoy, other))
    how = draw(st.sampled_from(["dict", "proxy", "keywords"]))
    plain = [i for i in range(len(items) + 1) if all(type(k) is str and k[0] != "?" for k, _ in items[i:])]
    return values, (items, how, draw(st.sampled_from(plain)))


def _name(key) -> str:
    return key.name if isinstance(key, Variable) else key.lstrip("?")


def check_spelling(engine, oracle, label, values, spelled):
    text, names = QUERIES[label]
    prepared = engine.query(text)
    rows, stats = expected(engine, prepared, names, values)
    assert set(rows) == oracle.answers(prepared.query, values), (label, values)
    for _ in range(2):  # the first execute binds, the second runs bound
        result = call(prepared, spelled)
        assert result.rows == rows, (label, spelled)
        assert result.stats == stats, (label, spelled)
        assert result.stats.tuples_accessed <= result.fanout_bound
    assert merged_keys(spelled) in prepared._binds


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_spelling_returns_what_execute_plan_and_sqlite_return(backend_factory, data):
    engine = engine_on(backend_factory())
    oracle = SqlOracle(engine.schema, DATA)
    label = data.draw(st.sampled_from(sorted(QUERIES)))
    values, spelled = data.draw(spellings(QUERIES[label][1]))
    check_spelling(engine, oracle, label, values, spelled)


#: Deterministic spellings the mutant checks run: both key orders on one
#: query object, ``?`` and ``Variable`` keys, ``Constant`` values, two
#: spellings of one variable, keywords and a proxy.
FIXED = [
    ("cq", {"p": 1, "c": "NYC"}, ([("c", "NYC"), ("p", 1)], "dict", 2)),
    ("cq", {"p": 1, "c": "NYC"}, ([("?p", 1), ("c", "NYC")], "dict", 2)),
    ("cq", {"p": 2, "c": "NYC"}, ([("p", 2), ("c", "NYC")], "keywords", 0)),
    ("cq", {"p": 2, "c": "NYC"}, ([(Variable("p"), Constant(2)), ("c", Constant("NYC"))], "proxy", 2)),
    ("cq", {"p": 4, "c": "SF"}, ([("p", 1), ("?p", 4), ("c", "SF")], "dict", 3)),
    ("ucq", {"p": 1, "c": "NYC"}, ([("c", "NYC"), ("?p", Constant(1))], "dict", 2)),
    ("ucq", {"p": 1, "c": "NYC"}, ([("p", 1), ("c", "NYC")], "keywords", 1)),
    ("p = 1", {"p": 1, "c": "NYC"}, ([("p", 1), ("c", "NYC")], "dict", 2)),
    ("p = 1", {"p": 1, "c": "NYC"}, ([("c", "NYC"), ("p", 1)], "dict", 2)),
    ("p = 1", {"p": 2, "c": "NYC"}, ([("p", 2), ("c", "NYC")], "dict", 2)),
    ("p = r", {"p": 2, "r": 2, "c": "NYC"}, ([("p", 2), ("r", 2), ("c", "NYC")], "dict", 3)),
    ("p = r", {"p": 1, "r": 1, "c": "NYC"}, ([("c", "NYC"), ("r", 1), ("p", 1)], "dict", 3)),
    ("p = r", {"p": 2, "r": 4, "c": "NYC"}, ([("r", 4), ("p", 2), ("c", "NYC")], "dict", 3)),
]


def fixed_spellings():
    engine = engine_on()
    oracle = SqlOracle(engine.schema, DATA)
    for label, values, spelled in FIXED:
        check_spelling(engine, oracle, label, values, spelled)


def test_fixed_spellings_on_one_engine():
    fixed_spellings()


def test_two_spellings_of_one_variable_last_wins():
    engine = engine_on()
    q = engine.query("Q(y) :- friend(p, y)")
    for _ in range(2):
        assert set(q.execute({"p": 1, "?p": 2}).rows) == {(4,), (1,)}
        assert set(q.execute({"?p": 2}, p=1).rows) == {(2,), (3,)}
    assert set(q._binds) == {("p", "?p"), ("?p", "p")}


# -- six writers -------------------------------------------------------------

FOLLOWERS_NYC = "Q(f) :- friend(f, p), person(f, n, c)"
FOLLOWERS = ("followers", "followers(pid, follower) :- friend(follower, pid)", "followers(pid -> 64)")


def register_followers(engine):
    engine.views.register(*FOLLOWERS)


def with_stats(engine):
    register_followers(engine)
    engine.refresh_cost_stats()


def nothing(engine):
    pass


#: writer -> (the state it starts from, the write)
WRITERS = {
    "access replacement": (nothing, lambda engine: setattr(engine, "access", TIGHT)),
    "view register": (nothing, register_followers),
    "view drop": (register_followers, lambda engine: engine.views.drop("followers")),
    "refresh_cost_stats": (register_followers, lambda engine: engine.refresh_cost_stats()),
    "clear_cost_stats": (with_stats, lambda engine: engine.clear_cost_stats()),
    "clear_plan_cache": (nothing, lambda engine: engine.clear_plan_cache()),
}


def replica(engine):
    """A fresh engine in ``engine``'s state: the plans it must serve."""
    fresh = Engine(engine.schema, engine.access, data=engine.database)
    for view in engine.views:
        fresh.views.register(view)
    if engine.cost_stats is not None:
        fresh.refresh_cost_stats(engine.cost_stats)
    return fresh


def rebinds_after(writer):
    setup, write = WRITERS[writer]
    engine = engine_on()
    setup(engine)
    q = engine.query(FOLLOWERS_NYC)
    keys = ("?p", "c")
    q.execute({"?p": 4, "c": "NYC"})
    assert q._binds[keys][0] == engine._state[0]
    before = engine.cache_stats()
    write(engine)
    twin = replica(engine).query(FOLLOWERS_NYC)
    for p in range(1, 6):
        result = q.execute({"?p": p, "c": "NYC"})
        assert result.rows == twin.execute(p=p, c="NYC").rows, (writer, p)
        assert result.fanout_bound == twin.execute(p=p, c="NYC").fanout_bound, writer
    after = engine.cache_stats()
    assert (after.hits - before.hits, after.misses - before.misses) == (0, 1), writer
    generation, compiled, _ = q._binds[keys]
    assert generation == engine._state[0]
    assert compiled is q._shapes[frozenset({Variable("p"), Variable("c")})].held[1]


@pytest.mark.parametrize("writer", WRITERS)
def test_each_writer_makes_the_next_execute_rebind(writer):
    rebinds_after(writer)


# -- what is never bound -----------------------------------------------------


def failing_keys_are_not_kept():
    engine = engine_on()
    q = engine.query("Q(y, n) :- friend(p, y), person(y, n, c)")
    failures = [
        ({"junk": 1, "p": 1, "c": "NYC"}, ValueError),  # not in the query
        ({"c": "NYC"}, NotControlledError),  # p missing: uncontrolled
        ({1: 1, "c": "NYC"}, TypeError),  # not a variable
        ({"?": 1, "c": "NYC"}, ValueError),  # an empty name
    ]
    for parameters, error in failures * 2:
        with pytest.raises(error):
            q.execute(parameters)
    assert q._binds == {} and q._shapes == {}
    assert set(q.execute({"c": "NYC", "p": 1}).rows) == {(2, "bob")}
    assert list(q._binds) == [("c", "p")]


def test_failing_keys_are_never_kept():
    failing_keys_are_not_kept()


def disabled_cache_binds_nothing():
    engine = engine_on(plan_cache_size=0)
    q = engine.query(FOLLOWERS_NYC)
    for p in range(1, 6):
        assert set(q.execute(p=p, c="NYC").rows) == set(engine_on().query(FOLLOWERS_NYC).execute(p=p, c="NYC").rows)
    assert q._binds == {}
    assert engine.cache_stats().misses == 5


def test_a_disabled_cache_binds_nothing():
    disabled_cache_binds_nothing()


def no_database_no_bind():
    engine = Engine(SCHEMA, ACCESS)
    q = engine.query(FOLLOWERS_NYC)
    for _ in range(3):
        with pytest.raises(SchemaError, match="no database"):
            q.execute(p=4, c="NYC")
    assert q._binds == {} and q._shapes == {}
    engine.database = Database(engine.schema, DATA)
    assert q.execute(p=4, c="NYC").rows == ((2,),)
    assert list(q._binds) == [("p", "c")]
    engine.database = None  # detached: the bind never held it
    for _ in range(3):
        with pytest.raises(SchemaError, match="no database"):
            q.execute(p=4, c="NYC")


def test_no_database_no_bind_and_a_detached_one_raises_every_time():
    no_database_no_bind()


# -- eight threads beside the writers -----------------------------------------

READS = (
    (FOLLOWERS_NYC, ("p", "c")),
    QUERIES["cq"],
    QUERIES["ucq"],
    QUERIES["p = r"],
)
VISITORS = ("visitors", "visitors(url, visitor) :- visits(visitor, url)", "visitors(url -> 8)")


def test_eight_threads_execute_spelled_keys_beside_the_writers():
    engine = engine_on()
    oracle = SqlOracle(engine.schema, DATA)
    cases = []  # (query, parameters as spelled, the oracle's answers)
    for text, names in READS:
        q = engine.query(text)
        for p in (1, 2, 4):
            values = {name: "NYC" if name == "c" else p for name in names}
            cases += [
                (q, {"?" + name: value for name, value in values.items()}, oracle.answers(q.query, values)),
                (q, dict(reversed(values.items())), oracle.answers(q.query, values)),
                (q, {name: Constant(value) for name, value in values.items()}, oracle.answers(q.query, values)),
            ]
    barrier = threading.Barrier(8)
    readers_done = threading.Event()
    errors, writes = [], [0, 0]

    def reader(worker):
        try:
            barrier.wait(timeout=10)
            for n in range(600):
                q, parameters, answers = cases[(worker + n) % len(cases)]
                result = q.execute(parameters)
                assert set(result.rows) == answers
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
    sys.setswitchinterval(1e-5)
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
    # Quiescent again: every bind is rebuilt under the final generation.
    for q, parameters, answers in cases:
        assert set(q.execute(parameters).rows) == answers
    for q, _, _ in cases:
        assert all(bind[0] == engine._state[0] for bind in q._binds.values())


# -- seeded mutants ------------------------------------------------------------

PROPERTIES = {
    "spellings": fixed_spellings,
    "writers": lambda: rebinds_after("access replacement"),
    "failing keys": failing_keys_are_not_kept,
    "disabled cache": disabled_cache_binds_nothing,
    "no database": no_database_no_bind,
}

#: name -> (class, attribute, the code to break, what to break it into, the
#: property that must notice)
MUTANTS = {
    "a bind that ignores the generation": (
        PreparedQuery,
        "execute",
        "if bind is None or bind[0] != engine._state[0]:",
        "if bind is None:",
        "writers",
    ),
    "a bind keyed on the key set": (
        PreparedQuery,
        "execute",
        "bind = self._binds.get(tuple(parameters))",
        "bind = self._binds.get(tuple(sorted(parameters, key=str)))",
        "spellings",
    ),
    "a positional prefilter off by one": (
        Pipeline,
        "binding",
        "ref if const else position[ref]",
        "ref if const else position[ref] - 1",
        "spellings",
    ),
    "a bind that skips Constant unwrapping": (
        PreparedQuery,
        "execute",
        "value = value.value",
        "value = value",
        "spellings",
    ),
    "a failing key tuple that gets cached": (
        PreparedQuery,
        "_bind",
        "compiled = engine._compiled_for(self, names)",
        "self._binds[keys] = (generation, None, ())\n    compiled = engine._compiled_for(self, names)",
        "failing keys",
    ),
    "a bind under a disabled cache": (
        PreparedQuery,
        "_bind",
        "if engine._cache.maxsize != 0:",
        "if True:",
        "disabled cache",
    ),
    "a bind without a database": (
        PreparedQuery,
        "execute",
        "database = engine._database or engine.require_database()",
        "database = engine._database",
        "no database",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_bind_mutants_are_killed(monkeypatch, name):
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


def test_the_checks_pass_unmutated():
    for check in PROPERTIES.values():
        check()
