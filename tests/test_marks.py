"""Marks are sound (section 5): every write marks each maintained result
it can change, so a refresh of an unmarked result may skip its join.

* **generated streams**: CQs and UCQs entered through a parameter --
  one-atom chains (a program that holds nothing) and longer ones (a held
  group), seeds the prefilter rejects, a result reading a view -- stay
  equal to SQLite over the raw rows after every batch, on both
  backends, including a batch that nets out; a refresh of an unmarked
  result reads nothing and leaves every mark clear;
* **lifetime**: the registry holds marks, never results, so a dropped
  result leaves no key in it and the log is pristine again; a rebase
  leaves the old log's registry for the new one's.

The seeded mutants of the registration and of the mark's life live with
the pinned stream in ``test_held_group``.
"""

import gc

from hypothesis import given
from hypothesis import strategies as st

from sql_oracle import SqlOracle
from test_faces_property import VALUES, apply_batch, apply_raw, budget, rows_of, updates, values
from repro import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    Engine,
    Equality,
    UnionOfConjunctiveQueries,
    Variable,
)
from repro.relational.instance import AccessStats

SCHEMA = "r(a, b); s(a, c); t(a, d)"
# Keyed on the first column only: a chain is entered through ?p, and
# r(x, p) is reachable through the view alone.
ACCESS = "r(a -> 64); s(a -> 64); t(a -> 64)"
VIEW = ("V", "V(b, a) :- r(a, b)", "V(b -> 64)")
VIEW_QUERY = "Q(x, y) :- r(x, p), s(x, y)"
P, Q, H = Variable("p"), Variable("q"), Variable("h")


@st.composite
def chains(draw):
    """``X0(p, x1), X1(x1, x2), ...`` over one to three drawn relations,
    the last term sometimes a constant; the head is the last variable,
    named ``h`` in every chain so that any two make a union."""
    terms = [P, *(Variable(f"x{i}") for i in range(1, draw(st.integers(1, 3)) + 1))]
    if len(terms) > 2 and not draw(st.integers(0, 3)):
        terms[-2:] = [H, Constant(draw(values))]
    else:
        terms[-1] = H
    body = [
        Atom(draw(st.sampled_from("rst")), [a, b]) for a, b in zip(terms, terms[1:])
    ]
    return ConjunctiveQuery([H], body)


@st.composite
def maintained(draw):
    """The instance, a stream ending in a batch that nets out, and the
    ``(query, parameter values)`` pairs to maintain."""
    rows = {name: draw(rows_of(2, min_size=3)) for name in "rst"}
    stream = draw(updates(rows))
    p = draw(values)
    present = rows["r"][0]
    stream.append(
        [("+", "r", (p, "z")), ("-", "r", (p, "z")), ("-", "r", present), ("+", "r", present)]
    )
    chain, first, second = draw(chains()), draw(chains()), draw(chains())
    filtered = ConjunctiveQuery(chain.head, chain.body, [Equality(P, Q)])
    queries = [
        (chain, {"p": p}),
        (UnionOfConjunctiveQueries([first, second]), {"p": p}),
        (filtered, {"p": p, "q": draw(st.sampled_from(VALUES))}),  # often rejected
        (VIEW_QUERY, {"p": p}),
    ]
    return rows, stream, queries


@budget(25)
@given(scenario=maintained())
def test_every_maintained_result_equals_sqlite_after_every_batch(backend_factory, scenario):
    rows, stream, queries = scenario
    engine = Engine(SCHEMA, ACCESS, rows, backend=backend_factory())
    engine.views.register(*VIEW)
    db = engine.require_database()
    raw = {name: set(rows[name]) for name in rows}
    prepared = [(engine.query(query), values) for query, values in queries]
    live = [q.execute_incremental(values) for q, values in prepared]
    assert [bool(result._views) for result in live] == [False] * 3 + [True]
    for batch in stream:
        apply_batch(db, batch)
        apply_raw(raw, batch)
        engine.views.refresh(db)  # a view that changed marks its reader now
        oracle = SqlOracle(engine.schema, raw)
        for (q, values), result in zip(prepared, live):
            skips = not result._mark.marked
            result.refresh()
            assert result.last_mode == "delta" and result.watermark == db.change_log.watermark
            if skips:
                assert result.stats == AccessStats()
            assert not result._mark.marked
            assert set(result.rows) == oracle.answers(q.query, values)


def registered(log) -> bool:
    """Whether any key of ``log``'s footprint registry holds a mark."""
    return any(keys for watched in log._watched.values() for keys in watched.values())


def test_a_dropped_result_leaves_the_registry_and_the_log_pristine():
    engine = Engine(SCHEMA, ACCESS, {})
    db = engine.require_database()
    log = db.change_log
    db.bulk_load("r", [(1, 2)])
    db.bulk_load("s", [(2, 3)])
    live = [
        engine.query(text).execute_incremental(p=1)
        for text in ("Q(z) :- r(p, y), s(y, z)", "Q(y) :- r(p, y)")
    ]
    assert set(log._watched) == {"r", "s"}
    del live
    gc.collect()
    assert not registered(log) and not log._pins
    assert db.bulk_load("r", [(1, 3)]) == 1


def test_a_rebase_moves_the_registration_to_the_new_log():
    engine = Engine(SCHEMA, ACCESS, {"r": [(1, 2)], "s": [(2, 3)]})
    old = engine.require_database().change_log
    live = engine.query("Q(z) :- r(p, y), s(y, z)").execute_incremental(p=1)
    assert registered(old)
    engine.database = Database(engine.schema, {"r": [(1, 4)], "s": [(4, 5)]})
    assert live.refresh().last_mode == "rebase" and not registered(old)
    engine.database.insert_many("s", [(4, 6)])
    assert live._mark.marked and set(live.refresh().rows) == {(5,), (6,)}


def test_unmarked_results_share_the_latest_slice_without_a_slice_call(monkeypatch):
    """After a write, the first refresh cuts the span once; every other
    result over that span -- marked or not -- finds it as the log's
    latest slice, and a write ends it."""
    from repro.relational.instance import ChangeLog

    engine = Engine(SCHEMA, ACCESS, {"r": [(1, 2), (2, 3)], "s": [(2, 5)], "t": []})
    db = engine.require_database()
    prepared = engine.query("Q(c) :- r(p, b), s(b, c)")
    live = [prepared.execute_incremental(p=p) for p in (1, 2, 7, 8)]
    cuts = []
    cut = ChangeLog.slice_since
    monkeypatch.setattr(ChangeLog, "slice_since", lambda log, w: cuts.append(w) or cut(log, w))
    db.insert_many("t", [(9, 9)])  # nobody reads t: no result is marked
    assert db.change_log.latest is None and not any(result._mark.marked for result in live)
    for result in live:
        result.refresh()
    assert len(cuts) == 1 and db.change_log.latest.stop == db.change_log.watermark
    assert all(result.watermark == db.change_log.watermark for result in live)
    assert all(result.stats == AccessStats() for result in live)
    db.insert_many("r", [(1, 4)])  # marks p=1's result only
    assert db.change_log.latest is None
    for result in live:
        result.refresh()
    assert len(cuts) == 2 and [set(r.rows) for r in live] == [{(5,)}, set(), set(), set()]
