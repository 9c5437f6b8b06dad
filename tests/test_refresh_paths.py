"""What a refresh pays for, on generated inputs (Section 5).

* **a one-atom view is its slice, permuted**: a view whose body is one
  atom over distinct variables, all in its head, refreshes by permuting
  its relation's net slice -- no delta program runs -- while a constant,
  a repeated variable, an equality or a projecting head keeps the delta
  program.  Either way the refresh's net equals the delta program's join
  over the same slice (for a flat view) and the set difference of two
  SQL-oracle recomputes, and ``rows`` and ``len`` agree with the
  oracle;
* **a refresh stays within its witness** (the Section 5 form of the
  paper's definition): after every generated batch each maintained
  result reads at most ``delta_bound`` tuples, an unmarked one runs no
  join and reads nothing, and its rows are the SQL oracle's on the new
  database.

Both run on both storage backends (``backend_factory``).
"""

from hypothesis import given
from hypothesis import strategies as st

from sql_oracle import SqlOracle
from test_faces_property import (
    RELATIONS,
    VARIABLES,
    apply_batch,
    apply_raw,
    budget,
    build,
    rows_of,
    updates,
    values,
)
from test_held_group import holding_scenarios
from repro import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    DatabaseSchema,
    Engine,
    Equality,
    RelationSchema,
)
from repro.core.executor import DeltaProgram, ExecutionContext
from repro.relational.instance import AccessStats
from repro.views import ViewDef, ViewState

#: Arities of the one-atom view property's relations: every shape but a
#: plain permutation needs two columns at least.
ARITIES = {"r": 1, "s": 2, "t": 3}
SHAPES = ("permutation", "constant", "repeated variable", "equality", "projecting head")


@st.composite
def one_atom_views(draw):
    """A shape, an instance, an update stream and a one-atom view of that
    shape: only a ``permutation`` has distinct variables, all in the head."""
    shape = draw(st.sampled_from(SHAPES))
    rows = {name: draw(rows_of(arity, min_size=3)) for name, arity in ARITIES.items()}
    stream = draw(updates(rows)) + draw(updates(rows))
    relation = draw(st.sampled_from(("r", "s", "t") if shape == "permutation" else ("s", "t")))
    terms = list(draw(st.permutations(VARIABLES))[: ARITIES[relation]])
    equalities = []
    if shape == "constant":
        terms[draw(st.integers(0, len(terms) - 1))] = Constant(draw(values))
    elif shape == "repeated variable":
        terms[1] = terms[0]
    elif shape == "equality":
        target = Constant(draw(values)) if draw(st.booleans()) else terms[1]
        equalities.append(Equality(terms[0], target))
    head = draw(st.permutations(sorted({t for t in terms if not isinstance(t, Constant)})))
    if shape == "projecting head":
        head = head[: draw(st.integers(1, len(head) - 1))]
    query = ConjunctiveQuery(head, [Atom(relation, terms)], equalities)
    return shape, rows, stream, query


def spy_on_programs(monkeypatch) -> list:
    """Record every ``DeltaProgram.join`` call from now on."""
    calls: list = []
    join = DeltaProgram.join

    def spied(self, ctx, seeded):
        calls.append(self)
        return join(self, ctx, seeded)

    monkeypatch.setattr(DeltaProgram, "join", spied)
    return calls, join


@budget(40)
@given(case=one_atom_views())
def test_a_one_atom_view_refresh_is_its_slice_permuted(backend_factory, monkeypatch, case):
    shape, rows, stream, query = case
    schema = DatabaseSchema(
        [RelationSchema(name, [f"a{i}" for i in range(n)]) for name, n in ARITIES.items()]
    )
    db = Database(schema, rows, backend=backend_factory())
    raw = {name: set(rows[name]) for name in RELATIONS}
    state = ViewState(ViewDef("V", query), db)
    assert (state.one_atom is not None) == (shape == "permutation")
    assert set(state.rows) == SqlOracle(schema, raw).answers(query)
    calls, join = spy_on_programs(monkeypatch)
    for batch in stream:
        mark, before = state.watermark, set(state.rows)
        apply_batch(db, batch)
        apply_raw(raw, batch)
        slice = db.change_log.slice_since(mark)
        joined = join(state.program, ExecutionContext(db, delta=slice), state.seeded)
        calls.clear()
        net = state.refresh()
        # Which path ran: only a permutation skips the delta program.
        ran = calls.count(state.program)
        assert ran == 0 if shape == "permutation" or not slice.net else ran == 1
        answers = SqlOracle(schema, raw).answers(query)
        gained, lost = answers - before, before - answers
        assert net == {**dict.fromkeys(gained, 1), **dict.fromkeys(lost, -1)}
        if state.flat:
            assert net == joined
        assert set(state.rows) == answers and len(state) == len(answers) == len(state.rows)
        assert state.watermark == db.change_log.watermark
    monkeypatch.undo()


@budget(15)
@given(scenario=holding_scenarios())
def test_every_refresh_stays_within_its_witness(backend_factory, monkeypatch, scenario):
    """One result per value of the parameter, so a batch marks some of
    them and misses the rest."""
    schema, access, _, _ = build(scenario)
    _, rows, stream, _, query, parameters, _ = scenario
    engine = Engine(schema, access, rows, backend=backend_factory())
    db = engine.require_database()
    raw = {name: set(rows[name]) for name in RELATIONS}
    prepared = engine.query(query)
    (parameter,) = parameters
    live = {p: prepared.execute_incremental({parameter: p}) for p in (0, 1, None, "a")}
    calls, _ = spy_on_programs(monkeypatch)
    for batch in stream:
        apply_batch(db, batch)
        apply_raw(raw, batch)
        oracle = SqlOracle(schema, raw)
        for p, result in live.items():
            marked = result._mark.marked
            calls.clear()
            result.refresh()
            assert result.stats.tuples_accessed <= result.delta_bound
            if not marked:
                assert calls == [] and result.stats == AccessStats()
            assert set(result.rows) == oracle.answers(query, {parameter: p})
            assert len(result.rows) == len(set(result.rows))
    monkeypatch.undo()
