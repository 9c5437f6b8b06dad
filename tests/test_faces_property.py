"""Generated-input differential tests for the executor's three faces.

The paper's guarantees are universally quantified -- every controlled
query, every instance honouring the bounds, every well-formed update --
so these properties draw the inputs instead of hand-picking them: access
schemas mixing plain, full and embedded rules; conjunctive queries with
repeated variables, constants and ``None`` values; small instances and
update streams (with insert-then-delete cancellation).  One oracle: naive
evaluation on a separate memory instance.

* **new face**: ``execute_plan`` = ``execute_per_tuple`` = naive (as
  sets); tuples accessed stay within ``fanout_bound``; the only scans are
  the keyless fetches a full rule asks for; ``profile_plan`` reports the
  same rows and the same accounting; and the accounting equals the memory
  backend's on every backend.
* **delta and old faces**: ``execute_plan_counting`` folded with
  successive ``execute_plan_delta`` results equals a from-scratch count
  after every batch, within ``delta_fanout_bound``; plans fetching
  through an embedded rule are rejected eagerly by both signed entry
  points.
* **one staged driver**: ``execute_plan_delta`` equals the two staged
  halves (``DeltaProgram.seed``, and ``stage`` on the slice) composed by
  ``DeltaProgram.join``, over a shared and a private slice, profiled or
  not; twin ``IncrementalResult`` s -- one refreshed with
  ``analyze=True``, one without -- stay equal in rows, counts, ``stats``,
  ``delta_bound`` and watermark at every step, at two cadences.
* **a view riding in the slice**: an ``IncrementalResult`` over a
  view-assisted plan refreshes to what a fresh execution returns.
* **pinned compaction**: two consumers of one log refreshing at
  different cadences through their compiled ``DeltaProgram``, with the
  compaction trigger patched so small that the log truncates constantly
  -- counts stay equal to from-scratch, the log never drops below a pin,
  and the public ``execute_plan_delta`` returns exactly what the program
  runner does.

Every test runs on all three storage backends (``backend_factory``),
derandomised, with an example budget sized to keep tier-1 fast.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    DatabaseSchema,
    EmbeddedAccessRule,
    Engine,
    IncrementalError,
    NotControlledError,
    RelationSchema,
    Variable,
    compile_plan,
)
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    delta_fanout_bound,
    delta_program,
    execute_per_tuple,
    execute_plan,
    execute_plan_counting,
    execute_plan_delta,
    pipeline_for,
    profile_plan,
)
from repro.core.plans import FetchStep
from repro.relational import instance
from repro.relational.instance import AccessStats

#: A small domain keeps the relations dense, so joins find partners,
#: updates hit maintained answers and rows get several derivations.
VALUES = (0, 1, None, "a")
VARIABLES = tuple(Variable(name) for name in "xyzw")
RELATIONS = ("r", "s", "t")


def budget(max_examples: int) -> settings:
    """Derandomised, no deadline (SQLite examples are slower), no example
    database (nothing is left behind in the checkout); ``backend_factory``
    is only a factory, so sharing it across examples is safe."""
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )


values = st.sampled_from(VALUES)


def rows_of(arity: int, min_size: int = 0):
    return st.lists(
        st.tuples(*[values] * arity), min_size=min_size, max_size=10, unique=True
    )


def updates(rows):
    """A stream of 1-3 non-empty batches of ``(op, relation, row)`` over
    the relations of ``rows``: deletes mostly aim at stored tuples, an
    insert is sometimes followed by the delete that cancels it, and a
    change is often repeated on a tuple it joins with."""
    relations = sorted(rows)

    @st.composite
    def batch(draw):
        ops = []
        for _ in range(draw(st.integers(1, 5))):
            name = draw(st.sampled_from(relations))
            op = draw(st.sampled_from("+-"))
            if op == "-" and rows[name] and draw(st.integers(0, 3)):
                row = draw(st.sampled_from(rows[name]))
            else:
                row = draw(st.tuples(*[values] * len(rows[name][0])))
            ops.append((op, name, row))
            if op == "+" and not draw(st.integers(0, 3)):
                ops.append(("-", name, row))  # insert-then-delete: nets out
            elif draw(st.booleans()):
                # A second change of the same kind in some relation -- the
                # mirrored tuple inserted, or another stored tuple deleted
                # -- so one batch changes several levels of a join at once.
                other = draw(st.sampled_from(relations))
                if op == "+":
                    partner = (row[::-1] * 3)[: len(rows[other][0])]
                else:
                    partner = draw(st.sampled_from(rows[other]))
                ops.append((op, other, partner))
        return ops

    return st.lists(batch(), min_size=1, max_size=3)


@st.composite
def scenarios(draw):
    """A schema, an instance, an update stream, rule shapes, a query and
    its parameter values."""
    arities = {name: draw(st.sampled_from((1, 2, 2, 3))) for name in RELATIONS}
    rows = {name: draw(rows_of(arities[name], min_size=3)) for name in RELATIONS}
    stream = draw(updates(rows))
    rules = []
    for name in RELATIONS:
        positions = list(range(arities[name]))
        for _ in range(draw(st.integers(2, 3))):
            # Mostly full rules and single-attribute keys: generous enough
            # that most queries are controlled by few parameters.
            inputs = draw(st.lists(st.sampled_from(positions), unique=True, max_size=1))
            rest = [p for p in positions if p not in inputs]
            outputs = ()
            if rest and not draw(st.integers(0, 5)):
                outputs = draw(st.lists(st.sampled_from(rest), unique=True, min_size=1))
            rules.append((name, tuple(inputs), tuple(outputs)))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(RELATIONS))
        terms = [
            draw(st.sampled_from(VARIABLES))
            if draw(st.integers(0, 4))
            else Constant(draw(values))
            for _ in range(arities[name])
        ]
        body.append(Atom(name, terms))
    present = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)})
    if present:
        head = draw(st.lists(st.sampled_from(present), unique=True))
        parameters = draw(st.lists(st.sampled_from(present), unique=True, max_size=1))
    else:
        head = parameters = []
    bindings = {v: draw(values) for v in present}
    return arities, rows, stream, rules, ConjunctiveQuery(head, body), parameters, bindings


def build(scenario):
    """Turn a drawn scenario into (schema, access, plan, parameter values).

    Rule bounds are the largest key group over every tuple that ever
    exists, so each state of the stream honours the declared bounds.  A
    parameter set that does not control the query falls back to all of
    its variables (every atom is then a probe)."""
    arities, rows, stream, rules, query, parameters, bindings = scenario
    schema = DatabaseSchema(
        [RelationSchema(name, [f"a{i}" for i in range(arities[name])]) for name in RELATIONS]
    )
    ever = {name: set(rows[name]) for name in RELATIONS}
    for batch in stream:
        for op, name, row in batch:
            if op == "+":
                ever[name].add(row)
    built = []
    for name, inputs, outputs in rules:
        groups: dict[tuple, int] = {}
        for row in ever[name]:
            key = tuple(row[p] for p in inputs)
            groups[key] = groups.get(key, 0) + 1
        bound = max(groups.values(), default=1)
        names = [f"a{p}" for p in inputs]
        if outputs:
            built.append(
                EmbeddedAccessRule(name, names, [f"a{p}" for p in outputs], bound=bound)
            )
        else:
            built.append(AccessRule(name, names, bound=bound))
    access = AccessSchema(schema, built)
    try:
        plan = compile_plan(query, access, parameters)
    except NotControlledError:
        plan = compile_plan(query, access, query.variables())
    return schema, access, plan, {v: bindings[v] for v in plan.parameters}


def apply_batch(db, batch):
    for op, name, row in batch:
        (db.add if op == "+" else db.delete)(name, row)


def keyless_fetches(plan) -> int:
    return sum(
        1
        for op in pipeline_for(plan)
        if isinstance(op, FetchOp) and not op.key_positions
    )


def embedded(plan) -> bool:
    return any(
        isinstance(step, FetchStep) and isinstance(step.rule, EmbeddedAccessRule)
        for step in plan.steps
    )


def check_new_face(plan, db, reference, values):
    """The first group of properties, on the current state of ``db``
    (any backend) and of ``reference`` (memory, same contents)."""
    ctx = ExecutionContext(db)
    rows = execute_plan(plan, ctx, dict(values))
    naive = set(plan.query.evaluate(reference, values))
    assert set(rows) == naive
    assert len(rows) == len(set(rows))  # deduplicated
    assert set(execute_per_tuple(plan, db, dict(values))) == naive
    assert ctx.stats.tuples_accessed <= plan.fanout_bound
    assert ctx.stats.full_scans <= keyless_fetches(plan)
    profiled = ExecutionContext(db)
    profile = profile_plan(plan, profiled, dict(values))
    assert set(profile.rows) == naive
    assert profiled.stats == ctx.stats
    assert profile.tuples_accessed == ctx.stats.tuples_accessed
    on_memory = ExecutionContext(reference)
    execute_plan(plan, on_memory, dict(values))
    assert on_memory.stats == ctx.stats  # accounting is backend-independent


@budget(80)
@given(scenario=scenarios())
def test_three_faces_agree_with_naive_evaluation(backend_factory, scenario):
    schema, access, plan, values = build(scenario)
    _, rows, stream, *_ = scenario
    db = Database(schema, rows, backend=backend_factory())
    reference = Database(schema, rows)
    check_new_face(plan, db, reference, values)
    if embedded(plan):
        # Eagerly, on both signed entry points, whatever the slice holds.
        with pytest.raises(IncrementalError):
            execute_plan_counting(plan, db, dict(values))
        with pytest.raises(IncrementalError):
            execute_plan_delta(plan, ExecutionContext(db, delta={}), dict(values))
        for batch in stream:
            apply_batch(db, batch)
            apply_batch(reference, batch)
            check_new_face(plan, db, reference, values)
        return
    counts = execute_plan_counting(plan, db, dict(values))
    assert list(counts) == list(execute_plan(plan, db, dict(values)))
    for batch in stream:
        mark = db.change_log.watermark
        apply_batch(db, batch)
        apply_batch(reference, batch)
        delta = db.change_log.net_since(mark)
        ctx = ExecutionContext(db, watermark=mark, delta=delta)
        changes = execute_plan_delta(plan, ctx, dict(values))
        sizes = {name: len(net) for name, net in delta.items()}
        assert ctx.stats.tuples_accessed <= delta_fanout_bound(plan, sizes)
        if not delta:
            assert changes == {} and ctx.stats.indexed_lookups == 0
        if not keyless_fetches(plan):
            assert ctx.stats.full_scans == 0
        for row, change in changes.items():
            assert change  # cancelled derivations are not reported
            counts[row] = counts.get(row, 0) + change
        counts = {row: count for row, count in counts.items() if count}
        assert counts == execute_plan_counting(plan, db, dict(values))
        assert all(count > 0 for count in counts.values())
        check_new_face(plan, db, reference, values)


class Consumer:
    """A maintained count table over one plan: what ``IncrementalResult``
    is to the Engine, reduced to the executor's own entry points -- a
    pinned watermark, a program compiled once, a validated seed."""

    def __init__(self, plan, db, values):
        self.plan, self.db, self.values = plan, db, values
        self.program = delta_program(plan)
        self.watermark = db.change_log.watermark
        self.counts = execute_plan_counting(plan, db, dict(values))
        db.change_log.pin(self)

    def refresh(self):
        log = self.db.change_log
        slice = log.slice_since(self.watermark)
        assert (slice.start, slice.stop) == (self.watermark, log.watermark)
        ctx = ExecutionContext(self.db, watermark=slice.start, delta=slice)
        changes = self.program.run(ctx, self.values)
        assert ctx.stats.tuples_accessed <= delta_fanout_bound(self.plan, slice.sizes)
        if not keyless_fetches(self.plan):
            assert ctx.stats.full_scans == 0
        # The public wrapper is the same runner behind parameter checks.
        public = ExecutionContext(self.db, watermark=slice.start, delta=slice)
        assert execute_plan_delta(self.plan, public, dict(self.values)) == changes
        assert public.stats == ctx.stats
        for row, change in changes.items():
            self.counts[row] = self.counts.get(row, 0) + change
        self.counts = {row: count for row, count in self.counts.items() if count}
        self.watermark = slice.stop
        assert self.counts == execute_plan_counting(self.plan, self.db, dict(self.values))


@budget(40)
@given(scenario=scenarios(), more=st.data())
def test_consumers_at_different_cadences_survive_constant_compaction(
    backend_factory, monkeypatch, scenario, more
):
    monkeypatch.setattr(instance, "COMPACT_MIN_DEAD", 1)
    schema, access, plan, values = build(scenario)
    if embedded(plan):
        return
    _, rows, stream, *_ = scenario
    stream = stream + more.draw(updates(rows)) + more.draw(updates(rows))
    db = Database(schema, rows, backend=backend_factory())
    log = db.change_log
    assert log.floor > 0  # nobody pinned the load: it is gone already
    eager, lazy = Consumer(plan, db, values), Consumer(plan, db, values)
    for i, batch in enumerate(stream):
        apply_batch(db, batch)
        eager.refresh()
        if i % 3 == 2:
            lazy.refresh()
        # Never below a pin, tids absolute, nothing retained twice.
        assert log.floor <= lazy.watermark <= eager.watermark == log.watermark
        assert len(log) == log.watermark - log.floor
        assert [entry.tid for entry in log] == list(range(log.floor, log.watermark))
    lazy.refresh()
    assert lazy.counts == eager.counts


@budget(40)
@given(scenario=scenarios())
def test_execute_plan_delta_is_the_staged_halves_composed(backend_factory, scenario):
    schema, access, plan, values = build(scenario)
    if embedded(plan):
        return
    _, rows, stream, *_ = scenario
    db = Database(schema, rows, backend=backend_factory())
    program = delta_program(plan)
    seeded = program.seed(dict(values))  # once: no slice changes it
    counts = program.count(seeded, db, AccessStats())
    assert counts == execute_plan_counting(plan, db, dict(values))
    for batch in stream:
        mark = db.change_log.watermark
        apply_batch(db, batch)
        shared = db.change_log.slice_since(mark)
        public = ExecutionContext(db, watermark=mark, delta=shared)
        expected = execute_plan_delta(plan, public, dict(values))
        assert program in shared.staged  # the one-shot call staged on the shared slice
        stats = AccessStats()
        assert program.join(shared, seeded, db, stats) == expected
        assert stats == public.stats
        # A private slice stages privately; a profiled run is the same run.
        private = ExecutionContext(db, watermark=mark, delta=dict(shared.net))
        profiles: list = []
        assert execute_plan_delta(plan, private, dict(values), profiles=profiles) == expected
        assert private.slice is not shared and private.stats == public.stats
        assert sum(op.tuples_accessed for op in profiles) == stats.tuples_accessed
        for row, change in expected.items():
            counts[row] = counts.get(row, 0) + change
        counts = {row: count for row, count in counts.items() if count}
        assert counts == program.count(seeded, db, AccessStats())


@budget(30)
@given(scenario=scenarios(), more=st.data())
def test_analyzing_and_plain_refreshes_are_one_driver(backend_factory, scenario, more):
    """Twins over one stream: whatever ``analyze`` adds is bookkeeping --
    same rows, counts, accounting, bound and watermark after every step,
    refreshing every batch or every third."""
    schema, access, plan, values = build(scenario)
    _, rows, stream, *_, query, _, _ = scenario
    stream = stream + more.draw(updates(rows))
    engine = Engine(schema, access, rows, backend=backend_factory())
    db = engine.require_database()
    prepared = engine.query(query)
    try:
        twins = [
            [prepared.execute_incremental(dict(values)) for _ in range(2)] for _ in range(2)
        ]
    except IncrementalError:
        return  # an embedded-rule plan: nothing to maintain

    def agree(plain, analyzed):
        assert plain.rows == analyzed.rows and plain._counts == analyzed._counts
        assert plain.stats == analyzed.stats and plain.delta_bound == analyzed.delta_bound
        assert plain.watermark == analyzed.watermark and plain.last_mode == analyzed.last_mode

    (eager, lazy) = twins
    for i, batch in enumerate(stream):
        apply_batch(db, batch)
        for cadence, (plain, analyzed) in ((1, eager), (3, lazy)):
            if i % cadence == cadence - 1:
                plain.refresh()
                analyzed.refresh(analyze=True)
                assert plain.profiles == () and plain.stats.tuples_accessed <= plain.delta_bound
                profiled = sum(p.tuples_accessed for p in analyzed.profiles)
                assert profiled == analyzed.stats.tuples_accessed
            agree(plain, analyzed)
        assert set(eager[0].rows) == set(prepared.execute(dict(values)).rows)
    for plain, analyzed in twins:
        plain.refresh()
        analyzed.refresh(analyze=True)
        agree(plain, analyzed)
    assert set(lazy[0].rows) == set(eager[0].rows)
    assert all(result.last_mode == "delta" for pair in twins for result in pair)


VIEW_SCHEMA = "r(a, b); s(a, c)"
VIEW_ACCESS = "r(a -> 8); s(a -> 8)"
# Base rules cannot find the a's pointing at a given b; the view inverts r.
VIEW_QUERY = "Q(x, y) :- r(x, p), s(x, y)"


@budget(20)
@given(
    data=st.fixed_dictionaries({"r": rows_of(2, min_size=3), "s": rows_of(2, min_size=3)}),
    draw=st.data(),
    p=values,
)
def test_a_view_rides_in_the_slice(backend_factory, data, draw, p):
    r, s = data["r"], data["s"]
    stream = draw.draw(updates(data))
    engine = Engine(
        VIEW_SCHEMA, VIEW_ACCESS, {"r": r, "s": s}, backend=backend_factory()
    )
    engine.views.register("V", "V(b, a) :- r(a, b)", "V(b -> 64)")
    db = engine.require_database()
    prepared = engine.query(VIEW_QUERY)
    assert "V" in prepared.plan(["p"]).view_relations
    reference = Database(engine.schema, {"r": r, "s": s})
    naive = prepared.query
    live = prepared.execute_incremental(p=p)
    assert set(live.rows) == set(naive.evaluate(reference, {"p": p}))
    for batch in stream:
        apply_batch(db, batch)
        apply_batch(reference, batch)
        before = db.stats.snapshot()
        live.refresh()
        assert live.last_mode == "delta"
        assert live.stats.tuples_accessed <= live.delta_bound
        # The view's rows are not base-table traffic.
        assert db.stats.since(before).tuples_accessed <= live.stats.tuples_accessed
        fresh = prepared.execute(p=p)
        assert set(live.rows) == set(fresh.rows) == set(naive.evaluate(reference, {"p": p}))
        assert fresh.stats.tuples_accessed <= fresh.fanout_bound
        assert fresh.stats.full_scans == 0
