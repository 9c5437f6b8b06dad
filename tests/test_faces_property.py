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

import inspect
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_executor import execute_per_tuple
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
    Equality,
    IncrementalError,
    NotControlledError,
    RelationSchema,
    Variable,
    compile_plan,
)
from repro.analysis import certify_plan
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    delta_fanout_bound,
    delta_program,
    execute_plan,
    execute_plan_counting,
    execute_plan_delta,
    pipeline_for,
    profile_plan,
)
from repro.core.plans import FetchStep, Plan, ProbeStep
from repro.logic.evaluation import join_atoms
from repro.relational import instance
from repro.relational.instance import AccessStats
from repro.views import ViewDef, compile_with_views
from repro.views import rewrite as rewrite_module

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


def ever_present(rows, stream):
    """Every tuple that exists in some state of the stream, by relation."""
    ever = {name: set(rows[name]) for name in RELATIONS}
    for batch in stream:
        for op, name, row in batch:
            if op == "+":
                ever[name].add(row)
    return ever


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
    ever = ever_present(rows, stream)
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


def held_group_is_current(program, seeded, db):
    """A kept seed's held rows are level 0's key group on ``db``, as a set
    and in size, within the bound of the rule they were fetched through."""
    op = program.levels[0][3][0]
    (fresh,) = db.lookup_keys(op.atom.relation, op._sorted_positions, seeded.keys, AccessStats())
    assert set(seeded.rows) == set(fresh) and len(seeded.rows) == len(fresh)
    assert len(seeded.rows) <= op.rule.bound


@budget(40)
@given(scenario=scenarios())
def test_execute_plan_delta_is_the_staged_halves_composed(backend_factory, scenario):
    """One driver, same changes -- and a *kept* seed of a holding program
    charges what the one-shot call does minus exactly the level-0 read:
    the one-shot seeds afresh and, when some level >= 1 changed, fetches
    level 0's group on the new state (its rows, one lookup); the kept seed
    took that group from its hold.  After every batch the held rows are a
    fresh read of the group *as a set*: a row that left and came back
    inside one slice keeps its old place in the hold and comes last in
    the store, which only the order of derivations depends on."""
    schema, access, plan, values = build(scenario)
    if embedded(plan):
        return
    _, rows, stream, *_ = scenario
    db = Database(schema, rows, backend=backend_factory())
    program = delta_program(plan)
    seeded = program.seed(dict(values))  # once: no slice changes it
    counts = program.count(seeded, db, AccessStats())
    assert counts == execute_plan_counting(plan, db, dict(values))
    holds = program.holds and seeded is not None
    assert holds == (seeded is not None and seeded.rows is not None)
    for batch in stream:
        mark = db.change_log.watermark
        apply_batch(db, batch)
        shared = db.change_log.slice_since(mark)
        public = ExecutionContext(db, watermark=mark, delta=shared)
        expected = execute_plan_delta(plan, public, dict(values))
        assert program in shared.staged  # the one-shot call staged on the shared slice
        stats = AccessStats()
        assert program.join(shared, seeded, db, stats) == expected
        saved = AccessStats()
        if holds:
            held_group_is_current(program, seeded, db)
            if len(shared.staged[program]) > 1:  # some level >= 1 changed
                saved = AccessStats(len(seeded.rows), 1, 0)
        assert public.stats.since(stats) == saved
        # A private slice stages privately; a profiled run is the same run.
        private = ExecutionContext(db, watermark=mark, delta=dict(shared.net))
        profiles: list = []
        assert execute_plan_delta(plan, private, dict(values), profiles=profiles) == expected
        assert private.slice is not shared and private.stats == public.stats
        assert sum(op.tuples_accessed for op in profiles) == public.stats.tuples_accessed
        for row, change in expected.items():
            counts[row] = counts.get(row, 0) + change
        counts = {row: count for row, count in counts.items() if count}
        assert counts == execute_plan_counting(plan, db, dict(values))


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


# -- views: a view answers for its atoms (section 6) -----------------------
#
# Views are drawn over the drawn schema, in the queries' own variable pool
# so a view's variable can collide with a query's, and compiled two ways:
# directly (``compile_with_views``: the view-augmented plan, whatever it
# costs) and through an ``Engine`` (cost-based selection, certification,
# the plan cache, refresh-before-read).  One oracle throughout: naive
# evaluation of the *original* query on a separate memory instance.


def stands_for(definition, atom):
    """The test's own reading of the rule, from the paper's side: the
    view's body under its equalities with the head columns replaced by the
    atom's terms -- nothing when a body variable is no head column."""
    subst = definition.equality_substitution()
    columns = [subst.get(v, v) for v in definition.head]
    body = [a.substitute(subst) for a in definition.body]
    variables = {t for a in body for t in a.terms if isinstance(t, Variable)}
    if not variables <= set(columns):
        return frozenset()
    to = {c: t for c, t in zip(columns, atom.terms) if isinstance(c, Variable)}
    return frozenset(a.substitute(to) for a in body)


@st.composite
def view_definitions(draw, arities, query):
    """One to three view queries over the drawn schema: one- and two-atom
    bodies with constants and repeated variables, sometimes an equality,
    heads that keep every body variable (non-projecting) or drop some.
    Most bodies are cut from ``query``'s under a permutation of the
    variable pool, so the view maps into the query and its variables
    collide with the query's; the rest are drawn freely."""
    definitions = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)):
            renaming = dict(zip(VARIABLES, draw(st.permutations(VARIABLES))))
            cut = draw(st.lists(st.sampled_from(query.body), min_size=1, max_size=2))
            body = [atom.substitute(renaming) for atom in cut]
        else:
            body = []
            for _ in range(draw(st.integers(1, 2))):
                name = draw(st.sampled_from(RELATIONS))
                terms = [
                    draw(st.sampled_from(VARIABLES))
                    if draw(st.integers(0, 5))
                    else Constant(draw(values))
                    for _ in range(arities[name])
                ]
                body.append(Atom(name, terms))
        present = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)})
        if not present:
            continue
        equalities = []
        if not draw(st.integers(0, 4)):
            other = st.one_of(st.sampled_from(present), values.map(Constant))
            equalities.append(Equality(draw(st.sampled_from(present)), draw(other)))
        head = draw(st.permutations(present))
        if len(head) > 1 and not draw(st.integers(0, 2)):
            head = head[: draw(st.integers(1, len(head) - 1))]  # projecting
        definitions.append((ConjunctiveQuery(head, body, equalities), draw(st.booleans())))
    return definitions


def register_views(engine, definitions, ever):
    """Register the drawn views with truthful bounds: the largest key
    group of the view over every tuple that ever exists (a conjunctive
    query is monotone, so no state of the stream has a larger one)."""
    everything = Database(engine.schema, ever)
    for i, (definition, keyed) in enumerate(definitions):
        name = f"V{i}"
        key = [definition.head[0].name] if keyed else []
        groups: dict[object, int] = {}
        for row in definition.evaluate(everything):
            group = row[:1] if keyed else ()
            groups[group] = groups.get(group, 0) + 1
        bound = max(groups.values(), default=1)
        engine.views.register(ViewDef(name, definition, [AccessRule(name, key, bound=bound)]))


def check_mechanism(plan, views):
    """What the plan reads, against :func:`stands_for`: a witnessed view
    atom leaves no later step on an atom it stands for, every base atom
    without a witnessing step is stood for by a witnessed view atom (so a
    projecting view's atom leaves every step in place), and no step reads
    a view atom whose stood-for atoms earlier steps had all witnessed."""
    definitions = {view.name: view.query for view in views}
    assert plan.view_relations == {
        s.atom.relation for s in plan.steps if s.atom.relation in definitions
    }
    witnessed: set = set()  # what a step verified or a verified view atom stands for
    proven: set = set()  # the second half alone
    for step in plan.steps:
        atom, stood = step.atom, frozenset()
        if atom.relation in definitions:
            stood = stands_for(definitions[atom.relation], atom)
            assert atom not in witnessed
            assert not (stood and stood <= witnessed), f"{step} reads what {witnessed} entail"
        else:
            assert atom not in proven, f"{step} re-reads what a view atom stands for"
        if isinstance(step, ProbeStep) or step.rule.verifies_atom:
            witnessed |= {atom} | stood
            proven |= stood
    for atom in plan.query.normalized_body():
        if atom.relation not in definitions:
            assert atom in witnessed, f"nothing reads or stands for {atom}"
    assert set(plan.entailed()) == set(plan.query.normalized_body()) - {
        s.atom for s in plan.steps
    }


def multiplicities(query, reference, values):
    """Answer -> number of satisfying assignments, counted naively."""
    subst = query.equality_substitution()
    if subst is None:
        return {}
    seed: dict = {}
    for variable, value in values.items():
        rep = subst.get(variable, variable)
        if (rep.value if isinstance(rep, Constant) else seed.setdefault(rep, value)) != value:
            return {}
    counts: dict = {}
    for assignment in join_atoms(reference, [a.substitute(subst) for a in query.body], seed):
        row = query._project(assignment, subst)
        counts[row] = counts.get(row, 0) + 1
    return counts


def check_answers(plan, query, views, db, reference, values):
    """The plan answers -- rows, order-free; derivation counts; accounting
    -- like the original query evaluated naively."""
    states = views.prepare(db, plan.view_relations)
    ctx = ExecutionContext(db, views=states)
    rows = execute_plan(plan, ctx, dict(values))
    naive = multiplicities(query, reference, values)
    assert set(rows) == set(naive) == set(query.evaluate(reference, values))
    assert len(rows) == len(set(rows))
    assert ctx.stats.tuples_accessed <= plan.fanout_bound
    per_tuple = execute_per_tuple(plan, ExecutionContext(db, views=states), dict(values))
    assert set(per_tuple) == set(naive)
    if not embedded(plan):
        counting = ExecutionContext(db, views=states)
        assert execute_plan_counting(plan, counting, dict(values)) == naive


def check_view_plan(plan, query, access, views, db, reference, values):
    """One view-augmented plan on the current state: it certifies, reads
    what the rule says, and answers like the query it was compiled from."""
    report = certify_plan(plan, access, views)
    assert report.ok(), report.render()
    check_mechanism(plan, views.definitions())
    check_answers(plan, query, views, db, reference, values)


def view_plan(query, access, views, parameters):
    """The view-augmented plan for ``parameters``, or with every variable
    given (every atom a probe) when those do not control the query."""
    try:
        return compile_with_views(query, access, views, parameters)
    except NotControlledError:
        return compile_with_views(query, access, views, query.variables())


@budget(30)
@given(scenario=scenarios(), more=st.data())
def test_view_assisted_answers_are_the_base_answers(backend_factory, scenario, more):
    schema, access, _, _ = build(scenario)
    arities, rows, stream, _, query, parameters, bindings = scenario
    engine = Engine(schema, access, rows, backend=backend_factory())
    definitions = more.draw(view_definitions(arities, query))
    register_views(engine, definitions, ever_present(rows, stream))
    if not len(engine.views):
        return
    db, views = engine.require_database(), engine.views
    reference = Database(schema, rows)
    try:
        plan = view_plan(query, access, views, parameters)
    except NotControlledError:
        return  # no view maps into the query
    values = {v: bindings[v] for v in plan.parameters}
    prepared = engine.query(query)
    try:
        live = prepared.execute_incremental(dict(values))
    except IncrementalError:
        live = None  # the engine's choice fetches through an embedded rule
    for batch in [[]] + stream:
        apply_batch(db, batch)
        apply_batch(reference, batch)
        check_view_plan(plan, query, access, views, db, reference, values)
        # Through the front door: the engine's own choice of plan,
        # certified by the conftest fixture, views refreshed before read.
        naive = multiplicities(query, reference, values)
        fresh = prepared.execute(dict(values))
        assert set(fresh.rows) == set(naive)
        assert fresh.stats.tuples_accessed <= fresh.fanout_bound
        check_mechanism(prepared.plan(values), views.definitions())
        if live is not None:
            live.refresh()
            assert live.last_mode == "delta" and set(live.rows) == set(naive)
            assert dict(live._counts[0]) == naive
            assert live.stats.tuples_accessed <= live.delta_bound


# -- pinned view cases and the seeded mutants they kill ---------------------

PINNED_SCHEMA = "r(a, b); s(a, c)"
PINNED_ACCESS = "r(a -> 8); s(a -> 8)"
PINNED_DATA = {"r": [(1, 7), (2, 7), (2, 1), (5, 2)], "s": [(1, "u"), (2, "u"), (2, 1)]}

#: name -> (view text, its rule, query, parameter values)
PINNED = {
    # V inverts r: Q's only way in, and all there is to read of r(x, p);
    # 'u' has two derivations, one per follower of 7.
    "inverted index": ("V(b, a) :- r(a, b)", "V(b -> 8)", "Q(y) :- r(x, p), s(x, y)", {"p": 7}),
    # V(x) proves some r(x, _), not r(x, y) -- though it is spelt the same.
    "projecting": ("V(x) :- r(x, y)", "V(x -> 1)", "Q(z) :- r(x, y), s(x, z)", {"x": 2}),
    # V(p) stands for r(p, 7) and for no other atom of r.
    "same relation": ("V(x) :- r(x, 7)", "V(x -> 1)", "Q(p) :- r(p, 7), r(q, p)", {"p": 1, "q": 5}),
    # ... and answers for both of its atoms at once.
    "two atoms": ("V(x, y) :- r(x, y), s(x, y)", "V(x -> 4)", "Q(y) :- r(p, y), s(p, y)", {"p": 2}),
}


def pinned(name):
    view, rule, text, values = PINNED[name]
    engine = Engine(PINNED_SCHEMA, PINNED_ACCESS, PINNED_DATA)
    engine.views.register("V", view, rule)
    query = engine.query(text).query
    plan = compile_with_views(query, engine.access, engine.views, values)
    values = {Variable(name): value for name, value in values.items()}
    return engine, query, plan, values


def forged_plans():
    """Plans that drop a base step nothing entails: under a projecting
    view, and under a non-projecting one whose atom names other terms."""
    engine, _, plan, _ = pinned("projecting")
    kept = tuple(s for s in plan.steps if s.atom.relation != "r")
    assert len(kept) == len(plan.steps) - 1 and plan.view_relations == {"V"}
    yield engine, Plan(plan.query, plan.parameters, kept, plan.head_terms, True, {"V"})
    engine, query, plan, _ = pinned("inverted index")
    x, p = Variable("x"), Variable("p")
    wrong = ConjunctiveQuery(query.head, [Atom("r", [p, x]), *plan.query.body[1:]])
    assert [str(s.atom) for s in plan.steps] == ["V(?p, ?x)", "s(?x, ?y)"]
    yield engine, Plan(wrong, plan.parameters, plan.steps, plan.head_terms, True, {"V"})


def view_properties(certify):
    """label -> check, over the pinned cases."""

    def over_cases(check):
        def run():
            for name in PINNED:
                engine, query, plan, values = pinned(name)
                check(engine, query, plan, values)

        return run

    def certifies(engine, query, plan, values):
        assert certify(plan, engine.access, engine.views).ok()

    def mechanism(engine, query, plan, values):
        check_mechanism(plan, engine.views.definitions())

    def answers(engine, query, plan, values):
        db = engine.require_database()
        check_answers(plan, query, engine.views, db, db, values)

    def forgeries():
        for engine, forged in forged_plans():
            codes = {d.code for d in certify(forged, engine.access, engine.views)}
            assert codes == {"CRT007"}, codes

    return {
        "certifies": over_cases(certifies),
        "mechanism": over_cases(mechanism),
        "answers": over_cases(answers),
        "forgeries are rejected": forgeries,
    }


def test_the_pinned_view_cases_hold():
    for check in view_properties(certify_plan).values():
        check()
    plans = {name: [str(s) for s in pinned(name)[2].steps] for name in PINNED}
    assert plans["inverted index"] == [
        "fetch V(?p, ?x) via V(b -> 8), binding ?x",
        "fetch s(?x, ?y) via s(a -> 8), binding ?y",
    ]
    assert plans["projecting"][0] == "probe V(?x)" and len(plans["projecting"]) == 3
    assert plans["same relation"] == ["probe V(?p)", "probe r(?q, ?p)"]
    assert plans["two atoms"] == ["fetch V(?p, ?y) via V(x -> 4), binding ?y"]


#: name -> (where the line lives, the line to break, what to break it
#: into, the property that must notice)
VIEW_MUTANTS = {
    "projecting test dropped from stands-for": (
        ViewDef.stands_for,
        "if any(isinstance(t, Variable) and t not in to for a in body for t in a.terms):",
        "if False:",
        "mechanism",
    ),
    "head zipped onto the terms in body order": (
        ViewDef.stands_for,
        "zip(self.query.head, atom.terms)",
        "zip(dict.fromkeys(t for a in self.query.body for t in a.terms), atom.terms)",
        "mechanism",
    ),
    "planner elides the relation, not the atom": (
        compile_plan,
        "if a not in stood and",
        "if a.relation not in {b.relation for b in stood} and",
        "answers",
    ),
    "certifier accepts any unread atom beside a view step": (
        certify_plan,
        "if stood and stood <= witnessed:",
        "if plan.view_relations:",
        "forgeries are rejected",
    ),
}


@pytest.mark.parametrize("name", VIEW_MUTANTS)
def test_seeded_view_mutants_are_killed(monkeypatch, name):
    target, old, new, killer = VIEW_MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1, f"mutation site of {name!r} moved"
    namespace = dict(vars(inspect.getmodule(target)))
    exec(compile(source.replace(old, new), f"<{name}>", "exec"), namespace)
    mutant = namespace[target.__name__]
    certify = certify_plan
    if target is certify_plan:
        certify = mutant
    elif target is compile_plan:
        monkeypatch.setattr(rewrite_module, "compile_plan", mutant)
    else:
        monkeypatch.setattr(ViewDef, "stands_for", mutant)
    killed_by = []
    for label, check in view_properties(certify).items():
        try:
            check()
        except AssertionError:
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killer in killed_by, f"{name!r} survived {killer}: killed by {killed_by}"
