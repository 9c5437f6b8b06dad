"""The verdict is the plan.

Section 4 of the paper makes a conjunctive query scale independent
exactly when it is controlled, and the controllability fixpoint's
derivation is the bounded plan.  The fixpoint runs once, as the planner's
walk (``repro.core.plans.walk``), and its one result is a ``Coverage``:
``coverage``, ``is_controlled``, ``controlling_sets`` and ``decide_qsi``
read it, and a failed ``compile_plan`` raises a ``NotControlledError``
carrying its own and quoting its trace.  These tests hold every verdict
to whether ``compile_plan`` succeeds -- over generated queries with
equalities (classes that join atoms, pin constants or occur in no atom),
plain, full and embedded rules and random parameter subsets -- and kill
three seeded mutants of the shared code.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mutation import mutate
from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Constant,
    DatabaseSchema,
    EmbeddedAccessRule,
    Engine,
    Equality,
    FullAccessRule,
    NotControlledError,
    RelationSchema,
    Variable,
    compile_plan,
    controlling_sets,
    decide_qsi,
    is_controlled,
    parse_query,
)
from repro.core import controllability, plans
from repro.core.controllability import coverage
from repro.workloads import Q4, Q5, SOCIAL_ACCESS, SOCIAL_SCHEMA

ATTRIBUTES = {"r": ("a0",), "s": ("a0", "a1"), "t": ("a0", "a1", "a2")}
SCHEMA = DatabaseSchema([RelationSchema(name, attrs) for name, attrs in ATTRIBUTES.items()])
#: x, y and z fill atoms; u and v occur in equalities only.
VARIABLES = tuple(Variable(name) for name in "xyzuv")
CONSTANTS = (Constant(0), Constant(1))


@st.composite
def rules(draw, relation):
    """A full, plain or embedded rule on ``relation``."""
    attributes = ATTRIBUTES[relation]
    inputs = draw(st.lists(st.sampled_from(attributes), unique=True))
    rest = [a for a in attributes if a not in inputs]
    bound = draw(st.integers(1, 4))
    if not inputs:
        return FullAccessRule(relation, bound)
    if rest and draw(st.booleans()):
        outputs = draw(st.lists(st.sampled_from(rest), unique=True, min_size=1))
        return EmbeddedAccessRule(relation, inputs, outputs, bound)
    return AccessRule(relation, inputs, bound)


@st.composite
def cases(draw):
    """``(query, access, parameters)``: parameters any subset of the
    query's variables, equality-only ones included."""
    relations = st.sampled_from(sorted(ATTRIBUTES))
    access = AccessSchema(SCHEMA, [draw(rules(r)) for r in draw(st.lists(relations, max_size=4))])
    terms = st.sampled_from(VARIABLES[:3] + CONSTANTS)
    body = [
        Atom(r, [draw(terms) for _ in ATTRIBUTES[r]])
        for r in draw(st.lists(relations, min_size=1, max_size=3))
    ]
    equalities = [
        Equality(draw(st.sampled_from(VARIABLES + CONSTANTS)), draw(st.sampled_from(VARIABLES)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    in_atoms = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)})
    head = draw(st.lists(st.sampled_from(in_atoms), unique=True)) if in_atoms else []
    query = ConjunctiveQuery(head, body, equalities)
    variables = query.variables()
    params = draw(st.lists(st.sampled_from(variables), unique=True, max_size=3)) if variables else []
    return query, access, tuple(params)


#: ``Q(x) :- r(x), y = z``: the class {y, z} is read by no atom, so it
#: needs no binding -- the plan is one fetch of r.
EQUALITY_ONLY = ConjunctiveQuery(["x"], [Atom("r", ["?x"])], [Equality("?y", "?z")])


def failure(query, access, params) -> NotControlledError | None:
    """The NotControlledError ``compile_plan`` raises, or None."""
    try:
        compile_plan(query, access, params)
    except NotControlledError as exc:
        return exc
    return None


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
@example((EQUALITY_ONLY, AccessSchema(SCHEMA, [FullAccessRule("r", 4)]), ()))
def test_every_verdict_is_whether_the_plan_compiles(case):
    query, access, params = case
    failed = failure(query, access, params)
    expected = failed is None
    cover = coverage(query, access, params)
    assert cover.controlled is expected
    assert is_controlled(query, access, params) is expected
    assert decide_qsi(query, access, params).scale_independent is expected
    assert failed is None or failed.coverage == cover
    assert (params in controlling_sets(query, access, params, minimal_only=False)) is expected


def test_coverage_steps_are_the_plan_steps():
    access = AccessSchema.parse(SOCIAL_SCHEMA, SOCIAL_ACCESS)
    query = parse_query("Q(y) :- friend(p, y), person(y, n, 'NYC')", DatabaseSchema.parse(SOCIAL_SCHEMA))
    assert coverage(query, access, ["p"]).steps == compile_plan(query, access, ["p"]).steps


def test_an_equality_no_atom_reads_is_controlled_planned_and_executed():
    access = AccessSchema(SCHEMA, [FullAccessRule("r", 4)])
    engine = Engine(SCHEMA, access, data={"r": [(1,), (2,)]})
    q = engine.query("Q(x) :- r(x), y = z")
    assert q.is_controlled() and q.decide_qsi().scale_independent
    assert len(q.plan().steps) == 1
    assert q.execute().rows == ((1,), (2,))
    assert "QRY007" not in {d.code for d in engine.analyze([(q, ())])}


def test_unknown_parameters_are_rejected_by_every_verdict():
    access = AccessSchema(SCHEMA, [FullAccessRule("r", 4)])
    for verdict in (compile_plan, coverage, is_controlled, decide_qsi):
        with pytest.raises(ValueError, match=r"not occurring in the query: \?zzz"):
            verdict(EQUALITY_ONLY, access, ["zzz"])


def check_a_parameter_binds_its_class():
    # x = p: the class's representative is x, the first variable seen.
    query = ConjunctiveQuery(["y"], [Atom("friend", ["?x", "?y"])], [Equality("?x", "?p")])
    access = AccessSchema.parse(SOCIAL_SCHEMA, SOCIAL_ACCESS)
    assert coverage(query, access, ["p"]).controlled
    assert compile_plan(query, access, ["p"]).steps[0].binds == (Variable("y"),)


#: text, parameters -> the message the planner raised before the walk was
#: shared (and must still raise, byte for byte).
FAILURES = {
    (Q4.query, "p"): (
        "query Q(?f) <- friend(?f, ?p), person(?f, ?n, 'NYC') is not controlled by ?p "
        "under {person(pid -> 1); friend(pid1 -> 32); visits(pid -> 8)} (unreachable "
        "variables: ?f, ?n; uncovered atoms: friend(?f, ?p), person(?f, ?n, 'NYC'))\n"
        "variable ?f can never become bound: friend(pid1 -> 32) needs ?f bound first "
        "(in friend(?f, ?p)); person(pid -> 1) needs ?f bound first (in person(?f, ?n, "
        "'NYC')); reachable bindings: ?p\n"
        "variable ?n can never become bound: person(pid -> 1) needs ?f bound first "
        "(in person(?f, ?n, 'NYC')); reachable bindings: ?p"
    ),
    (Q5.query, "u"): (
        "query Q(?y) <- visits(?y, ?u) is not controlled by ?u under {person(pid -> 1); "
        "friend(pid1 -> 32); visits(pid -> 8)} (unreachable variables: ?y; uncovered "
        "atoms: visits(?y, ?u))\n"
        "variable ?y can never become bound: visits(pid -> 8) needs ?y bound first "
        "(in visits(?y, ?u)); reachable bindings: ?u"
    ),
    ("Q(f) :- friend(f, p)", "p"): (
        "query Q(?f) <- friend(?f, ?p) is not controlled by ?p under {person(pid -> 1); "
        "friend(pid1 -> 32); visits(pid -> 8)} (unreachable variables: ?f; uncovered "
        "atoms: friend(?f, ?p))\n"
        "variable ?f can never become bound: friend(pid1 -> 32) needs ?f bound first "
        "(in friend(?f, ?p)); reachable bindings: ?p"
    ),
}


def failure_messages():
    """``(message, walks)`` of each failing compile in FAILURES."""
    schema = DatabaseSchema.parse(SOCIAL_SCHEMA)
    access = AccessSchema.parse(schema, SOCIAL_ACCESS)
    walks = []
    walk = plans.walk
    plans.walk = lambda *args: walks.append(args) or walk(*args)
    try:
        for text, param in FAILURES:
            walks.clear()
            with pytest.raises(NotControlledError) as failure:
                compile_plan(parse_query(text, schema), access, [param])
            yield str(failure.value), len(walks)
    finally:
        plans.walk = walk


def check_failure_messages():
    messages = [message for message, _ in failure_messages()]
    assert messages == list(FAILURES.values())


def test_a_failing_compile_walks_once_and_explains_as_before():
    assert [walks for _, walks in failure_messages()] == [1, 1, 1]
    check_failure_messages()


def test_a_failing_compile_carries_its_coverage():
    schema = DatabaseSchema.parse(SOCIAL_SCHEMA)
    access = AccessSchema.parse(schema, SOCIAL_ACCESS)
    for (text, param), message in FAILURES.items():
        query = parse_query(text, schema)
        with pytest.raises(NotControlledError) as failed:
            compile_plan(query, access, [param])
        carried, walked = failed.value.coverage, coverage(query, access, [param])
        for field in ("query", "access", "parameters", "bound", "steps"):
            assert getattr(carried, field) == getattr(walked, field), field
        assert carried.adornments == walked.adornments
        assert carried.explain() == message.split("\n", 1)[1]


def test_the_checks_pass_unmutated():
    for check in CHECKS.values():
        check()


CHECKS = {
    "verdict matches plan": test_every_verdict_is_whether_the_plan_compiles,
    "parameter binds its class": check_a_parameter_binds_its_class,
    "failure messages": check_failure_messages,
}

#: name -> (module, function, the code to break, what to break it into,
#: the check that must notice)
MUTANTS = {
    "an equality no atom reads counted as uncovered": (
        controllability,
        "_coverage",
        " or rep not in read",
        "",
        "verdict matches plan",
    ),
    "parameters seeded without their equality representative": (
        plans,
        "walk",
        "rep = subst.get(v, v)",
        "rep = v",
        "parameter binds its class",
    ),
    "the failure trace built from an empty bound set": (
        plans,
        "_raise_not_controlled",
        "_coverage(query, access, params, subst, bound, steps)",
        "_coverage(query, access, params, subst, set(), steps)",
        "failure messages",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_verdict_mutants_are_killed(monkeypatch, name):
    owner, attribute, old, new, killer = MUTANTS[name]
    mutate(monkeypatch, owner, attribute, old, new, name)
    killed_by = []
    for label, check in CHECKS.items():
        try:
            check()
        except Exception:
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killer in killed_by, f"{name!r} survived {killer}: killed by {killed_by}"
