"""Plan certification (translation validation), binding-pattern
adornments and traces, and the report surface.

The certifier removes the planner from the trusted base: every plan the
workload engines compile -- base, view-augmented and post-churn rebased
-- must certify clean, and every hand-mutated plan must fail with the
specific CRT code its corruption deserves.
"""

import dataclasses
import json

import pytest

from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    CertificationError,
    ConjunctiveQuery,
    Engine,
    FetchStep,
    Plan,
    ProbeStep,
    Severity,
    Variable,
    compile_plan,
    parse_cq,
)
from repro.analysis import (
    ADVISED_RULE_BOUND,
    Report,
    advise_missing_rule,
    analyze_query,
    certify_plan,
    check_plan,
    diagnostic,
    workload_report,
)
from repro.analysis.__main__ import main
from repro.core import plans
from repro.core.controllability import coverage
from repro.errors import NotControlledError
from repro.logic.ast import Span
from repro.views import ViewDef, compile_with_views
from repro.workloads import (
    RUNNING_QUERIES,
    VIEW_QUERIES,
    generate_churn,
    generate_social_network,
    register_workload_views,
    social_engine,
)


def codes(report: Report) -> set[str]:
    return {d.code for d in report}


@pytest.fixture
def q1_plan(social_schema, social_access):
    query = parse_cq(
        "Q(y) :- friend(p, y), person(y, n, 'NYC')", schema=social_schema
    )
    return compile_plan(query, social_access, ("p",)), social_access


def clone(plan: Plan, **overrides) -> Plan:
    """A structural copy of ``plan`` with some fields forged."""
    fields = {
        "query": plan.query,
        "parameters": plan.parameters,
        "steps": plan.steps,
        "head_terms": plan.head_terms,
        "satisfiable": plan.satisfiable,
        "view_relations": plan.view_relations,
    }
    fields.update(overrides)
    return Plan(**fields)


# --------------------------------------------------------------------------
# The positive direction: everything the engine compiles certifies clean.


def test_running_query_plans_certify_clean():
    data = generate_social_network(40, seed=3)
    for bundle in RUNNING_QUERIES:
        engine = bundle.engine(data)
        plan = bundle.prepare(engine).plan(bundle.parameters)
        report = certify_plan(plan, engine.access, engine.views.definitions())
        assert report.ok(), f"{bundle.name}: {report.render()}"
        assert not list(report)


def test_view_augmented_plans_certify_clean():
    data = generate_social_network(40, seed=3)
    for bundle in VIEW_QUERIES:
        engine = bundle.engine(data)
        register_workload_views(engine)
        plan = bundle.prepare(engine).plan(bundle.parameters)
        assert plan.view_relations  # the rewrite actually used a view
        report = certify_plan(plan, engine.access, engine.views.definitions())
        assert report.ok(), f"{bundle.name}: {report.render()}"


def test_view_plan_fails_without_its_view_registered():
    """The same plan, certified against an empty view catalog, is caught:
    CRT005 is precisely the check that a view plan cannot outlive its
    view."""
    data = generate_social_network(40, seed=3)
    bundle = VIEW_QUERIES[0]
    engine = bundle.engine(data)
    register_workload_views(engine)
    plan = bundle.prepare(engine).plan(bundle.parameters)
    report = certify_plan(plan, engine.access, views=())
    assert "CRT005" in codes(report)


def test_rebased_plans_after_churn_certify(monkeypatch):
    """Incremental refresh after churn plus an access-schema bump forces
    a rebase through ``_plans_for``; with certification on (the conftest
    fixture), every rebased plan passes through ``check_plan``."""
    import repro.analysis.certify as certify_mod

    calls = []
    real = certify_mod.check_plan
    monkeypatch.setattr(
        certify_mod, "check_plan", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    engine = social_engine(50, seed=5)
    assert engine.certify  # REPRO_CERTIFY=1 via conftest
    result = engine.query("Q(u) :- friend(p, y), visits(y, u)").execute_incremental({"p": 3})
    data = generate_social_network(50, seed=5)
    for batch in generate_churn(data, batches=3, batch_size=8, seed=7):
        batch.apply(engine.require_database())
    compiled_before = len(calls)
    assert compiled_before > 0
    engine.access = engine.access  # version bump strands the cached plans
    refreshed = result.refresh()
    assert len(calls) > compiled_before  # the rebase was certified too
    fresh = engine.execute("Q(u) :- friend(p, y), visits(y, u)", {"p": 3})
    assert set(refreshed.rows) == set(fresh)


def test_workload_report_with_certification_stays_hint_only():
    report = workload_report(certify=True)
    assert report.hints == report.diagnostics
    assert not any(d.code.startswith("CRT") for d in report)


# --------------------------------------------------------------------------
# The negative direction: hand-mutated plans fail with the right code.


def test_swapped_steps_fail_crt001(q1_plan):
    plan, access = q1_plan
    mutated = clone(plan, steps=tuple(reversed(plan.steps)))
    report = certify_plan(mutated, access)
    assert "CRT001" in codes(report)
    assert not report.ok()


def test_forged_rule_bound_fails_crt003(q1_plan):
    plan, access = q1_plan
    step = plan.steps[0]
    assert isinstance(step, FetchStep)
    forged = dataclasses.replace(
        step, rule=AccessRule("friend", ["pid1"], bound=999)
    )
    mutated = clone(plan, steps=(forged,) + plan.steps[1:])
    assert "CRT003" in codes(certify_plan(mutated, access))


def test_unregistered_view_relation_fails_crt005(q1_plan):
    plan, access = q1_plan
    mutated = clone(plan, view_relations=frozenset({"V9"}))
    assert "CRT005" in codes(certify_plan(mutated, access))


def test_premature_probe_fails_crt002(social_schema, social_access):
    query = parse_cq("Q(y) :- friend(p, y)", schema=social_schema)
    plan = compile_plan(query, social_access, ("p",))
    mutated = clone(plan, steps=(ProbeStep(plan.steps[0].atom),))
    report = certify_plan(mutated, social_access)
    assert "CRT002" in codes(report)


def test_forged_head_terms_fail_crt004(q1_plan):
    plan, access = q1_plan
    mutated = clone(plan, head_terms=plan.head_terms + plan.head_terms)
    assert "CRT004" in codes(certify_plan(mutated, access))


def test_dropped_step_fails_crt007(q1_plan):
    plan, access = q1_plan
    mutated = clone(plan, steps=plan.steps[:1])
    assert "CRT007" in codes(certify_plan(mutated, access))


def test_forged_satisfiability_fails_crt007(q1_plan):
    plan, access = q1_plan
    mutated = clone(plan, satisfiable=False)
    assert "CRT007" in codes(certify_plan(mutated, access))


@pytest.fixture
def followers():
    """Q4's shape through an inverted edge index: the plan reads the view
    and not the friend atom the view stands for."""
    engine = Engine(
        "person(pid, name, city); friend(pid1, pid2)",
        "friend(pid1 -> 32); person(pid -> 1)",
        {"person": [(2, "bob", "NYC"), (3, "cat", "SF")], "friend": [(2, 1), (3, 1)]},
    )
    engine.views.register("V1", "V1(pid, follower) :- friend(follower, pid)", "V1(pid -> 64)")
    plan = engine.query("Q(f) :- friend(f, p), person(f, n, 'NYC')").plan(["p"])
    assert [str(s.atom) for s in plan.steps] == ["V1(?p, ?f)", "person(?f, ?n, 'NYC')"]
    return engine, plan


def test_an_unread_atom_passes_only_where_a_view_proves_it(followers, monkeypatch):
    engine, plan = followers
    definitions = engine.views.definitions()

    def planner_helper(self, atom):
        raise AssertionError("the certifier must derive 'stands for' by itself")

    monkeypatch.setattr(ViewDef, "stands_for", planner_helper)
    assert check_plan(plan, engine.access, definitions) is plan
    # An atom nothing entails still fails: no view stands for person(...).
    dropped = clone(plan, steps=plan.steps[:1])
    assert codes(certify_plan(dropped, engine.access, definitions)) == {"CRT007"}
    # V1(?p, ?f) stands for friend(?f, ?p) -- head onto terms, column by
    # column -- and says nothing about friend(?p, ?f).
    p, f = Variable("p"), Variable("f")
    body = (Atom("friend", (p, f)),) + plan.query.body[1:]
    turned = clone(plan, query=ConjunctiveQuery(plan.query.head, body))
    report = certify_plan(turned, engine.access, definitions)
    assert codes(report) == {"CRT007"} and "friend(?p, ?f)" in report.render()
    # ... and the view atom itself, unread, needs what it stands for read.
    unread = clone(plan, steps=plan.steps[1:])
    assert "CRT007" in codes(certify_plan(unread, engine.access, definitions))


def test_a_projecting_view_witnesses_only_itself():
    engine = Engine(
        "person(pid, name, city); friend(pid1, pid2)",
        "friend(pid1 -> 32); person(pid -> 1)",
        {"person": [(2, "bob", "NYC")], "friend": [(1, 2)]},
    )
    engine.views.register("V", "V(pid) :- friend(pid, y)", "V(pid -> 1)")
    query = engine.query("Q(n) :- friend(p, y), person(p, n, c)").query
    plan = compile_with_views(query, engine.access, engine.views, ["p"])
    kinds = [s.atom.relation for s in plan.steps]
    assert sorted(kinds) == ["V", "friend", "person"]
    definitions = engine.views.definitions()
    assert check_plan(plan, engine.access, definitions) is plan
    forged = clone(plan, steps=tuple(s for s in plan.steps if s.atom.relation != "friend"))
    report = certify_plan(forged, engine.access, definitions)
    assert codes(report) == {"CRT007"} and "friend(?p, ?y)" in report.render()


def test_forged_fanout_bound_fails_crt006(q1_plan):
    plan, access = q1_plan

    class ForgedPlan(Plan):
        @property
        def fanout_bound(self) -> int:
            return 1  # "scale independent, trust me"

    mutated = ForgedPlan(
        plan.query,
        plan.parameters,
        plan.steps,
        plan.head_terms,
        plan.satisfiable,
        plan.view_relations,
    )
    assert "CRT006" in codes(certify_plan(mutated, access))


def test_check_plan_gates_and_passes_through(q1_plan):
    plan, access = q1_plan
    assert check_plan(plan, access) is plan
    mutated = clone(plan, steps=tuple(reversed(plan.steps)))
    with pytest.raises(CertificationError) as exc_info:
        check_plan(mutated, access)
    assert "failed certification" in str(exc_info.value)
    assert exc_info.value.report is not None
    assert not exc_info.value.report.ok()


def test_engine_gates_compilation_on_certification(monkeypatch, social_db):
    """A planner that emits an unsound plan cannot get it past a
    certifying engine -- and the bad plan never lands in the cache."""
    import repro.api.engine as engine_mod

    real = engine_mod.compile_plan

    def corrupt(query, access, params):
        plan = real(query, access, params)
        return clone(plan, head_terms=plan.head_terms + plan.head_terms)

    monkeypatch.setattr(engine_mod, "compile_plan", corrupt)
    engine = Engine(social_db.schema, "friend(pid1 -> 5)", certify=True)
    engine.database = social_db
    with pytest.raises(CertificationError):
        engine.execute("Q(y) :- friend(p, y)", {"p": 1})
    assert engine.cache_stats().size == 0
    monkeypatch.setattr(engine_mod, "compile_plan", real)
    assert set(engine.execute("Q(y) :- friend(p, y)", {"p": 1})) == {(2,), (3,)}


def test_engine_certify_flag_follows_env(monkeypatch):
    monkeypatch.setenv("REPRO_CERTIFY", "0")
    assert not Engine("person(pid)", "person(pid -> 1)").certify
    monkeypatch.setenv("REPRO_CERTIFY", "1")
    assert Engine("person(pid)", "person(pid -> 1)").certify
    # An explicit argument beats the environment in both directions.
    assert not Engine("person(pid)", "person(pid -> 1)", certify=False).certify
    monkeypatch.setenv("REPRO_CERTIFY", "0")
    assert Engine("person(pid)", "person(pid -> 1)", certify=True).certify


# --------------------------------------------------------------------------
# Binding-pattern adornments, traces and advised rules.


def test_binding_flow_controlled_query(social_schema, social_access):
    query = parse_cq(
        "Q(y) :- friend(p, y), person(y, n, 'NYC')", schema=social_schema
    )
    cover = coverage(query, social_access, ("p",))
    assert cover.controlled
    assert not cover.uncovered
    patterns = {a.atom.relation: a.pattern for a in cover.adornments}
    assert patterns == {"friend": "bb", "person": "bbb"}
    assert cover.explain() == ""


def test_binding_flow_uncontrolled_inverted_lookup(social_schema, social_access):
    # Q4's shape: keyed on the *second* friend position, which no base
    # rule accepts as input.
    query = parse_cq(
        "Q(f) :- friend(f, p), person(f, n, 'NYC')", schema=social_schema
    )
    cover = coverage(query, social_access, ("p",))
    assert not cover.controlled
    uncovered = {v.name for v in cover.uncovered}
    assert "f" in uncovered
    trace = cover.explain()
    assert "?f" in trace and "can never become bound" in trace
    with pytest.raises(NotControlledError) as exc_info:
        compile_plan(query, social_access, ("p",))
    assert str(exc_info.value).endswith("\n" + trace)


def test_advise_missing_rule_proposes_minimal_key(social_schema, social_access):
    query = parse_cq("Q(f) :- friend(f, p)", schema=social_schema)
    rule = advise_missing_rule(coverage(query, social_access, ("p",)))
    assert rule is not None
    assert rule.relation == "friend"
    assert tuple(rule.inputs) == ("pid2",)
    assert rule.bound == ADVISED_RULE_BOUND
    # The advice is verified: the extended schema really controls it.
    extended = AccessSchema(
        social_access.schema, tuple(social_access) + (rule,)
    )
    compile_plan(query, extended, ("p",))  # does not raise


def test_advise_missing_rule_none_when_controlled(social_schema, social_access):
    query = parse_cq("Q(y) :- friend(p, y)", schema=social_schema)
    assert advise_missing_rule(coverage(query, social_access, ("p",))) is None


def test_analyze_query_emits_qry007_and_acc005(social_schema, social_access):
    query = parse_cq("Q(f) :- friend(f, p)", schema=social_schema)
    report = Report(analyze_query(query, social_access, ("p",)))
    assert {"QRY007", "ACC005"} <= codes(report)
    assert all(
        d.severity is Severity.HINT
        for d in report
        if d.code in ("QRY007", "ACC005")
    )
    assert any("friend(pid2 -> 64)" in d.message for d in report)


def test_qry007_and_acc005_walk_the_real_schema_once(
    monkeypatch, social_schema, social_access
):
    # Both read one Coverage; only ACC005's candidate rules walk again,
    # each under its own extended schema.
    walked = []
    walk = plans.walk
    monkeypatch.setattr(plans, "walk", lambda *args: walked.append(args[1]) or walk(*args))
    query = parse_cq("Q(f) :- friend(f, p)", schema=social_schema)
    report = Report(analyze_query(query, social_access, ("p",)))
    assert {"QRY007", "ACC005"} <= codes(report)
    assert sum(access == social_access for access in walked) == 1
    assert len(walked) > 1


def test_not_controlled_error_carries_dataflow_trace(social_schema, social_access):
    query = parse_cq("Q(f) :- friend(f, p)", schema=social_schema)
    with pytest.raises(NotControlledError) as exc_info:
        compile_plan(query, social_access, ("p",))
    assert "can never become bound" in str(exc_info.value)


# --------------------------------------------------------------------------
# Report ordering and the JSON surface.


def test_report_renders_in_deterministic_source_order():
    report = Report()
    report.add(diagnostic("CST003", "late", span=Span(9, 1, 9, 2), source="b.dl"))
    report.add(diagnostic("QRY007", "tie-break by code", span=Span(2, 5, 2, 6), source="a.dl"))
    report.add(diagnostic("ACC005", "first", span=Span(2, 5, 2, 6), source="a.dl"))
    report.add(diagnostic("SYN001", "no span sorts first", source="a.dl"))
    rendered = report.render().splitlines()
    assert [line.split()[1] for line in rendered] == [
        "SYN001",  # a.dl, no span, sorts before spanned lines
        "ACC005",  # a.dl:2:5 -- span tie broken by code
        "QRY007",  # a.dl:2:5
        "CST003",  # b.dl:9:1 -- source is the major key
    ]
    # Insertion order is irrelevant: the same diagnostics added in any
    # order render identically.
    shuffled = Report()
    for diag in reversed(list(report)):
        shuffled.add(diag)
    assert shuffled.render() == report.render()


def test_report_to_json_round_trips():
    report = Report()
    report.add(
        diagnostic("QRY007", "?x unbound", span=Span(3, 7, 3, 9), source="q.dl")
    )
    payload = json.loads(report.to_json())
    assert payload["summary"] == {
        "errors": 0,
        "hints": 1,
        "total": 1,
    }
    (entry,) = payload["diagnostics"]
    assert entry["code"] == "QRY007"
    assert entry["severity"] == "hint"
    assert entry["source"] == "q.dl"
    assert entry["span"] == {
        "line": 3,
        "column": 7,
        "end_line": 3,
        "end_column": 9,
    }


def test_cli_json_format(capsys):
    code = main(["--workload", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 0
    assert {d["code"] for d in payload["diagnostics"]} == {"QRY007", "ACC005"}
    assert payload["summary"]["hints"] == payload["summary"]["total"] == 4


def test_cli_certify_flag_on_files(tmp_path, capsys):
    target = tmp_path / "queries.dl"
    target.write_text("Q(y) :- friend(p, y)\n")
    schema = "person(pid, name, city); friend(pid1, pid2)"
    code = main(
        [
            str(target),
            "--schema",
            schema,
            "--access",
            "friend(pid1 -> 8)",
            "--params",
            "p",
            "--certify",
        ]
    )
    assert code == 0  # certification found nothing
    assert "CRT" not in capsys.readouterr().out
