"""The static cost model, cost-based plan selection, the
incremental-maintainability diagnostics and the linter's JSON artifact.

The cost model must agree with the certifier's fanout arithmetic at
unit costs, refine (never inflate) under observed statistics, and the
engine's selection between base and view-augmented plans must be
provably safe: same answers, tuples accessed no worse, CST001 if the
selector ever keeps a costlier plan.
"""

import json

import pytest

from repro import (
    AccessSchema,
    CertificationError,
    Engine,
    IncrementalError,
    Plan,
    compile_plan,
    delta_fanout_bound,
    parse_cq,
    parse_schema,
)
from repro.analysis import (
    CostStats,
    analyze_prepared,
    certify_plan,
    certify_selection,
    check_selection,
    estimate_plan,
)
from repro.analysis.__main__ import main
from repro.analysis.cost import CostEstimate
from repro.core.executor import delta_blockers, explain_blocker

SCHEMA_TEXT = "person(pid, name, city); friend(pid1, pid2); visits(pid, url)"
ACCESS_TEXT = "person(pid -> 1); friend(pid1 -> 32); visits(pid -> 8)"
DATA = {
    "person": [(i, f"n{i}", "NYC" if i % 2 else "SF") for i in range(1, 8)],
    "friend": [(1, 2), (1, 3), (1, 4), (2, 3)],
    "visits": [(1, "a.com"), (2, "b.com")],
}
Q1 = "Q(y) :- friend(p, y), person(y, n, 'NYC')"
VIEW_DEF = "V(p, y) :- friend(p, y), person(y, n, 'NYC')"


def engine(**kwargs):
    return Engine(SCHEMA_TEXT, ACCESS_TEXT, DATA, **kwargs)


def one_plan(prepared, params=("p",)):
    plans = prepared.plan(params)
    return plans[0] if isinstance(plans, tuple) else plans


# -- the static model -----------------------------------------------------


def test_cost_estimate_matches_fanout_bound_at_unit_costs():
    schema = parse_schema(SCHEMA_TEXT)
    access = AccessSchema.parse(schema, ACCESS_TEXT)
    plan = compile_plan(parse_cq(Q1, schema=schema), access, ("p",))
    assert plan.cost_estimate == plan.fanout_bound == 64
    assert "cost estimate: 64" in plan.explain()
    # estimate_plan without stats re-derives the same number.
    estimate = estimate_plan(plan)
    assert isinstance(estimate, CostEstimate)
    assert estimate.total == plan.cost_estimate
    assert estimate.steps == plan.step_costs()
    assert not estimate.refined
    assert "64" in estimate.explain()


def test_stats_refine_but_never_inflate():
    eng = engine()
    stats = CostStats.from_database(eng.require_database())
    assert stats.relation_sizes["friend"] == 4
    # Observed max fanout of friend on pid1 is 3 (person 1 has 3 edges).
    assert stats.fanout("friend", (0,)) == 3
    plan = one_plan(eng.query(Q1))
    refined = estimate_plan(plan, stats)
    assert refined.refined
    assert refined.total < plan.cost_estimate
    # A bound tighter than the data stays at the declared bound.
    wide = CostStats(
        relation_sizes={"friend": 10**6},
        fanouts={("friend", (0,)): 10**6},
    )
    assert estimate_plan(plan, wide).total == plan.cost_estimate


def test_unsatisfiable_plan_costs_zero():
    schema = parse_schema(SCHEMA_TEXT)
    access = AccessSchema.parse(schema, ACCESS_TEXT)
    q = parse_cq("Q(y) :- friend(p, y), p = 1, p = 2", schema=schema)
    plan = compile_plan(q, access, ("p",))
    assert not plan.satisfiable
    assert plan.cost_estimate == 0.0
    assert estimate_plan(plan).total == 0.0


PINNED_ACCESS = "friend(pid1 -> 32); person(pid -> 1)"
TWO_HOPS = "Q(n) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"
MUTUAL = "Q(y) :- friend(p, y), friend(y, p), person(y, n, 'NYC')"  # a probe step
PINNED_STATS = CostStats(
    {"friend": 40, "person": 10},
    {("friend", (0,)): 3, ("friend", (1,)): 5, ("person", (0,)): 1},
)


@pytest.mark.parametrize(
    "query, given, expected",
    [
        (TWO_HOPS, {"friend": 2, "person": 3}, 1280),
        (TWO_HOPS, {"friend": 2}, 224),
        (TWO_HOPS, {"person": 3}, 1056),
        (TWO_HOPS, {"person": 0}, 0),
        (MUTUAL, {"friend": 2, "person": 3}, 164),
        (MUTUAL, {"friend": 5}, 202),
        (TWO_HOPS, PINNED_STATS, 21),
        (MUTUAL, PINNED_STATS, 9),
    ],
)
def test_the_bound_arithmetic_keeps_its_figures(query, given, expected):
    """Exact figures of the delta bound (``given`` the changed relations'
    sizes) and of the stats-refined estimate (``given`` the statistics),
    so a rewrite of the arithmetic cannot drift while the suite's ``<=``
    checks still pass."""
    schema = parse_schema(SCHEMA_TEXT)
    plan = compile_plan(
        parse_cq(query, schema=schema), AccessSchema.parse(schema, PINNED_ACCESS), ("p",)
    )
    if isinstance(given, CostStats):
        estimate = estimate_plan(plan, given)
        assert (estimate.total, estimate.refined) == (expected, True)
    else:
        assert delta_fanout_bound(plan, given) == expected


# -- cost-based selection -------------------------------------------------


def test_selection_switches_to_a_cheaper_certified_view_plan():
    """The regression the tentpole exists for: augmentation-only kept a
    costlier base plan; cost-based selection now picks the view plan --
    with bit-identical answers and tuples accessed no worse."""
    base_eng = engine()
    base_prep = base_eng.query(Q1)
    base_plan = one_plan(base_prep)
    assert base_plan.view_relations == frozenset()
    base_rows = base_prep.execute({"p": 1}).rows

    eng = engine(certify=True)  # the chosen plan still certifies
    eng.views.register("V", VIEW_DEF, "V(p -> 8)")
    prep = eng.query(Q1)
    plan = one_plan(prep)
    assert plan.view_relations == {"V"}
    assert plan.cost_estimate == 24 < base_plan.cost_estimate == 64
    result = prep.execute({"p": 1})
    assert result.rows == base_rows
    base_result = base_prep.execute({"p": 1})
    assert result.stats.tuples_accessed <= base_result.stats.tuples_accessed


def test_selection_keeps_the_base_plan_when_the_view_is_pricier():
    eng = engine()
    eng.views.register("VBIG", VIEW_DEF.replace("V(", "VBIG(", 1), "VBIG(p -> 64)")
    plan = one_plan(eng.query(Q1))
    assert plan.view_relations == frozenset()
    assert plan.cost_estimate == 64


def test_refreshed_stats_version_invalidates_plan_choices():
    eng = engine()
    eng.views.register("V", VIEW_DEF, "V(p -> 8)")
    before = one_plan(eng.query(Q1))
    stats = eng.refresh_cost_stats()
    assert eng.cost_stats is stats
    after = one_plan(eng.query(Q1))
    assert after is not before  # the cache key carries the stats version
    eng.clear_cost_stats()
    assert eng.cost_stats is None


def test_certify_selection_is_the_must_never_fire_self_check():
    eng = engine()
    plan = one_plan(eng.query(Q1))
    good = estimate_plan(plan)
    cheap = CostEstimate(plan, total=1)
    assert not certify_selection(good, [good]).by_code("CST001")
    report = certify_selection(good, [cheap])
    (d,) = report.by_code("CST001")
    assert "64" in d.message and "1" in d.message
    with pytest.raises(CertificationError, match="CST001"):
        check_selection(good, [cheap])
    assert check_selection(cheap, [good]) is cheap


def test_certifier_catches_a_forged_cost_estimate():
    schema = parse_schema(SCHEMA_TEXT)
    access = AccessSchema.parse(schema, ACCESS_TEXT)
    plan = compile_plan(parse_cq(Q1, schema=schema), access, ("p",))
    assert not {d.code for d in certify_plan(plan, access)} & {"CST002"}

    class ForgedPlan(Plan):
        @property
        def cost_estimate(self) -> float:
            return 1.0  # "cheap, trust me"

    forged = ForgedPlan(
        plan.query,
        plan.parameters,
        plan.steps,
        plan.head_terms,
        plan.satisfiable,
        plan.view_relations,
    )
    assert "CST002" in {d.code for d in certify_plan(forged, access)}


# -- the incremental-maintainability diagnostics -------------------------


EMBEDDED_ACCESS = "person(pid -> 1); friend(pid1 -> pid2, 32); visits(pid -> 8)"


def inc_counts(report):
    return len(report.by_code("INC001")), len(report.by_code("INC002"))


def test_classifier_accepts_plain_rule_plans():
    report = engine().query(Q1).diagnostics(("p",))
    assert inc_counts(report) == (0, 0)
    assert report.ok()


def test_classifier_traces_embedded_rule_blockers():
    eng = Engine(SCHEMA_TEXT, EMBEDDED_ACCESS, DATA)
    prep = eng.query(Q1)
    report = analyze_prepared(prep, ("p",), source="Q1")
    assert inc_counts(report) == (1, 0)
    (d,) = report.by_code("INC001")
    # The executor's one trace, after the query it blocks.
    plan = one_plan(prep)
    (blocker,) = delta_blockers(plan)
    assert d.message == (
        f"query {plan.query} cannot be refreshed incrementally: "
        + explain_blocker(*blocker)
    )
    assert "'friend'" in d.message
    assert "friend(pid1 -> pid2, 32)" in d.message
    assert "dedup-aware counting scheme" in d.message
    assert "(at 1:9)" in d.message  # the offending atom's source span
    assert d.span is not None and d.source == "Q1"
    # The same verdict surfaces in the prepared query's diagnostics --
    # at prepare time, not at execute_incremental time.
    assert "INC001" in {d.code for d in prep.diagnostics(("p",))}
    # And execute_incremental still raises, now with the full trace.
    with pytest.raises(IncrementalError) as exc_info:
        prep.execute_incremental({"p": 1})
    assert "dedup-aware counting scheme" in str(exc_info.value)
    assert "'friend'" in str(exc_info.value)


def test_partially_blocked_union_reports_inc002():
    eng = Engine(SCHEMA_TEXT, EMBEDDED_ACCESS, DATA)
    union = "Q(y) :- friend(p, y) ; Q(y) :- person(p, y, c)"
    report = eng.query(union).diagnostics(("p",))
    assert inc_counts(report) == (1, 1)
    (blocker,) = report.by_code("INC001")
    (d,) = report.by_code("INC002")
    assert "1 of 2 union disjuncts" in d.message
    assert "(on friend)" in d.message
    assert d.span == blocker.span  # anchored at the first blocker


def test_fully_blocked_union_reports_no_inc002():
    # Every disjunct fetches through the embedded friend rule: one INC001
    # each, and no disjunct is held hostage by another.
    eng = Engine(SCHEMA_TEXT, EMBEDDED_ACCESS, DATA)
    union = "Q(y) :- friend(p, y) ; Q(y) :- friend(p, y), person(y, n, 'NYC')"
    report = eng.query(union).diagnostics(("p",))
    assert inc_counts(report) == (1 + 1, 0)
    spans = [(d.span.line, d.span.column) for d in report.by_code("INC001")]
    assert spans == [(1, 9), (1, 32)]


# -- the CI artifact ------------------------------------------------------


def test_cli_workload_json_is_the_four_workload_hints(capsys):
    # The JSON report CI uploads: Q4 and Q5, which only the views
    # control, are the only findings -- a QRY007 trace and an ACC005
    # missing rule each under the base access rules.
    assert main(["--workload", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "advice" not in payload
    codes = sorted(d["code"] for d in payload["diagnostics"])
    assert codes == ["ACC005", "ACC005", "QRY007", "QRY007"]
    assert {d["severity"] for d in payload["diagnostics"]} == {"hint"}


# -- the workload invariant stays put -------------------------------------


def test_workload_selection_never_regresses_the_known_hints():
    """Q1-Q3 keep their base plans (the views are pricier), so the gate's
    4-hint invariant is untouched by cost-based selection."""
    from repro.analysis import workload_report

    report = workload_report()
    assert {d.code for d in report} == {"QRY007", "ACC005"}
    assert len(report.hints) == 4
    assert not report.by_code("CST003")
