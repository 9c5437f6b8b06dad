"""The static cost model, cost-based plan selection, the
incremental-maintainability classifier and the multi-atom view advisor.

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
    parse_cq,
    parse_schema,
)
from repro.analysis import (
    CostStats,
    advise_views,
    advice_report,
    certify_plan,
    certify_selection,
    check_selection,
    classify_incremental,
    estimate_plan,
    workload_advice,
)
from repro.analysis.__main__ import main
from repro.analysis.cost import CostEstimate

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
    assert estimate.accesses == plan.fanout_bound
    assert not estimate.refined
    assert "64" in estimate.explain()


def test_stats_refine_but_never_inflate():
    eng = engine()
    stats = CostStats.from_database(eng.require_database())
    assert stats.size("friend") == 4
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
    cheap = CostEstimate(plan, total=1.0, accesses=1)
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


# -- the incremental-maintainability classifier ---------------------------


EMBEDDED_ACCESS = "person(pid -> 1); friend(pid1 -> pid2, 32); visits(pid -> 8)"


def test_classifier_accepts_plain_rule_plans():
    eng = engine()
    support = classify_incremental(one_plan(eng.query(Q1)))
    assert support.supported
    assert support.report().ok()
    assert support.explain() == ""


def test_classifier_traces_embedded_rule_blockers():
    eng = Engine(SCHEMA_TEXT, EMBEDDED_ACCESS, DATA)
    prep = eng.query(Q1)
    support = classify_incremental(one_plan(prep))
    assert not support.supported
    (blocker,) = support.blockers
    assert blocker.relation == "friend"
    trace = blocker.explain()
    assert "friend(pid1 -> pid2, 32)" in trace
    assert "dedup-aware counting scheme" in trace
    assert "(at 1:9)" in trace  # the offending atom's source span
    report = support.report(source="Q1")
    (d,) = report.by_code("INC001")
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
    plans = eng.query(union).plan(("p",))
    support = classify_incremental(plans)
    assert len(support.plans) == 2
    assert len(support.blocked_plans) == 1
    report = support.report()
    assert report.by_code("INC001")
    (d,) = report.by_code("INC002")
    assert "1 of 2 union disjuncts" in d.message


# -- the multi-atom view advisor ------------------------------------------


def test_advisor_proposes_a_multi_atom_view_for_an_uncontrolled_query():
    eng = engine()
    eng.refresh_cost_stats()
    # Q4's shape: keyed on ?p through friend's *second* position, which
    # no access rule reaches -- uncontrolled until a view inverts it.
    q4 = "Q(f) :- friend(f, p), person(f, n, 'NYC')"
    advices = eng.views.advise([(q4, ("p",))])
    assert advices, "the advisor found nothing for an uncontrolled query"
    assert all(a.controlled_after for a in advices)
    multi = [a for a in advices if a.atoms >= 2]
    assert multi, "no multi-atom proposal"
    advice = multi[0]
    assert advice.stats_derived  # bound sized from the observed data
    assert advice.key == ("p",)
    assert advice.projected_cost > 0
    # Adoption makes the query controlled, answers included.
    view = eng.views.adopt(advice)
    assert view.name == advice.name
    rows = eng.execute(q4, {"p": 3}).rows
    assert rows == ((1,),)  # friends of 3 living in NYC: person 1
    report = advice_report(advices, source="Q4")
    assert report.by_code("VIW004")
    assert report.ok()  # hints, not warnings


def test_advisor_prices_cost_cuts_for_expensive_controlled_queries():
    eng = engine()
    eng.refresh_cost_stats()
    q = "Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"
    # Base cost 32 + 1024 + 1024 = 2080 at declared bounds: expensive.
    # The observed friend fanout is 3, so a chain view keyed on ?p gets
    # a stats-derived bound of 9 and cuts the certifiable cost.
    advices = advise_views(eng, [(q, ("p",))])
    assert advices
    advice = advices[0]
    assert not advice.controlled_after
    assert advice.base_cost == 2080
    assert advice.stats_derived
    assert advice.projected_cost < advice.base_cost
    assert advice.cost_delta > 0
    (d,) = advice_report([advice]).by_code("VIW005")
    assert "2080" in d.message


def test_advisor_skips_cheap_controlled_queries_and_registered_views():
    eng = engine()
    eng.refresh_cost_stats()
    assert advise_views(eng, [(Q1, ("p",))]) == ()  # cost 64 < 256
    q = "Q(z) :- friend(p, y), friend(y, z), person(z, n, 'NYC')"
    advices = advise_views(eng, [(q, ("p",))])
    assert advices
    eng.views.adopt(advices[0])
    # Re-advising proposes nothing equivalent to what is now registered.
    adopted_body = advices[0].definition.split(" :- ", 1)[1]
    second = advise_views(eng, [(q, ("p",))])
    assert all(
        a.definition.split(" :- ", 1)[1] != adopted_body for a in second
    )


def test_advisor_skips_a_candidate_equivalent_to_a_registered_view():
    # A renamed copy of the candidate's body, keyed where nothing binds:
    # the query stays uncontrolled, and the two-way body homomorphism
    # keeps the advisor from proposing the same view again.
    eng = engine()
    q = "Q(f) :- friend(f, p)"
    (advice,) = advise_views(eng, [(q, ("p",))])
    assert advice.definition == "V_friend(?p, ?f) :- friend(?f, ?p)"
    eng.views.register("V", "V(a, b) :- friend(b, a)", "V(b -> 8)")
    assert advise_views(eng, [(q, ("p",))]) == ()


def test_workload_advice_meets_the_acceptance_bar():
    advices, report = workload_advice(persons=120)
    q4_multi = [
        a
        for a in advices
        if a.source == "Q4" and a.atoms >= 2 and a.controlled_after
    ]
    assert q4_multi, "no multi-atom proposal for the uncontrolled Q4"
    assert q4_multi[0].stats_derived
    assert report.by_code("VIW004")
    assert report.ok()


def test_cli_advise_emits_the_json_advice_artifact(capsys):
    assert main(["--workload", "--advise", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["advice"], "no advice in the JSON artifact"
    entry = payload["advice"][0]
    assert {"definition", "rule", "bound", "projected_cost"} <= set(entry)
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "VIW004" in codes


def test_cli_advise_on_files_needs_access(tmp_path, capsys):
    queries = tmp_path / "q.dl"
    queries.write_text("Q(y) :- friend(p, y)\n")
    with pytest.raises(SystemExit):
        main([str(queries), "--advise", "--schema", SCHEMA_TEXT])
    capsys.readouterr()
    assert (
        main(
            [
                str(queries),
                "--advise",
                "--schema",
                SCHEMA_TEXT,
                "--access",
                ACCESS_TEXT,
                "--params",
                "p",
                "--format",
                "json",
            ]
        )
        == 0
    )
    json.loads(capsys.readouterr().out)


# -- the workload invariant stays put -------------------------------------


def test_workload_selection_never_regresses_the_known_hints():
    """Q1-Q3 keep their base plans (the views are pricier), so the gate's
    4-hint invariant is untouched by cost-based selection."""
    from repro.analysis import workload_report

    report = workload_report()
    assert {d.code for d in report} == {"QRY007", "ACC005"}
    assert len(report.hints) == 4
    assert not report.by_code("CST003")
