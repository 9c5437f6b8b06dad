"""Static analysis and diagnostics for the scale-independence pipeline.

The paper's premise (Sections 3-4, 6) is that query cost and
controllability are *statically* decidable from the query, the access
rules and the view definitions.  This package turns that theory into
compiler-style tooling: a diagnostic framework
(:mod:`repro.analysis.diagnostics` -- stable codes, severities, 1-based
source spans threaded from the tokenizer through the AST) plus one pass
family per analyzable object:

* :func:`analyze_query` (QRY001-QRY007) -- single-use variables,
  cartesian products, parameters equated away, duplicate atoms,
  mismatched union selectivity, unsatisfiability, and the
  binding-pattern uncontrollability trace;
* :func:`analyze_access` (ACC001-ACC005) -- ruleless relations,
  shadowed rules, absurd bounds, duplicates, plus the ACC005
  missing-rule proposal riding along with QRY007;
* :func:`analyze_plan` (PLN001-PLN003) -- fanout-bound blowups with the
  multiplicative per-level breakdown, probe-after-embedded-fetch fusion
  opportunities, dominant steps;
* :func:`analyze_views` / :func:`advise_covering_view`
  (VIW001-VIW003) -- unmatched and overlapping views, and concrete
  covering-view proposals for uncontrolled queries;
* :func:`advise_views` / ``engine.views.advise(queries)``
  (VIW004-VIW005, :mod:`repro.analysis.advisor`) -- the multi-atom view
  advisor: MiniCon-style bucket search over connected body subsets,
  stats-derived bounds, and adopted-vs-base pricing through the cost
  model;
* :func:`estimate_plan` / :func:`certify_selection` (CST001-CST003,
  :mod:`repro.analysis.cost`) -- the static cost model behind the
  engine's cost-based plan selection, optionally refined by observed
  ``CostStats``, with a must-never-fire self-check that the chosen plan
  is no costlier than any rejected candidate (CST002, in the certifier,
  catches plans whose ``cost_estimate`` annotation disagrees with an
  independent re-derivation);
* :func:`classify_incremental` (INC001-INC002,
  :mod:`repro.analysis.maintain`) -- static
  incremental-maintainability classification: which plans the Section 5
  delta pipeline can refresh, with causal traces for embedded-rule
  fetches, decided at prepare/register time instead of failing at
  ``execute_incremental`` time;
* :func:`certify_plan` / :func:`check_plan` (CRT001-CRT007,
  :mod:`repro.analysis.certify`) -- translation validation: re-derive a
  compiled plan's binding coverage, rule membership, head projection and
  fanout arithmetic independently of the planner (``Engine(certify=True)``
  / ``REPRO_CERTIFY=1`` gates every compilation on it);
* :mod:`repro.analysis.dataflow` -- the Datalog-adornment pass behind
  QRY007/ACC005 and the trace ``NotControlledError`` carries;
* :mod:`repro.analysis.fixes` -- certified ``--fix`` rewrites for
  QRY003/QRY004, each verified by homomorphic equivalence before
  anything is written.

Three surfaces:

* the API -- ``engine.analyze(queries)`` /
  ``prepared.diagnostics(parameters)`` (thin wrappers over
  :func:`analyze_engine` / :func:`analyze_prepared`);
* the CLI -- ``python -m repro.analysis`` lints query files against an
  optional schema/access pair and exits nonzero at the chosen severity
  floor (``--strict`` fails on warnings);
* CI -- the workflow runs ``python -m repro.analysis --workload
  --strict`` so the Q1-Q5 bundles (:func:`workload_report`) stay
  diagnostic-clean at warning level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.access import ABSURD_BOUND, analyze_access
from repro.analysis.advisor import (
    EXPENSIVE_COST,
    MAX_VIEW_ATOMS,
    ViewAdvice,
    advice_report,
    advise_views,
)
from repro.analysis.certify import certify_plan, check_plan
from repro.analysis.cost import (
    CostEstimate,
    CostStats,
    certify_selection,
    check_selection,
    estimate_plan,
)
from repro.analysis.dataflow import (
    ADVISED_RULE_BOUND,
    AtomAdornment,
    BindingFlow,
    advise_missing_rule,
    binding_flow,
    explain_uncontrolled,
)
from repro.analysis.diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    Report,
    Severity,
    diagnostic,
    register_code,
)
from repro.analysis.maintain import (
    IncrementalSupport,
    MaintainBlocker,
    check_maintainable,
    classify_incremental,
)
from repro.analysis.plans import (
    BLOWUP_THRESHOLD,
    DOMINANCE_RATIO,
    analyze_plan,
)
from repro.analysis.fixes import FixResult, fix_query
from repro.analysis.queries import SELECTIVITY_RATIO, analyze_query
from repro.analysis.views import (
    DEFAULT_ADVISED_BOUND,
    advise_covering_view,
    analyze_views,
)
from repro.errors import NotControlledError
from repro.logic.ucq import disjuncts_of

if TYPE_CHECKING:
    from repro.api.engine import Engine, PreparedQuery

__all__ = [
    "Severity",
    "Diagnostic",
    "Report",
    "CodeInfo",
    "CODES",
    "register_code",
    "diagnostic",
    "analyze_query",
    "analyze_access",
    "analyze_plan",
    "analyze_views",
    "advise_covering_view",
    "advise_views",
    "advice_report",
    "ViewAdvice",
    "analyze_prepared",
    "analyze_engine",
    "workload_report",
    "workload_advice",
    "certify_plan",
    "check_plan",
    "estimate_plan",
    "certify_selection",
    "check_selection",
    "CostEstimate",
    "CostStats",
    "classify_incremental",
    "check_maintainable",
    "IncrementalSupport",
    "MaintainBlocker",
    "binding_flow",
    "explain_uncontrolled",
    "advise_missing_rule",
    "BindingFlow",
    "AtomAdornment",
    "fix_query",
    "FixResult",
    "ABSURD_BOUND",
    "BLOWUP_THRESHOLD",
    "DOMINANCE_RATIO",
    "SELECTIVITY_RATIO",
    "DEFAULT_ADVISED_BOUND",
    "ADVISED_RULE_BOUND",
    "EXPENSIVE_COST",
    "MAX_VIEW_ATOMS",
]


def analyze_prepared(
    prepared: "PreparedQuery",
    parameters: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """Every applicable pass for one prepared query: the QRY passes, then
    -- when the query compiles under the engine's access schema (views
    included) -- the PLN passes on each plan, the INC
    incremental-maintainability classification, and a CST003 note for
    each plan the cost-based selector steered onto a view; when the
    query does not compile, the VIW003 covering-view advisor instead."""
    engine = prepared._engine
    parameters = tuple(parameters)
    report = analyze_query(
        prepared.query, engine.access, parameters, source=source
    )
    disjuncts = disjuncts_of(prepared.query)
    try:
        plans = prepared.plan(parameters)
    except NotControlledError:
        for disjunct in disjuncts:
            report.extend(
                advise_covering_view(
                    disjunct, engine.access, parameters, source=source
                )
            )
        return report
    if not isinstance(plans, tuple):
        plans = (plans,)
    for plan in plans:
        report.extend(analyze_plan(plan, source=source))
    report.extend(classify_incremental(plans).report(source=source))
    # CST003: the selector picked a view-augmented plan although a base
    # plan exists -- worth a note (with the price comparison) because the
    # answers now depend on view freshness.
    from repro.core.plans import compile_plan

    for disjunct, plan in zip(disjuncts, plans):
        if not plan.view_relations:
            continue
        try:
            base = compile_plan(disjunct, engine.access, parameters)
        except NotControlledError:
            continue  # view-only: augmentation is the only plan
        stats = engine.cost_stats
        chosen = estimate_plan(plan, stats)
        rejected = estimate_plan(base, stats)
        views = ", ".join(sorted(plan.view_relations))
        report.add(
            diagnostic(
                "CST003",
                f"cost-based selection reads view(s) {views}: estimated "
                f"cost {chosen.total:g} beats the base plan's "
                f"{rejected.total:g}; answers now track view freshness",
                source=source,
            )
        )
    return report


def analyze_engine(
    engine: "Engine",
    queries: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """The whole-engine report: the ACC passes over the access schema,
    the VIW passes over the registered views (VIW001 only when
    ``queries`` describe the workload), and :func:`analyze_prepared` per
    query.

    Each element of ``queries`` is query text, a query object, a
    ``PreparedQuery``, or a ``(query, parameters)`` pair.
    """
    report = analyze_access(engine.access, source=source)
    prepared_queries: list[tuple["PreparedQuery", tuple]] = []
    for entry in queries:
        params: tuple = ()
        if isinstance(entry, tuple):
            entry, params = entry
            params = tuple(params)
        prepared = entry if hasattr(entry, "diagnostics") else engine.query(entry)
        prepared_queries.append((prepared, params))
    report.extend(
        analyze_views(
            engine.views.definitions(),
            tuple(p.query for p, _ in prepared_queries),
            source=source,
        )
    )
    for prepared, params in prepared_queries:
        report.extend(analyze_prepared(prepared, params, source=source))
    return report


def workload_report(*, certify: bool | None = None) -> Report:
    """The repo's own gate: analyze the Q1-Q5 workload bundles (views
    V1/V2 registered, so Q4/Q5 compile) plus the social access schema
    and the view registry.  CI runs this via ``python -m repro.analysis
    --workload --strict --certify`` and fails on any warning; with
    ``certify`` the engine additionally gates every compiled plan (base
    and view-augmented) on the :mod:`repro.analysis.certify` certifier."""
    from repro.workloads import (
        RUNNING_QUERIES,
        VIEW_QUERIES,
        register_workload_views,
    )

    report = Report()
    bundles = RUNNING_QUERIES + VIEW_QUERIES
    engine = bundles[0].engine(certify=certify)
    register_workload_views(engine)
    report.extend(analyze_access(engine.access, source="social"))
    prepared = {b.name: b.prepare(engine) for b in bundles}
    report.extend(
        analyze_views(
            engine.views.definitions(),
            tuple(p.query for p in prepared.values()),
            source="views",
        )
    )
    for bundle in bundles:
        report.extend(
            analyze_prepared(
                prepared[bundle.name], bundle.parameters, source=bundle.name
            )
        )
    return report


def workload_advice(
    *, persons: int = 400, seed: int = 0
) -> tuple[tuple[ViewAdvice, ...], Report]:
    """The advisor's run over the Q1-Q5 bundles: seed a social instance,
    refresh cost statistics from it, and advise with *no* workload views
    registered -- so Q4/Q5 are uncontrolled and yield multi-atom
    proposals, and any expensive controlled bundle yields cost cuts.
    Returns the ranked advice plus its VIW004/VIW005 report (the
    ``python -m repro.analysis --workload --advise`` payload)."""
    from repro.workloads import (
        RUNNING_QUERIES,
        VIEW_QUERIES,
        generate_social_network,
    )

    bundles = RUNNING_QUERIES + VIEW_QUERIES
    engine = bundles[0].engine(generate_social_network(persons, seed=seed))
    engine.refresh_cost_stats()
    entries = [(b.query, b.parameters, b.name) for b in bundles]
    advices = advise_views(engine, entries)
    return advices, advice_report(advices)
