"""Static analysis and diagnostics for the scale-independence pipeline.

The paper makes two static decisions -- Section 4's verdict on whether a
query is controlled and Section 5's on whether a plan can be maintained.
This package reports them as compiler-style diagnostics: a framework
(:mod:`repro.analysis.diagnostics` -- stable codes, severities, 1-based
source spans threaded from the tokenizer through the AST) plus one pass
per decision the engine makes:

* :func:`analyze_query` (QRY007, ACC005) -- the binding-pattern
  uncontrollability trace, ``explain()`` of the walk's
  :class:`~repro.core.controllability.Coverage` (the trace a
  ``NotControlledError`` carries), and the minimal missing access rule
  (:func:`advise_missing_rule`) read off that same ``Coverage``;
* :func:`estimate_plan` / :func:`certify_selection` (CST001-CST003,
  :mod:`repro.analysis.cost`) -- the static cost model behind the
  engine's cost-based plan selection, optionally refined by observed
  ``CostStats``, with a must-never-fire self-check that the chosen plan
  is no costlier than any rejected candidate (CST002, in the certifier,
  catches plans whose ``cost_estimate`` annotation disagrees with an
  independent re-derivation);
* :func:`analyze_prepared`'s INC001-INC002 -- Section 5's
  maintainability verdict, rendered where the executor decides it
  (:func:`~repro.core.executor.delta_blockers`, with the causal trace
  :func:`~repro.core.executor.explain_blocker`): which plans the delta
  pipeline can refresh, reported at prepare/register time instead of
  failing at ``execute_incremental`` time;
* :func:`certify_plan` / :func:`check_plan` (CRT001-CRT007,
  :mod:`repro.analysis.certify`) -- translation validation: re-derive a
  compiled plan's binding coverage, rule membership, head projection and
  fanout arithmetic independently of the planner (``Engine(certify=True)``
  / ``REPRO_CERTIFY=1`` gates every compilation on it).

Three surfaces:

* the API -- ``engine.analyze(queries)`` /
  ``prepared.diagnostics(parameters)`` (thin wrappers over
  :func:`analyze_engine` / :func:`analyze_prepared`, the one driver);
* the CLI -- ``python -m repro.analysis`` parses query files against an
  optional schema (SYN001 for each line that does not parse or
  validate) and, given access rules, runs each line through
  :func:`analyze_prepared` on one engine, so a file reports what
  ``engine.analyze`` reports; it exits nonzero on any error;
* CI -- the workflow runs ``python -m repro.analysis --workload
  --certify`` so the Q1-Q5 bundles (:func:`workload_report`)
  stay error-free with every plan certified.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.certify import certify_plan, check_plan
from repro.analysis.cost import CostStats, certify_selection, check_selection, estimate_plan
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    Report,
    Severity,
    diagnostic,
    register_code,
)
from repro.analysis.queries import ADVISED_RULE_BOUND, advise_missing_rule, analyze_query
from repro.core.executor import delta_blockers, explain_blocker
from repro.core.plans import compile_plan
from repro.errors import NotControlledError
from repro.logic.ucq import disjuncts_of

if TYPE_CHECKING:
    from repro.api.engine import Engine, PreparedQuery

__all__ = [
    "Severity",
    "Diagnostic",
    "Report",
    "CODES",
    "register_code",
    "diagnostic",
    "analyze_query",
    "analyze_prepared",
    "analyze_engine",
    "workload_report",
    "certify_plan",
    "check_plan",
    "estimate_plan",
    "certify_selection",
    "check_selection",
    "CostStats",
    "advise_missing_rule",
    "ADVISED_RULE_BOUND",
]


def analyze_prepared(
    prepared: "PreparedQuery",
    parameters: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """Every applicable pass for one prepared query: QRY007 / ACC005
    when the engine's base access schema cannot control it, then --
    when the query compiles (views included) -- the INC
    incremental-maintainability classification and a CST003 note for
    each plan the cost-based selector steered onto a view.  A query
    that does not compile reports the QRY007 / ACC005 findings alone."""
    engine = prepared._engine
    parameters = tuple(parameters)
    report = analyze_query(
        prepared.query, engine.access, parameters, source=source
    )
    try:
        plans = prepared.plan(parameters)
    except NotControlledError:
        return report
    if not isinstance(plans, tuple):
        plans = (plans,)
    # INC001 per step that keeps a plan from a delta program; INC002 once
    # when only *some* disjuncts of a union are blocked -- the delta
    # pipeline refreshes all disjunct counts or none.
    blockers = [(plan, index, step) for plan in plans for index, step in delta_blockers(plan)]
    for plan, index, step in blockers:
        message = f"query {plan.query} cannot be refreshed incrementally: "
        message += explain_blocker(index, step)
        report.add(diagnostic("INC001", message, span=step.atom.span, source=source))
    blocked = len({id(plan) for plan, _, _ in blockers})
    if blocked and blocked < len(plans):
        relations = ", ".join(sorted({step.atom.relation for _, _, step in blockers}))
        message = (
            f"{blocked} of {len(plans)} union disjuncts fetch through embedded rules "
            f"(on {relations}), blocking incremental refresh of the whole union: the "
            f"delta pipeline refreshes all disjunct counts or none"
        )
        report.add(diagnostic("INC002", message, span=blockers[0][2].atom.span, source=source))
    # CST003: the selector picked a view-augmented plan although a base
    # plan exists -- worth a note (with the price comparison) because the
    # answers now depend on view freshness.
    for disjunct, plan in zip(disjuncts_of(prepared.query), plans):
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
    """:func:`analyze_prepared` per entry of ``queries``: query text, a
    query object, a ``PreparedQuery``, a ``(query, parameters)`` pair or
    a ``(query, parameters, source)`` triple (the source labels that
    query's findings; ``source`` labels the rest)."""
    report = Report()
    for entry in queries:
        params: Iterable[object] = ()
        entry_source = source
        if isinstance(entry, tuple):
            if len(entry) == 3:
                entry, params, entry_source = entry
            else:
                entry, params = entry
        prepared = entry if hasattr(entry, "diagnostics") else engine.query(entry)
        report.extend(analyze_prepared(prepared, params, source=entry_source))
    return report


def workload_report(*, certify: bool | None = None) -> Report:
    """The repo's own gate: :func:`analyze_engine` over the Q1-Q5
    workload bundles (views V1/V2 registered, so Q4/Q5 compile), each
    bundle's findings labelled with its name.  CI runs this via ``python
    -m repro.analysis --workload --certify`` and fails on any
    error; with ``certify`` the engine additionally gates every
    compiled plan (base and view-augmented) on the
    :mod:`repro.analysis.certify` certifier."""
    from repro.workloads import RUNNING_QUERIES, VIEW_QUERIES, register_workload_views

    bundles = RUNNING_QUERIES + VIEW_QUERIES
    engine = bundles[0].engine(certify=certify)
    register_workload_views(engine)
    entries = [(b.query, b.parameters, b.name) for b in bundles]
    return analyze_engine(engine, entries, source="social")
