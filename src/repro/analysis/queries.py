"""Section 4's verdict on one query, as diagnostics.

:func:`analyze_query` reads the binding-pattern walk of a
:class:`~repro.logic.cq.ConjunctiveQuery` (or of each disjunct of a
union) under an access schema -- the walk's
:class:`~repro.core.controllability.Coverage`, the result the planner's
fixpoint returns -- and reports what keeps it uncontrolled:

* **QRY007** (hint) -- a variable the binding-pattern fixpoint can never
  reach under the given access schema and parameters, with the causal
  trace of :meth:`~repro.core.controllability.Coverage.explain` (a hint
  because views may still make the query executable).
* **ACC005** (hint) -- rides along with QRY007 when a single added
  access rule would make the query controlled: the proposed minimal
  rule (:func:`advise_missing_rule`), keyed on the attributes the
  fixpoint already binds.

Both read one walk under the given access schema; only the candidate
rules ACC005 tries walk again, each under its extended schema.  Spans
ride along from the parser (:class:`~repro.logic.ast.Span` on parsed
atoms), so findings on textual queries point at the offending atom.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.diagnostics import Report, diagnostic
from repro.core.access_schema import AccessRule, AccessSchema, FullAccessRule
from repro.core.controllability import Coverage, coverage
from repro.errors import ReproError
from repro.logic.ast import _as_variable
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable
from repro.logic.ucq import UnionOfConjunctiveQueries, disjuncts_of

Query = ConjunctiveQuery | UnionOfConjunctiveQueries

#: The cardinality bound ACC005 proposals carry -- a placeholder for a
#: measured bound.
ADVISED_RULE_BOUND = 64


def analyze_query(
    query: Query,
    access: AccessSchema,
    parameters: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """QRY007 (and ACC005 when one rule would do) for each disjunct of
    ``query`` that ``access`` cannot control from ``parameters``, the
    variables supplied at execution time."""
    report = Report()
    params = tuple(dict.fromkeys(_as_variable(p) for p in parameters))
    for disjunct in disjuncts_of(query):
        _check_uncontrolled(disjunct, access, params, report, source)
    return report


def _check_uncontrolled(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    report: Report,
    source: str | None,
) -> None:
    usable = tuple(p for p in params if p in set(query.variables()))
    try:
        cover = coverage(query, access, usable)
    except ReproError:
        return  # schema mismatch etc.; reported elsewhere
    if cover.controlled:
        return
    unreached = set(cover.uncovered)
    span = next(
        (
            atom.span
            for atom in query.body
            if atom.span is not None
            and any(t in unreached for t in atom.terms if isinstance(t, Variable))
        ),
        None,
    )
    # One diagnostic per query: the trace's per-variable lines fold into
    # one compiler-style line.
    report.add(
        diagnostic(
            "QRY007",
            "; ".join(cover.explain().splitlines()),
            span=span,
            source=source,
        )
    )
    rule = advise_missing_rule(cover)
    if rule is not None:
        given = ", ".join(f"?{p}" for p in usable) or "no parameters"
        report.add(
            diagnostic(
                "ACC005",
                f"adding access rule {rule} would make the query "
                f"controlled by {given} -- the minimal missing promise, "
                f"keyed on the attributes the fixpoint already binds",
                span=span,
                source=source,
            )
        )


def advise_missing_rule(cover: Coverage) -> AccessRule | None:
    """The minimal single access rule whose addition would make the
    query ``cover`` walked controlled by its parameters, or None when no
    single rule suffices (or it is controlled already).

    Candidates key each under-bound atom on exactly the attributes the
    fixpoint can already bind there -- the cheapest promise a deployment
    could add; among those that provably control the query (re-running
    the fixpoint over the extended schema), the one leaving the fewest
    attributes to promise -- the most selective key -- wins.
    """
    if cover.controlled:
        return None
    access = cover.access
    candidates: dict[tuple[str, tuple[str, ...]], AccessRule] = {}
    for adorned in cover.adornments:
        if "f" not in adorned.pattern:
            continue
        atom = adorned.atom
        if atom.relation not in access.schema:
            continue
        rel = access.schema.relation(atom.relation)
        inputs = tuple(
            rel.attributes[p]
            for p, flag in enumerate(adorned.pattern)
            if flag == "b"
        )
        rule: AccessRule = (
            AccessRule(atom.relation, inputs, ADVISED_RULE_BOUND)
            if inputs
            else FullAccessRule(atom.relation, ADVISED_RULE_BOUND)
        )
        candidates.setdefault((atom.relation, inputs), rule)
    ordered = sorted(
        candidates.values(),
        key=lambda r: (
            access.schema.relation(r.relation).arity - len(r.inputs),
            -len(r.inputs),
            r.relation,
        ),
    )
    for rule in ordered:
        if rule in tuple(access):
            continue
        extended = AccessSchema(access.schema, tuple(access) + (rule,))
        if coverage(cover.query, extended, cover.parameters).controlled:
            return rule
    return None
