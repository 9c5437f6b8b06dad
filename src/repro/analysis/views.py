"""Static analysis of registered views: the VIW pass family.

Views are the paper's Section 6 escape hatch -- and an easy place to
accumulate dead weight.  :func:`analyze_views` checks a registry against
a workload:

* **VIW001** (warning) -- a view whose body maps into no workload
  query's body (via :func:`~repro.logic.homomorphism.body_homomorphisms`,
  the exact matching test the rewriter uses): the view is materialized
  and maintained but can never contribute an implied atom to any of the
  given queries.
* **VIW002** (hint) -- two views with homomorphically equivalent bodies:
  they materialize overlapping answers; one registry entry, one
  maintenance stream and one set of access rules would do.

Proposing views is the advisor's business
(:mod:`repro.analysis.advisor`, VIW004/VIW005).
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.diagnostics import Report, diagnostic
from repro.logic.ast import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.homomorphism import body_homomorphisms
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.views import ViewDef

Query = ConjunctiveQuery | UnionOfConjunctiveQueries


def _bodies(query: Query) -> tuple[tuple[Atom, ...], ...]:
    if isinstance(query, UnionOfConjunctiveQueries):
        return tuple(
            d.normalized_body() or d.body for d in query.disjuncts
        )
    return (query.normalized_body() or query.body,)


def _equivalent(view: ViewDef, other: ViewDef) -> bool:
    """True when the two views' bodies map homomorphically into each
    other: VIW002's test, and the advisor's before it proposes a view."""
    body, obody = (v.query.normalized_body() or v.query.body for v in (view, other))
    return all(
        next(body_homomorphisms(s, t), None) is not None
        for s, t in ((body, obody), (obody, body))
    )


def analyze_views(
    views: Iterable[ViewDef],
    queries: Iterable[Query] = (),
    *,
    source: str | None = None,
) -> Report:
    """Run VIW001/VIW002 over ``views`` (against the workload ``queries``
    for VIW001; with no queries given, only the overlap check runs)."""
    report = Report()
    views = tuple(views)
    query_bodies = [body for q in queries for body in _bodies(q)]
    if query_bodies:
        for view in views:
            body = view.query.normalized_body() or view.query.body
            matched = any(
                next(body_homomorphisms(body, target), None) is not None
                for target in query_bodies
            )
            if not matched:
                report.add(
                    diagnostic(
                        "VIW001",
                        f"view {view.name!r} ({view}) matches none of the "
                        f"{len(query_bodies)} workload quer"
                        f"{'y' if len(query_bodies) == 1 else 'ies'}: its "
                        f"body maps into no query body, so the rewriter "
                        f"can never use it -- drop the view or revisit "
                        f"the workload",
                        source=source,
                    )
                )
    for i, view in enumerate(views):
        for other in views[i + 1 :]:
            if _equivalent(view, other):
                report.add(
                    diagnostic(
                        "VIW002",
                        f"views {view.name!r} and {other.name!r} have "
                        f"homomorphically equivalent bodies: they "
                        f"materialize overlapping answers and pay double "
                        f"maintenance -- consider keeping one",
                        source=source,
                    )
                )
    return report
