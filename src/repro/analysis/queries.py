"""Static analysis of queries: the QRY pass family.

:func:`analyze_query` inspects a :class:`~repro.logic.cq.ConjunctiveQuery`
or a union before any plan is compiled:

* **QRY001** (hint) -- a variable that occurs exactly once: it is never
  joined, never returned and never bound by the caller, so it is either a
  deliberate projection placeholder or a typo for a variable that should
  join.
* **QRY002** (warning) -- body atoms that share no variables (after
  resolving equalities) with the rest of the body: the join degenerates
  to a cartesian product and every branch's fan-out multiplies.
* **QRY003** (warning) -- a declared parameter the query's equalities
  collapse to a constant: the value supplied at execution time either
  repeats the constant or empties the answer.
* **QRY004** (warning) -- the same atom written twice: the second copy
  adds accesses but never changes the answer.
* **QRY005** (warning) -- union branches whose compiled access bounds
  differ by :data:`SELECTIVITY_RATIO` or more: one disjunct dominates the
  whole union's cost (needs an access schema to quantify).
* **QRY006** (warning) -- equalities that equate distinct constants: the
  query is unsatisfiable and the answer is always empty.
* **QRY007** (hint) -- a variable the binding-pattern fixpoint can never
  reach under the given access schema and parameters, with the causal
  trace from :mod:`repro.analysis.dataflow` (needs an access schema;
  a hint because views may still make the query executable).
* **ACC005** (hint) -- rides along with QRY007 when a single added
  access rule would make the query controlled: the proposed minimal
  rule, keyed on the attributes the fixpoint already binds.

Spans ride along from the parser (:class:`~repro.logic.ast.Span` on
parsed atoms and equalities), so findings on textual queries point at the
offending source range.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.dataflow import advise_missing_rule, binding_flow
from repro.analysis.diagnostics import Report, diagnostic
from repro.core.access_schema import AccessSchema
from repro.errors import NotControlledError, ReproError
from repro.logic.ast import Atom, Equality, _as_variable
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries, disjuncts_of

Query = ConjunctiveQuery | UnionOfConjunctiveQueries

#: QRY005 fires when the cheapest and the most expensive union branch
#: differ in compiled access bound by at least this factor.
SELECTIVITY_RATIO = 100


def analyze_query(
    query: Query,
    access: AccessSchema | None = None,
    parameters: Iterable[object] = (),
    *,
    source: str | None = None,
) -> Report:
    """Run the QRY passes over ``query`` and return the :class:`Report`.

    ``parameters`` are the variables supplied at execution time (QRY001
    never flags them; QRY003 checks them against the equalities).
    ``access`` is only needed for QRY005, which compares the compiled
    access bounds of union branches; without it the check is skipped.
    """
    report = Report()
    params = tuple(dict.fromkeys(_as_variable(p) for p in parameters))
    for disjunct in disjuncts_of(query):
        _check_unsatisfiable(disjunct, report, source)
        _check_single_use(disjunct, params, report, source)
        _check_cartesian(disjunct, report, source)
        _check_parameter_equated(disjunct, params, report, source)
        _check_duplicate_atoms(disjunct, report, source)
        if access is not None:
            _check_uncontrolled(disjunct, access, params, report, source)
    if isinstance(query, UnionOfConjunctiveQueries) and access is not None:
        _check_union_selectivity(query, access, params, report, source)
    return report


def _check_unsatisfiable(
    query: ConjunctiveQuery, report: Report, source: str | None
) -> None:
    if query.equality_substitution() is not None:
        return
    span = next((eq.span for eq in query.equalities if eq.span), None)
    report.add(
        diagnostic(
            "QRY006",
            f"query {query} is unsatisfiable: its equalities equate "
            f"distinct constants, so the answer is always empty",
            span=span,
            source=source,
        )
    )


def _check_single_use(
    query: ConjunctiveQuery,
    params: tuple[Variable, ...],
    report: Report,
    source: str | None,
) -> None:
    counts: dict[Variable, int] = {}
    first_site: dict[Variable, Atom | Equality] = {}
    sites = [(atom, atom.terms) for atom in query.body]
    sites += [(eq, (eq.left, eq.right)) for eq in query.equalities]
    for site, terms in sites:
        for term in terms:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
                first_site.setdefault(term, site)
    head = set(query.head)
    for variable, count in counts.items():
        if count != 1 or variable in head or variable in params:
            continue
        site = first_site[variable]
        report.add(
            diagnostic(
                "QRY001",
                f"variable ?{variable} occurs only once (in {site}): it is "
                f"never joined or returned -- a projection placeholder, or "
                f"a typo for a joining variable",
                span=site.span,
                source=source,
            )
        )


def _check_cartesian(
    query: ConjunctiveQuery, report: Report, source: str | None
) -> None:
    body = query.normalized_body()
    if body is None or len(body) < 2:
        return
    # Union-find over atoms, linking atoms that share a variable (after
    # equality resolution, so `x = y` connects through the merged class).
    parent = list(range(len(body)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    seen: dict[Variable, int] = {}
    for i, atom in enumerate(body):
        for term in atom.terms:
            if not isinstance(term, Variable):
                continue
            if term in seen:
                parent[find(i)] = find(seen[term])
            else:
                seen[term] = i
    roots: dict[int, list[Atom]] = {}
    for i, atom in enumerate(body):
        roots.setdefault(find(i), []).append(atom)
    if len(roots) < 2:
        return
    components = sorted(roots.values(), key=len, reverse=True)
    offending = components[1][0]
    rendered = "; ".join(
        "{" + ", ".join(str(a) for a in comp) + "}" for comp in components
    )
    report.add(
        diagnostic(
            "QRY002",
            f"body atoms form {len(components)} disconnected join "
            f"components ({rendered}): the result is their cartesian "
            f"product and every branch's fan-out multiplies",
            span=offending.span,
            source=source,
        )
    )


def _check_parameter_equated(
    query: ConjunctiveQuery,
    params: tuple[Variable, ...],
    report: Report,
    source: str | None,
) -> None:
    subst = query.equality_substitution()
    if not subst:
        return
    for param in params:
        rep = subst.get(param, param)
        if not isinstance(rep, Constant):
            continue
        span = next(
            (
                eq.span
                for eq in query.equalities
                if param in (eq.left, eq.right) and eq.span is not None
            ),
            None,
        )
        report.add(
            diagnostic(
                "QRY003",
                f"parameter ?{param} is equated to the constant {rep} by "
                f"the query: any other value supplied at execution time "
                f"empties the answer -- drop the equality or the parameter",
                span=span,
                source=source,
            )
        )


def _check_duplicate_atoms(
    query: ConjunctiveQuery, report: Report, source: str | None
) -> None:
    seen: set[Atom] = set()
    for atom in query.body:
        if atom in seen:
            report.add(
                diagnostic(
                    "QRY004",
                    f"duplicate body atom {atom}: the repeated copy "
                    f"costs extra accesses but never changes the answer",
                    span=atom.span,
                    source=source,
                )
            )
        else:
            seen.add(atom)


def _check_uncontrolled(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    report: Report,
    source: str | None,
) -> None:
    usable = tuple(p for p in params if p in set(query.variables()))
    try:
        flow = binding_flow(query, access, usable)
    except ReproError:
        return  # schema mismatch etc.; reported elsewhere
    if flow.controlled:
        return
    unreached = set(flow.uncovered)
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
            "; ".join(flow.explain().splitlines()),
            span=span,
            source=source,
        )
    )
    rule = advise_missing_rule(query, access, usable)
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


def _check_union_selectivity(
    query: UnionOfConjunctiveQueries,
    access: AccessSchema,
    params: tuple[Variable, ...],
    report: Report,
    source: str | None,
) -> None:
    from repro.core.plans import compile_plan

    bounds: list[tuple[int, int]] = []  # (bound, disjunct index)
    for i, disjunct in enumerate(query.disjuncts):
        usable = tuple(p for p in params if p in set(disjunct.variables()))
        try:
            plan = compile_plan(disjunct, access, usable)
        except (NotControlledError, ReproError):
            return  # cannot compare costs across uncompilable branches
        bounds.append((plan.fanout_bound, i))
    cheap = min(bounds)
    costly = max(bounds)
    if cheap[0] >= 1 and costly[0] / cheap[0] >= SELECTIVITY_RATIO:
        report.add(
            diagnostic(
                "QRY005",
                f"union branches have mismatched access cost: disjunct "
                f"{costly[1] + 1} ({query.disjuncts[costly[1]]}) is bounded "
                f"by {costly[0]} tuples vs {cheap[0]} for disjunct "
                f"{cheap[1] + 1} -- the expensive branch dominates the "
                f"whole union",
                source=source,
            )
        )
