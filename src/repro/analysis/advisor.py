"""The covering-view advisor (VIW004/VIW005), the one place views are
proposed.

Given a workload, mine the queries that are *uncontrolled* (no bounded
plan exists) or *expensive* (the cost model prices their plan above a
threshold), and propose concrete covering views -- one atom or several
-- that fix them, each proven by compiling the query through the
rewriter before it is proposed.

The enumeration is a MiniCon-style bucket search specialized to the
augmentation rewriter: instead of assembling full rewritings from view
buckets, it enumerates *connected subsets* of the query's
(equality-normalized) body atoms -- each subset is a candidate view body
whose implied atom :func:`~repro.logic.homomorphism.body_homomorphisms`
is guaranteed to find (the identity mapping embeds the subset into the
query).  For each subset:

* the **key** is the subset's variables the controllability fixpoint can
  already reach -- what the materialized view will be accessed by;
* the **outputs** are the subset's variables the rest of the query still
  needs (head variables and join variables of atoms outside the subset);
  for an uncontrolled target at least one output must be a variable the
  fixpoint could not reach, else the view cannot help;
* the access-rule **bound** is sized from observed statistics
  (:class:`~repro.analysis.cost.CostStats`) by compiling the candidate's
  defining query under an access schema built from the measured fanouts
  and taking the final branch count -- the data-derived ceiling on
  answer rows per key -- falling back to
  :data:`~repro.analysis.queries.ADVISED_RULE_BOUND` without stats;
* **adoption is priced, never executed**: the candidate joins the
  registered views in a trial catalog, the query is recompiled through
  the rewriter, and :func:`~repro.analysis.cost.estimate_plan` prices
  the result against the base plan -- both at *declared* bounds, the
  currency of certifiable scale independence.  The statistics feed the
  proposed bound (where the tightening lives); the pricing itself stays
  worst-case, so a projected saving is a guaranteed-bound saving, not a
  data-lucky one.

Survivors become ranked :class:`ViewAdvice` values -- definition text,
access rule and projected cost delta -- surfaced as VIW004 (adoption
makes an uncontrolled query controlled) / VIW005 (adoption cuts a
controlled query's estimated cost) hints, through
``engine.views.advise(queries)``, ``engine.analyze`` (for every
uncontrolled query) and ``python -m repro.analysis --advise``.  Feed a
proposal to ``engine.views.adopt(advice)`` to register it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.analysis.cost import CostEstimate, CostStats, estimate_plan
from repro.analysis.diagnostics import Report, diagnostic
from repro.analysis.queries import ADVISED_RULE_BOUND
from repro.core.access_schema import AccessRule, AccessSchema, FullAccessRule
from repro.core.controllability import coverage
from repro.core.plans import compile_plan
from repro.errors import NotControlledError, ReproError
from repro.logic.ast import Atom, Span, _as_variable
from repro.logic.cq import ConjunctiveQuery
from repro.logic.homomorphism import body_homomorphisms
from repro.logic.terms import Variable
from repro.logic.ucq import disjuncts_of
from repro.views.definition import ViewCatalog, ViewDef
from repro.views.rewrite import compile_with_views

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import Engine, PreparedQuery

#: Largest candidate view body the bucket search enumerates.
MAX_VIEW_ATOMS = 3

#: Candidate subsets considered per query disjunct (connected subsets of
#: real query bodies number a handful; the cap guards self-join blowups).
MAX_CANDIDATES = 32

#: A controlled query whose estimated cost reaches this floor is mined
#: for cost-cutting views (VIW005) even though it already has a plan.
EXPENSIVE_COST = 256

#: Full-scan stand-in bound for relations with no observed cardinality.
_UNKNOWN_SIZE_BOUND = 1 << 30


@dataclass(frozen=True)
class ViewAdvice:
    """One ranked proposal: register ``definition`` with access rule
    ``rule`` to fix ``query``.

    ``base_cost`` is the estimated cost of the query's current plan, or
    None when the query is uncontrolled (no plan exists);
    ``projected_cost`` prices the plan the rewriter compiles once the
    view is adopted.  ``stats_derived`` records whether ``bound`` came
    from observed statistics or the fixed default."""

    name: str
    definition: str
    rule: str
    bound: int
    key: tuple[str, ...]
    atoms: int
    query: str
    base_cost: int | None
    projected_cost: int
    stats_derived: bool
    source: str | None = None
    span: Span | None = None

    @property
    def controlled_after(self) -> bool:
        """True when adoption turns an uncontrolled query controlled."""
        return self.base_cost is None

    @property
    def cost_delta(self) -> int | None:
        """Projected saving (positive is better); None when the base
        plan does not exist to compare against."""
        if self.base_cost is None:
            return None
        return self.base_cost - self.projected_cost

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "definition": self.definition,
            "rule": self.rule,
            "bound": self.bound,
            "key": list(self.key),
            "atoms": self.atoms,
            "query": self.query,
            "base_cost": self.base_cost,
            "projected_cost": self.projected_cost,
            "cost_delta": self.cost_delta,
            "controlled_after": self.controlled_after,
            "stats_derived": self.stats_derived,
            "source": self.source,
        }


def advise_views(
    engine: "Engine",
    queries: Iterable[object] = (),
    *,
    source: str | None = None,
) -> tuple[ViewAdvice, ...]:
    """Mine ``queries`` on ``engine`` for covering-view opportunities.

    Each entry of ``queries`` is query text, a query object, a
    ``PreparedQuery``, a ``(query, parameters)`` pair or a
    ``(query, parameters, source)`` triple (the source labels that
    entry's advice).  A proposed view's rule is sized from the engine's
    refreshed cost statistics (if any); a controlled query priced below
    :data:`EXPENSIVE_COST` is left alone.  Returns ranked advice:
    controllability fixes first (cheapest projected plan leading), then
    cost cuts by descending saving."""
    access = engine.access
    registered = engine.views.definitions()
    advices: list[ViewAdvice] = []
    seen_bodies: set[tuple[frozenset, tuple[str, ...]]] = set()
    taken_names = {d.name for d in registered}
    for prepared, params, entry_source in _entries(engine, queries, source):
        param_vars = tuple(dict.fromkeys(_as_variable(p) for p in params))
        for disjunct in disjuncts_of(prepared.query):
            for advice in _advise_disjunct(
                disjunct,
                access,
                param_vars,
                registered,
                entry_source,
                engine,
            ):
                fingerprint = (
                    advice.definition.split(" :- ", 1)[1],
                    advice.key,
                )
                if fingerprint in seen_bodies:
                    continue
                seen_bodies.add(fingerprint)
                advice = _uniquely_named(advice, taken_names)
                taken_names.add(advice.name)
                advices.append(advice)
    advices.sort(key=_rank)
    return tuple(advices)


def _entries(
    engine: "Engine", queries: Iterable[object], source: str | None
) -> Iterator[tuple["PreparedQuery", tuple, str | None]]:
    """Each entry of ``queries`` (see :func:`advise_views`) as
    ``(prepared, parameters, source)``; ``source`` labels the entries
    that name none.  :func:`repro.analysis.analyze_engine` reads its
    entries through here too."""
    for entry in queries:
        params: Iterable[object] = ()
        entry_source = source
        if isinstance(entry, tuple):
            if len(entry) == 3:
                entry, params, entry_source = entry
            else:
                entry, params = entry
        prepared = entry if hasattr(entry, "diagnostics") else engine.query(entry)
        yield prepared, tuple(params), entry_source


def advice_report(
    advices: Iterable[ViewAdvice], *, source: str | None = None
) -> Report:
    """The proposals as diagnostics: VIW004 per controllability fix,
    VIW005 per cost cut."""
    report = Report()
    for advice in advices:
        anchor = advice.source if advice.source is not None else source
        sizing = (
            "bound sized from observed stats"
            if advice.stats_derived
            else "default bound"
        )
        if advice.controlled_after:
            report.add(
                diagnostic(
                    "VIW004",
                    f"query {advice.query} is not controlled; adopting "
                    f"\"{advice.definition}\" with access rule "
                    f"\"{advice.rule}\" ({sizing}) makes it controlled at "
                    f"estimated cost {advice.projected_cost:g}",
                    span=advice.span,
                    source=anchor,
                )
            )
        else:
            report.add(
                diagnostic(
                    "VIW005",
                    f"adopting \"{advice.definition}\" with access rule "
                    f"\"{advice.rule}\" ({sizing}) would cut query "
                    f"{advice.query}'s estimated cost "
                    f"{advice.base_cost:g} -> {advice.projected_cost:g}",
                    span=advice.span,
                    source=anchor,
                )
            )
    return report


def _rank(advice: ViewAdvice) -> tuple:
    if advice.controlled_after:
        return (0, advice.projected_cost, advice.name)
    delta = advice.cost_delta or 0
    return (1, -delta, advice.name)


def _uniquely_named(advice: ViewAdvice, taken: set[str]) -> ViewAdvice:
    if advice.name not in taken:
        return advice
    suffix = 2
    while f"{advice.name}_{suffix}" in taken:
        suffix += 1
    renamed = f"{advice.name}_{suffix}"
    return replace(
        advice,
        name=renamed,
        definition=advice.definition.replace(f"{advice.name}(", f"{renamed}(", 1),
        rule=advice.rule.replace(f"{advice.name}(", f"{renamed}(", 1),
    )


def _advise_disjunct(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    registered: tuple[ViewDef, ...],
    source: str | None,
    engine: "Engine",
) -> list[ViewAdvice]:
    subst = query.equality_substitution()
    if subst is None:
        return []  # unsatisfiable: nothing to speed up
    body = query.normalized_body() or query.body
    params = tuple(p for p in params if p in set(query.variables()))
    cov = coverage(query, access, params)
    base_cost: int | None = None
    if cov.controlled:
        try:
            base = engine._compiled_for(engine.query(query), frozenset(params)).plans
        except ReproError:
            return []
        # Declared-bound pricing: the advisor trades in certifiable
        # bounds (stats only size the proposed view's rule).
        base_est = min(
            (estimate_plan(p) for p in base), key=lambda e: e.total
        )
        if base_est.total < EXPENSIVE_COST:
            return []  # controlled and cheap: leave it alone
        base_cost = base_est.total
    advices: list[ViewAdvice] = []
    stats = engine.cost_stats
    for subset in _connected_subsets(body):
        candidate = _candidate(subset, body, cov, query, params, stats, access)
        if candidate is None:
            continue
        view, key_vars, bound, stats_derived = candidate
        if any(_equivalent(view, other) for other in registered):
            continue  # a registered view already answers for this body
        projected = _price_adoption(query, access, params, view, registered)
        if projected is None:
            continue
        if base_cost is not None and projected.total >= base_cost:
            continue  # a cost cut must actually cut
        advices.append(
            ViewAdvice(
                view.name,
                _definition_text(view.name, view.query),
                _rule_text(view.name, key_vars, bound),
                bound,
                tuple(v.name for v in key_vars),
                len(subset),
                str(query),
                base_cost,
                projected.total,
                stats_derived,
                source,
                subset[0].span,
            )
        )
    return advices


def _connected_subsets(body: tuple[Atom, ...]) -> list[tuple[Atom, ...]]:
    """Connected subsets of ``body`` (by shared variables), smallest
    first, at most :data:`MAX_VIEW_ATOMS` atoms and
    :data:`MAX_CANDIDATES` subsets.  A single-atom subset counts as
    connected."""
    atom_vars = [set(a.free_variables()) for a in body]
    found: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    frontier = [frozenset((i,)) for i in range(len(body))]
    while frontier and len(found) < MAX_CANDIDATES:
        subset = frontier.pop(0)
        if subset in seen:
            continue
        seen.add(subset)
        found.append(subset)
        if len(subset) >= MAX_VIEW_ATOMS:
            continue
        connected_vars = set().union(*(atom_vars[i] for i in subset))
        for j in range(len(body)):
            if j in subset or not (atom_vars[j] & connected_vars):
                continue
            grown = subset | {j}
            if grown not in seen:
                frontier.append(grown)
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return [tuple(body[i] for i in sorted(subset)) for subset in found]


def _candidate(
    subset: tuple[Atom, ...],
    body: tuple[Atom, ...],
    cov,
    query: ConjunctiveQuery,
    params: tuple[Variable, ...],
    stats: CostStats | None,
    access: AccessSchema,
) -> tuple[ViewDef, tuple[Variable, ...], int, bool] | None:
    """Shape one candidate view from a body subset, or None when the
    subset offers no usable key or no needed output."""
    subset_vars = tuple(
        dict.fromkeys(v for a in subset for v in a.free_variables())
    )
    in_subset = set(subset)
    outside_vars: set[Variable] = set()
    for atom in body:
        if atom not in in_subset:
            outside_vars.update(atom.free_variables())
    # The augmentation rewriter keeps the original atoms, so a useful
    # view must also bind the subset's own join variables -- that turns
    # the re-verification of the subset atoms into probes.
    subset_join = {
        v
        for v in subset_vars
        if sum(1 for a in subset if v in a.free_variables()) > 1
    }
    needed = set(query.head) | outside_vars | subset_join
    if cov.controlled:
        # Cost cut: every variable is reachable, so key the view on the
        # execution-time parameters (what scale independence is
        # relative to) and let everything else be an output.
        anchors = set(params)
    else:
        # Controllability fix: the view must be keyed on what the
        # fixpoint can reach and bind something it cannot.
        anchors = set(cov.bound)
    key_vars = tuple(v for v in subset_vars if v in anchors)
    if not key_vars:
        return None  # nothing to access the materialized view by
    out_vars = tuple(
        v for v in subset_vars if v not in anchors and v in needed
    )
    if not out_vars:
        return None  # the view would bind nothing the query still needs
    if cov.uncovered and not any(v in set(cov.uncovered) for v in out_vars):
        return None  # an uncontrolled query needs an unreachable var bound
    head = key_vars + out_vars
    name = "V_" + "_".join(dict.fromkeys(a.relation for a in subset))
    bound, stats_derived = _advised_bound(
        subset, head, key_vars, access, stats
    )
    try:
        view = ViewDef(
            name,
            ConjunctiveQuery(head, subset),
            _rule_text(name, key_vars, bound),
        )
        view.validate(access.schema)
    except ReproError:
        return None  # e.g. the name collides with a base relation
    return view, key_vars, bound, stats_derived


def _advised_bound(
    subset: tuple[Atom, ...],
    head: tuple[Variable, ...],
    key_vars: tuple[Variable, ...],
    access: AccessSchema,
    stats: CostStats | None,
) -> tuple[int, bool]:
    """Size the proposed access rule's bound from observed statistics:
    compile the candidate's defining query, keyed on ``key_vars``, under
    an access schema whose rule bounds are the *measured* fanouts, and
    take the final branch count -- the data-derived ceiling on answer
    rows per key.  Falls back to :data:`ADVISED_RULE_BOUND` when no
    statistics are available (or the observed schema cannot bind the
    candidate, e.g. a relation too large to profile)."""
    if stats is None:
        return ADVISED_RULE_BOUND, False
    observed = _observed_access(
        access, tuple(dict.fromkeys(a.relation for a in subset)), stats
    )
    try:
        plan = compile_plan(ConjunctiveQuery(head, subset), observed, key_vars)
    except (NotControlledError, ValueError):
        return ADVISED_RULE_BOUND, False
    costs = plan.step_costs()
    if not costs:
        return ADVISED_RULE_BOUND, False
    return max(1, costs[-1].branches_out), True


def _observed_access(
    access: AccessSchema, relations: tuple[str, ...], stats: CostStats
) -> AccessSchema:
    """An access schema over the base schema whose bounds are the
    observed statistics: one full rule per relation at its cardinality,
    one single-attribute rule per measured position fanout."""
    rules: list[AccessRule] = []
    for name in relations:
        rel = access.schema.relation(name)
        size = stats.size(name)
        rules.append(
            FullAccessRule(
                name, max(1, size if size is not None else _UNKNOWN_SIZE_BOUND)
            )
        )
        for position, attribute in enumerate(rel.attributes):
            fanout = stats.fanouts.get((name, (position,)))
            if fanout is not None:
                rules.append(AccessRule(name, (attribute,), max(1, fanout)))
    return AccessSchema(access.schema, rules)


def _equivalent(view: ViewDef, other: ViewDef) -> bool:
    """True when the two views' bodies map homomorphically into each
    other: a candidate equivalent to a registered view is not proposed."""
    body, obody = (v.query.normalized_body() or v.query.body for v in (view, other))
    return all(
        next(body_homomorphisms(s, t), None) is not None
        for s, t in ((body, obody), (obody, body))
    )


def _price_adoption(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    view: ViewDef,
    registered: tuple[ViewDef, ...],
) -> CostEstimate | None:
    """Price (at declared bounds) the plan the rewriter would compile
    once ``view`` joins the registered catalog -- zero execution -- or
    None when adoption still leaves the query uncompilable (or the
    trial catalog is malformed)."""
    try:
        catalog = ViewCatalog(
            access.schema, -1, tuple(registered) + (view,)
        )
        plan = compile_with_views(query, access, catalog, params)
    except ReproError:
        return None
    if view.name not in plan.view_relations:
        return None  # the rewriter found no use for the candidate
    return estimate_plan(plan)


def _definition_text(name: str, query: ConjunctiveQuery) -> str:
    head = ", ".join(f"?{v}" for v in query.head)
    body = ", ".join(str(a) for a in query.body)
    return f"{name}({head}) :- {body}"


def _rule_text(
    name: str, key_vars: tuple[Variable, ...], bound: int
) -> str:
    return f"{name}({', '.join(v.name for v in key_vars)} -> {bound})"


__all__ = [
    "MAX_VIEW_ATOMS",
    "MAX_CANDIDATES",
    "EXPENSIVE_COST",
    "ViewAdvice",
    "advise_views",
    "advice_report",
]
