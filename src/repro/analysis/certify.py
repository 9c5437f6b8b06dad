"""Plan certification: translation validation for the planner.

The paper's guarantee -- a compiled plan touches at most
:attr:`~repro.core.plans.Plan.fanout_bound` tuples regardless of database
size -- is only as good as the planner that produced the plan.
:func:`certify_plan` removes the planner from the trusted base: given the
``(plan, access schema, views)`` triple it re-derives, step by step and
without consulting the planner's own bookkeeping,

* that every :class:`~repro.core.plans.FetchStep` keys only on positions
  already bound by the parameters, query constants or earlier steps, and
  that its claimed ``binds`` are exactly what its rule can deliver
  (**CRT001**);
* that every :class:`~repro.core.plans.ProbeStep` atom is fully bound at
  its position in the sequence (**CRT002**);
* that every fetch rule is actually declared by the access schema (or the
  view definition) for its relation, with matching input and output
  attribute positions (**CRT003**);
* that the plan's ``head_terms`` agree with the query head under its
  equalities and end up bound (**CRT004**);
* that relations marked as views are registered views (**CRT005**);
* that the fanout arithmetic -- recomputed from scratch, not through
  :func:`repro.core.plans.step_costs` -- equals ``plan.fanout_bound``
  and ``plan.step_costs()`` exactly (**CRT006**), and that
  ``plan.cost_estimate``, the figure the benchmark's cost calibration
  reads, equals it too (**CST002**);
* that the steps witness every body atom, and nothing else, and that the
  plan's satisfiability marker agrees with the query's equalities
  (**CRT007**).  A view-assisted plan may leave a body atom unread where
  a view proves it (:mod:`repro.views.rewrite`): a witnessed view atom
  witnesses the atoms it *stands for* -- the view's equality-normalised
  body under head -> the atom's terms, nothing when the view is
  *projecting* (a body variable its head lacks) or the terms do not fit
  the head -- and an unread view atom passes only when everything it
  stands for is witnessed.  :func:`_stands_for` derives that from the
  registered definition and the atom alone, in this module's own code:
  sharing :meth:`~repro.views.ViewDef.stands_for` with the planner would
  certify a wrong rule against itself.

All CRT codes are errors: a finding means the plan is not a faithful
compilation of its query.  :func:`check_plan` is the gating form -- it
raises :class:`~repro.errors.CertificationError` carrying the report.
The engine runs it after every compilation when constructed with
``Engine(certify=True)`` or under ``REPRO_CERTIFY=1`` (the test suite
turns this on for every engine via a conftest fixture), inside the plan
cache's single-flight compute so each cached plan is certified exactly
once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import Report, diagnostic
from repro.core.access_schema import AccessRule, AccessSchema
from repro.core.controllability import _is_bound
from repro.core.plans import FetchStep, Plan, ProbeStep
from repro.errors import CertificationError
from repro.logic.ast import Atom
from repro.logic.terms import Constant, Variable
from repro.relational.schema import RelationSchema

if TYPE_CHECKING:
    from repro.views import ViewDef


def _view_defs(views: object) -> "tuple[ViewDef, ...]":
    """Normalize ``views``: an iterable of ``ViewDef``, a ``ViewCatalog``
    or a ``ViewSet`` (anything with ``definitions()``), or None."""
    if views is None:
        return ()
    definitions = getattr(views, "definitions", None)
    if callable(definitions):
        return tuple(definitions())
    return tuple(views)  # type: ignore[arg-type]


def _stands_for(view: "ViewDef", atom: Atom) -> set[Atom]:
    """The base atoms a witnessed ``atom`` of registered ``view`` proves
    (module docstring); empty when it proves no particular one."""
    definition = view.query
    subst = definition.equality_substitution()
    if subst is None or len(atom.terms) != definition.arity:
        return set()
    to: dict[Variable, object] = {}
    for position, variable in enumerate(definition.head):
        column, term = subst.get(variable, variable), atom.terms[position]
        if isinstance(column, Constant):
            if column != term:
                return set()
        elif to.setdefault(column, term) != term:
            return set()
    body = [a.substitute(subst) for a in definition.body]
    if {v for a in body for v in a.free_variables()} - to.keys():
        return set()  # projecting: a body variable that is no head column
    return {a.substitute(to) for a in body}


def certify_plan(
    plan: Plan,
    access: AccessSchema,
    views: object = (),
    *,
    source: str | None = None,
) -> Report:
    """Independently re-check ``plan`` against ``access`` and the
    registered ``views`` and return the :class:`Report` of CRT findings
    (empty when the plan certifies clean)."""
    report = Report()
    defs = {v.name: v for v in _view_defs(views)}
    query = plan.query

    def emit(code: str, message: str) -> None:
        report.add(diagnostic(code, message, source=source))

    for name in sorted(plan.view_relations):
        if name not in defs:
            registered = ", ".join(sorted(defs)) or "none"
            emit(
                "CRT005",
                f"plan reads view relation {name!r}, which is not a "
                f"registered view (registered: {registered})",
            )

    def rel_schema(relation: str) -> RelationSchema | None:
        if relation in plan.view_relations and relation in defs:
            return defs[relation].relation
        if relation in access.schema:
            return access.schema.relation(relation)
        return None

    def rules_for(relation: str) -> tuple[AccessRule, ...]:
        if relation in plan.view_relations and relation in defs:
            return tuple(defs[relation].rules)
        if relation in access.schema:
            return access.rules_for(relation)
        return ()

    subst = query.equality_substitution()
    if len(plan.head_terms) != query.arity:
        emit(
            "CRT004",
            f"plan projects {len(plan.head_terms)} head terms but the "
            f"query head has arity {query.arity}",
        )

    if subst is None:
        # The equalities are contradictory: the only faithful plan is the
        # empty unsatisfiable one with a zero bound.
        if plan.satisfiable or plan.steps:
            emit(
                "CRT007",
                f"query {query} is unsatisfiable (contradictory "
                f"equalities) but the plan claims satisfiable="
                f"{plan.satisfiable} with {len(plan.steps)} steps",
            )
        if plan.fanout_bound != 0:
            emit(
                "CRT006",
                f"unsatisfiable plan must have fanout bound 0, plan "
                f"claims {plan.fanout_bound}",
            )
        if plan.cost_estimate != 0:
            emit(
                "CST002",
                f"unsatisfiable plan must have cost estimate 0, plan "
                f"claims {plan.cost_estimate}",
            )
        return report
    if not plan.satisfiable:
        emit(
            "CRT007",
            f"plan claims the query is unsatisfiable, but the equalities "
            f"of {query} are satisfiable",
        )
        return report

    expected_atoms = {a.substitute(subst) for a in query.body}
    query_vars = set(query.variables())

    bound: set[Variable] = set()
    for v in plan.parameters:
        if v not in query_vars:
            emit(
                "CRT001",
                f"plan parameter ?{v} does not occur in the query, so it "
                f"cannot legitimately seed any binding",
            )
            continue
        rep = subst.get(v, v)
        if isinstance(rep, Variable):
            bound.add(rep)

    witnessed: set[Atom] = set()

    def witness(atom: Atom) -> None:
        witnessed.add(atom)
        if atom.relation in plan.view_relations and atom.relation in defs:
            witnessed.update(_stands_for(defs[atom.relation], atom))

    branches = 1
    accesses = 0
    expected_costs: list[tuple[int, int, int]] = []
    for idx, step in enumerate(plan.steps, 1):
        atom = step.atom
        rel = rel_schema(atom.relation)
        if rel is None:
            emit(
                "CRT005",
                f"step {idx} reads relation {atom.relation!r}, which is "
                f"neither a base relation nor a registered view",
            )
            if isinstance(step, FetchStep):
                bound.update(step.binds)
            continue
        if atom not in expected_atoms:
            emit(
                "CRT007",
                f"step {idx} accesses {atom}, which is not a body atom "
                f"of the query (after resolving equalities)",
            )
        if isinstance(step, ProbeStep):
            free = [t for t in atom.terms if not _is_bound(t, bound)]
            if free:
                names = ", ".join(f"?{t}" for t in free)
                emit(
                    "CRT002",
                    f"step {idx} probes {atom} before {names} "
                    f"{'is' if len(free) == 1 else 'are'} bound: a probe "
                    f"needs every position bound",
                )
            witness(atom)
            expected_costs.append((branches, branches, branches))
            accesses += branches
            continue
        rule = step.rule
        declared = rules_for(atom.relation)
        if rule.relation != atom.relation or rule not in declared:
            emit(
                "CRT003",
                f"step {idx} fetches {atom} via {rule}, which is not an "
                f"access rule declared for {atom.relation!r}",
            )
        else:
            in_pos = rel.positions(rule.inputs)
            out_pos = rel.positions(rule.bound_attributes(rel))
            if (
                tuple(step.input_positions) != tuple(in_pos)
                or tuple(step.output_positions) != tuple(out_pos)
            ):
                emit(
                    "CRT003",
                    f"step {idx} claims input positions "
                    f"{tuple(step.input_positions)} and output positions "
                    f"{tuple(step.output_positions)} for {rule}, but the "
                    f"rule's attributes sit at {tuple(in_pos)} -> "
                    f"{tuple(out_pos)}",
                )
        unbound_inputs = [
            atom.terms[p]
            for p in step.input_positions
            if p < len(atom.terms) and not _is_bound(atom.terms[p], bound)
        ]
        if unbound_inputs:
            names = ", ".join(f"?{t}" for t in unbound_inputs)
            emit(
                "CRT001",
                f"step {idx} fetches {atom} keyed on unbound "
                f"{'variable' if len(unbound_inputs) == 1 else 'variables'} "
                f"{names}: inputs must be parameters, constants or bound "
                f"by earlier steps",
            )
        derivable = tuple(
            dict.fromkeys(
                atom.terms[p]
                for p in step.output_positions
                if p < len(atom.terms)
                and isinstance(atom.terms[p], Variable)
                and atom.terms[p] not in bound
            )
        )
        if set(step.binds) != set(derivable):
            claimed = ", ".join(f"?{v}" for v in step.binds) or "nothing"
            can = ", ".join(f"?{v}" for v in derivable) or "nothing"
            emit(
                "CRT001",
                f"step {idx} claims to bind {claimed} but fetching {atom} "
                f"via {rule} at this point can only bind {can}",
            )
        # Continue with the union of claim and re-derivation so one bad
        # step does not cascade into spurious findings downstream.
        bound.update(step.binds)
        bound.update(v for v in derivable if isinstance(v, Variable))
        if rule.verifies_atom:
            witness(atom)
        fanned = branches * rule.bound
        expected_costs.append((branches, fanned, fanned))
        accesses += fanned
        branches = fanned

    for atom in sorted(expected_atoms - witnessed, key=str):
        stood = _stands_for(defs[atom.relation], atom) if atom.relation in defs else None
        if stood and stood <= witnessed:
            continue  # an unread view atom the witnessed atoms entail
        emit(
            "CRT007",
            f"body atom {atom} is never witnessed: no verifying fetch or "
            f"probe covers it and no witnessed atom entails it, so the "
            f"plan can return rows the query does not",
        )

    expected_head = tuple(subst.get(v, v) for v in query.head)
    if plan.head_terms != expected_head:
        emit(
            "CRT004",
            f"plan head terms ({', '.join(map(str, plan.head_terms))}) "
            f"disagree with the query head under its equalities "
            f"({', '.join(map(str, expected_head))})",
        )
    for term in plan.head_terms:
        if isinstance(term, Variable) and term not in bound:
            emit(
                "CRT004",
                f"head term ?{term} is never bound by the plan's steps, "
                f"so the projection is undefined",
            )

    if plan.fanout_bound != accesses:
        emit(
            "CRT006",
            f"plan claims fanout bound {plan.fanout_bound} but re-deriving "
            f"the arithmetic from its steps and rule bounds gives "
            f"{accesses}",
        )
    actual_costs = tuple(
        (c.branches_in, c.accesses, c.branches_out) for c in plan.step_costs()
    )
    if actual_costs != tuple(expected_costs):
        emit(
            "CRT006",
            f"plan.step_costs() reports {actual_costs} but re-deriving "
            f"the per-step arithmetic gives {tuple(expected_costs)}",
        )
    if plan.cost_estimate != accesses:
        emit(
            "CST002",
            f"plan claims cost estimate {plan.cost_estimate} but "
            f"re-deriving the step costs from its rule bounds gives "
            f"{accesses}",
        )
    return report


def check_plan(
    plan: Plan,
    access: AccessSchema,
    views: object = (),
    *,
    source: str | None = None,
) -> Plan:
    """The gating form of :func:`certify_plan`: return ``plan`` unchanged
    when it certifies clean, raise
    :class:`~repro.errors.CertificationError` (carrying the report)
    otherwise."""
    report = certify_plan(plan, access, views, source=source)
    if not report.ok():
        raise CertificationError(
            f"plan for {plan.query} failed certification:\n"
            + report.render(),
            report,
        )
    return plan
