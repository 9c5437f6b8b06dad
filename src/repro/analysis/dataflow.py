"""Binding-pattern dataflow: *why* a query is (un)controllable.

The controllability fixpoint (:func:`repro.core.controllability.coverage`)
answers yes/no; this pass turns its result into Datalog-style
*adornments* -- one ``b``/``f`` letter per atom argument, recording which
positions end up bound once the fixpoint saturates -- and, for every
variable the fixpoint never reaches, a *causal trace*: which atoms
contain it, which access rules could in principle bind its position, and
exactly which missing binding blocks each of them.

Three consumers:

* :func:`repro.analysis.queries.analyze_query` emits the trace as
  **QRY007** (hint) and, when a single added access rule would make the
  query controlled, the rule as **ACC005**;
* :class:`~repro.errors.NotControlledError` appends the trace to its
  message, so a failed ``compile_plan`` explains itself;
* :meth:`BindingFlow.explain` is the API form.

The proposal in :func:`advise_missing_rule` is minimal in the sense that
it keys on exactly the attributes the fixpoint can already bind -- the
cheapest promise a deployment could add (an index over the reachable
attributes with a cardinality bound) that provably controls the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.access_schema import AccessRule, AccessSchema, FullAccessRule
from repro.core.controllability import _is_bound, coverage
from repro.logic.ast import Atom, _as_variable
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable

#: The cardinality bound ACC005 proposals carry, and the view advisor's
#: rules when no statistics size them -- a placeholder for a measured
#: bound.
ADVISED_RULE_BOUND = 64


@dataclass(frozen=True)
class AtomAdornment:
    """One body atom with its binding pattern at the fixpoint: ``'b'``
    per position whose term is a constant or a reachable variable,
    ``'f'`` per position that stays free."""

    atom: Atom
    pattern: str

    def __str__(self) -> str:
        return f"{self.atom.relation}^{self.pattern} {self.atom}"


@dataclass(frozen=True)
class BindingFlow:
    """The dataflow result for one query under one parameter set."""

    query: ConjunctiveQuery
    parameters: tuple[Variable, ...]
    bound: frozenset[Variable]
    adornments: tuple[AtomAdornment, ...]
    uncovered: tuple[Variable, ...]
    _access: AccessSchema

    @property
    def controlled(self) -> bool:
        return not self.uncovered

    def explain(self) -> str:
        """The causal trace: one line per unreachable variable naming the
        atoms that contain it and why no access rule can bind it there.
        Empty string when the query is controlled."""
        if self.controlled:
            return ""
        subst = self.query.equality_substitution() or {}
        rep_bound = {
            subst.get(v, v)
            for v in self.bound
            if isinstance(subst.get(v, v), Variable)
        }
        lines = []
        for variable in self.uncovered:
            rep = subst.get(variable, variable)
            reasons = []
            for adorned in self.adornments:
                atom = adorned.atom
                for pos, term in enumerate(atom.terms):
                    if term != rep:
                        continue
                    reasons.append(
                        _blocked_reason(
                            self._access, atom, pos, rep_bound
                        )
                    )
            reachable = ", ".join(
                f"?{v}" for v in sorted(self.bound, key=lambda v: v.name)
            ) or "none"
            lines.append(
                f"variable ?{variable} can never become bound: "
                + "; ".join(dict.fromkeys(reasons))
                + f"; reachable bindings: {reachable}"
            )
        return "\n".join(lines)


def _blocked_reason(
    access: AccessSchema,
    atom: Atom,
    pos: int,
    bound: set[Variable] | frozenset[Variable],
) -> str:
    """Why no rule of ``access`` can bind position ``pos`` of ``atom``
    given the ``bound`` representatives."""
    rel = access.schema.relation(atom.relation)
    rules = access.rules_for(atom.relation)
    if not rules:
        return f"relation '{atom.relation}' has no access rules"
    attr = rel.attributes[pos]
    could = []
    for rule in rules:
        out_pos = rel.positions(rule.bound_attributes(rel))
        if pos not in out_pos:
            continue
        missing = [
            atom.terms[p]
            for p in rel.positions(rule.inputs)
            if not _is_bound(atom.terms[p], bound)
        ]
        if not missing:
            # The fixpoint saturated, so a firable rule binding this
            # position cannot exist; defensive fallback only.
            continue
        names = ", ".join(f"?{t}" for t in dict.fromkeys(missing))
        could.append(f"{rule} needs {names} bound first (in {atom})")
    if not could:
        bound_positions = [
            p for p, t in enumerate(atom.terms) if _is_bound(t, bound)
        ]
        at = (
            "position " + ", ".join(str(p) for p in bound_positions)
            + f" ({', '.join(rel.attributes[p] for p in bound_positions)})"
            if bound_positions
            else "any bound position"
        )
        return (
            f"no rule on '{atom.relation}' accepts input at {at} while "
            f"binding position {pos} ({attr})"
        )
    return "; ".join(could)


def binding_flow(
    query: ConjunctiveQuery,
    access: AccessSchema,
    parameters: Iterable[object] = (),
) -> BindingFlow:
    """Run the fixpoint for ``query`` under ``access`` with ``parameters``
    initially bound and return the :class:`BindingFlow` with per-atom
    adornments and the uncovered variables."""
    params = tuple(dict.fromkeys(_as_variable(p) for p in parameters))
    cov = coverage(query, access, params)
    subst = query.equality_substitution()
    if subst is None:
        # Unsatisfiable: vacuously controlled, everything trivially bound.
        adornments = tuple(
            AtomAdornment(a, "b" * len(a.terms)) for a in query.body
        )
        return BindingFlow(
            query, params, cov.bound, adornments, (), access
        )
    rep_bound = {
        subst.get(v, v)
        for v in cov.bound
        if isinstance(subst.get(v, v), Variable)
    }
    adornments = tuple(
        AtomAdornment(
            atom,
            "".join(
                "b" if _is_bound(t, rep_bound) else "f" for t in atom.terms
            ),
        )
        for atom in (a.substitute(subst) for a in query.body)
    )
    return BindingFlow(
        query, params, cov.bound, adornments, cov.uncovered, access
    )


def explain_uncontrolled(
    query: ConjunctiveQuery,
    access: AccessSchema,
    parameters: Iterable[object] = (),
) -> str | None:
    """The causal uncontrollability trace for ``query``, or None when the
    query is controlled by ``parameters``."""
    flow = binding_flow(query, access, parameters)
    return None if flow.controlled else flow.explain()


def advise_missing_rule(
    query: ConjunctiveQuery,
    access: AccessSchema,
    parameters: Iterable[object] = (),
) -> AccessRule | None:
    """The minimal single access rule whose addition would make ``query``
    controlled by ``parameters``, or None when no single rule suffices.

    Candidates key each under-bound atom on exactly the attributes the
    fixpoint can already bind there; among the candidates that provably
    control the query (re-running the fixpoint over the extended schema),
    the one leaving the fewest attributes to promise -- the most selective
    key -- wins.
    """
    flow = binding_flow(query, access, parameters)
    if flow.controlled:
        return None
    candidates: dict[tuple[str, tuple[str, ...]], AccessRule] = {}
    for adorned in flow.adornments:
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
        if coverage(query, extended, flow.parameters).controlled:
            return rule
    return None
