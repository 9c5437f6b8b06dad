"""Controllability of conjunctive queries under an access schema.

Following Fan, Geerts & Libkin (2014, Section 4), a query ``Q`` is
*controlled* by a set of variables ``C`` under an access schema ``A`` if,
once values for ``C`` are fixed, every variable of ``Q`` can be bound by a
chain of bounded fetches through the rules of ``A`` -- which is exactly the
condition under which a scale-independent plan exists.

The decision procedure is the planner's own monotone fixpoint,
:func:`repro.core.plans.walk`: starting from the equality classes of
``C`` (query constants are always bound), a rule ``R(X -> N)`` on a body
atom whose ``X``-positions are all bound binds the atom's other
variables (an embedded rule ``R(X -> Y, N)`` only its ``Y`` positions).
A variable is *covered* when its equality class holds a constant or a
bound variable, or occurs in no body atom (no read is needed to satisfy
it).  ``Q`` is controlled iff every variable is covered -- exactly when
:func:`~repro.core.plans.compile_plan` succeeds -- and
:attr:`Coverage.steps` are that plan's steps.

A :class:`Coverage` is the one result of one walk, :func:`coverage`'s or
a failed ``compile_plan``'s (its :class:`~repro.errors.NotControlledError`
carries it).  It derives Datalog-style *adornments* (a ``b``/``f`` per
atom argument) and :meth:`Coverage.explain`, the causal trace of each
uncovered variable: which rules could bind it, and what blocks each.

:func:`controlling_sets` solves the paper's QCntl/QCntlmin problems by
searching the subsets of the candidate variables for the minimal
controlling sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from repro.core import plans
from repro.core.access_schema import AccessSchema
from repro.core.plans import Step, _is_bound, query_parameters
from repro.logic.ast import Atom, _as_variable
from repro.logic.cq import ConjunctiveQuery, Substitution
from repro.logic.terms import Variable


@dataclass(frozen=True)
class AtomAdornment:
    """One body atom with its binding pattern at the fixpoint: ``'b'``
    per position whose term is a constant or a covered variable, ``'f'``
    per position that stays free."""

    atom: Atom
    pattern: str

    def __str__(self) -> str:
        return f"{self.atom.relation}^{self.pattern} {self.atom}"


@dataclass(frozen=True)
class Coverage:
    """The result of one walk of the fixpoint for ``query`` under
    ``access`` with ``parameters`` initially bound: the covered
    variables (``bound``) and the plan steps that bound them."""

    query: ConjunctiveQuery
    access: AccessSchema
    parameters: tuple[Variable, ...]
    bound: frozenset[Variable]
    steps: tuple[Step, ...]

    @cached_property
    def uncovered(self) -> tuple[Variable, ...]:
        """Cached: a failed compile's message and trace each read it."""
        return tuple(v for v in self.query.variables() if v not in self.bound)

    @property
    def controlled(self) -> bool:
        return not self.uncovered

    @property
    def adornments(self) -> tuple[AtomAdornment, ...]:
        """Each body atom, equalities resolved, with its Datalog-style
        binding pattern (all ``b`` when they are unsatisfiable)."""
        return tuple(
            AtomAdornment(a, "".join("b" if _is_bound(t, self.bound) else "f" for t in a.terms))
            for a in self.query.normalized_body() or self.query.body
        )

    def explain(self) -> str:
        """The causal trace: one line per unreachable variable naming the
        atoms that contain it and why no access rule can bind it there.
        Empty string when the query is controlled."""
        if self.controlled:
            return ""
        subst = self.query.equality_substitution() or {}
        adornments = self.adornments
        reachable = ", ".join(f"?{v}" for v in sorted(self.bound, key=lambda v: v.name))
        lines = []
        for variable in self.uncovered:
            rep = subst.get(variable, variable)
            reasons = [
                _blocked_reason(self.access, adorned, pos)
                for adorned in adornments
                for pos, term in enumerate(adorned.atom.terms)
                if term == rep
            ]
            lines.append(
                f"variable ?{variable} can never become bound: "
                + "; ".join(dict.fromkeys(reasons))
                + f"; reachable bindings: {reachable or 'none'}"
            )
        return "\n".join(lines)


def _blocked_reason(access: AccessSchema, adorned: AtomAdornment, pos: int) -> str:
    """Why no rule of ``access`` can bind position ``pos`` of the
    ``adorned`` atom, given the positions its pattern marks bound."""
    atom, free = adorned.atom, [flag == "f" for flag in adorned.pattern]
    rel = access.schema.relation(atom.relation)
    rules = access.rules_for(atom.relation)
    if not rules:
        return f"relation '{atom.relation}' has no access rules"
    could = []
    for rule in rules:
        if pos not in rel.positions(rule.bound_attributes(rel)):
            continue
        # A rule missing nothing cannot bind ``pos``: the walk saturated.
        missing = [atom.terms[p] for p in rel.positions(rule.inputs) if free[p]]
        if missing:
            names = ", ".join(f"?{t}" for t in dict.fromkeys(missing))
            could.append(f"{rule} needs {names} bound first (in {atom})")
    if could:
        return "; ".join(could)
    bound_positions = [p for p, f in enumerate(free) if not f]
    at = (
        "position " + ", ".join(str(p) for p in bound_positions)
        + f" ({', '.join(rel.attributes[p] for p in bound_positions)})"
        if bound_positions
        else "any bound position"
    )
    return (
        f"no rule on '{atom.relation}' accepts input at {at} while "
        f"binding position {pos} ({rel.attributes[pos]})"
    )


def coverage(
    query: ConjunctiveQuery,
    access: AccessSchema,
    parameters: Iterable[object] = (),
) -> Coverage:
    """Walk the fixpoint for ``query`` under ``access`` with the variables
    in ``parameters`` initially bound.  A parameter that does not occur in
    ``query`` is a ValueError, as for :func:`compile_plan`."""
    params = query_parameters(query, access, parameters)
    subst, bound, steps, _ = plans.walk(query, access, params)
    return _coverage(query, access, params, subst, bound, steps)


def _coverage(
    query: ConjunctiveQuery,
    access: AccessSchema,
    params: tuple[Variable, ...],
    subst: Substitution | None,
    bound: set[Variable],
    steps: list[Step],
) -> Coverage:
    """The :class:`Coverage` of a walk that ended at ``subst`` with the
    ``bound`` representatives (:func:`coverage`'s, or a failed
    ``compile_plan``'s).  A variable is covered when its class is bound or
    read by no atom; all are when the equalities are unsatisfiable (the
    empty plan answers the query)."""
    if subst is None:
        covered = frozenset(query.variables())
    else:
        read = {subst.get(t, t) for atom in query.body for t in atom.terms}
        covered = frozenset(
            v
            for v in query.variables()
            if _is_bound(rep := subst.get(v, v), bound) or rep not in read
        )
    return Coverage(query, access, params, covered, tuple(steps))


def is_controlled(
    query: ConjunctiveQuery,
    access: AccessSchema,
    parameters: Iterable[object] = (),
) -> bool:
    """True iff fixing the variables in ``parameters`` makes every variable
    of ``query`` reachable through bounded fetches of ``access``."""
    return coverage(query, access, parameters).controlled


def controlling_sets(
    query: ConjunctiveQuery,
    access: AccessSchema,
    candidates: Sequence[object] | None = None,
    minimal_only: bool = True,
) -> tuple[tuple[Variable, ...], ...]:
    """The controlling sets of ``query`` drawn from ``candidates``
    (default: the head variables), smallest first.

    With ``minimal_only`` (the default) only inclusion-minimal sets are
    returned -- the paper's QCntlmin; otherwise every controlling subset is
    returned -- QCntl.
    """
    pool = candidates if candidates is not None else query.head
    pool = tuple(dict.fromkeys(_as_variable(v) for v in pool))
    found: list[tuple[Variable, ...]] = []
    minimal: list[frozenset[Variable]] = []
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            as_set = frozenset(combo)
            if minimal_only and any(m <= as_set for m in minimal):
                continue
            if is_controlled(query, access, combo):
                found.append(combo)
                minimal.append(as_set)
    return tuple(found)
