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

:func:`controlling_sets` solves the paper's QCntl/QCntlmin problems by
searching the subsets of the candidate variables for the minimal
controlling sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from repro.core import plans
from repro.core.access_schema import AccessSchema
from repro.core.plans import Step, _is_bound, query_parameters
from repro.logic.ast import _as_variable
from repro.logic.cq import ConjunctiveQuery, Substitution
from repro.logic.terms import Variable


@dataclass(frozen=True)
class Coverage:
    """The result of the fixpoint: the covered variables and the plan
    steps that bound them."""

    bound: frozenset[Variable]
    steps: tuple[Step, ...]
    variables: tuple[Variable, ...]

    @property
    def uncovered(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v not in self.bound)

    @property
    def controlled(self) -> bool:
        return not self.uncovered


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
    return Coverage(_covered(query, subst, bound), tuple(steps), query.variables())


def _covered(
    query: ConjunctiveQuery, subst: Substitution | None, bound: set[Variable]
) -> frozenset[Variable]:
    """The variables a walk that ended at ``subst`` with the ``bound``
    representatives covers -- all of them when the equalities are
    unsatisfiable (the empty plan answers the query)."""
    if subst is None:
        return frozenset(query.variables())
    read = {subst.get(t, t) for atom in query.body for t in atom.terms}
    return frozenset(
        v
        for v in query.variables()
        if _is_bound(rep := subst.get(v, v), bound) or rep not in read
    )


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
