"""The QSI decision problem: scale independence on *all* databases.

``QSI(Q, A, parameters)`` asks whether ``Q`` is scale independent under
access schema ``A`` on every database, once the parameter variables are
supplied.  For conjunctive queries (and unions thereof) this is decided by
the controllability fixpoint, which is the planner's walk
(:func:`repro.core.plans.walk`): every disjunct is controlled iff
:func:`repro.core.plans.compile_plan` succeeds on it, and controlled
implies scale independent -- each :class:`~repro.core.controllability.Coverage`
carries the witnessing plan's steps.  The converse fails: ``Q(y) :-
friend(p, y), friend(z, w)`` is equivalent to ``friend(p, y)`` yet not
controlled, so a negative verdict means "no plan found", not "unbounded".  A parameter that does not occur in
a disjunct is a ValueError, as for ``compile_plan``.  For full
first-order logic the problem is undecidable
(Fan, Geerts & Libkin 2014, Theorem 3.1), which is why CQ and UCQ are the
only inputs accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.access_schema import AccessSchema
from repro.core.controllability import Coverage, coverage
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries


@dataclass(frozen=True)
class QSIResult:
    """The verdict for one QSI instance."""

    scale_independent: bool
    coverages: tuple[Coverage, ...]
    reason: str

    def __bool__(self) -> bool:
        return self.scale_independent


def decide_qsi(
    query,
    access: AccessSchema,
    parameters: Iterable[object] = (),
) -> QSIResult:
    """Decide QSI for ``query`` under ``access``.

    Accepts a :class:`ConjunctiveQuery` or a
    :class:`UnionOfConjunctiveQueries` and raises :class:`TypeError` for
    anything else: QSI is undecidable for first-order queries (Fan,
    Geerts & Libkin 2014, Theorem 3.1).
    """
    if isinstance(query, ConjunctiveQuery):
        disjuncts: tuple[ConjunctiveQuery, ...] = (query,)
    elif isinstance(query, UnionOfConjunctiveQueries):
        disjuncts = query.disjuncts
    else:
        raise TypeError(f"cannot decide QSI for {type(query).__name__}")

    # Materialize: a one-shot iterable must survive one pass per disjunct.
    parameters = tuple(parameters)
    coverages = tuple(coverage(q, access, parameters) for q in disjuncts)
    failing = [
        (q, c) for q, c in zip(disjuncts, coverages) if not c.controlled
    ]
    if failing:
        q, c = failing[0]
        reason = (
            f"{q} is not controlled: variables "
            + ", ".join(f"?{v}" for v in c.uncovered)
            + " are unreachable through the access rules"
        )
        return QSIResult(False, coverages, reason)
    return QSIResult(
        True,
        coverages,
        "every disjunct is controlled; a bounded fetch/join plan exists",
    )
