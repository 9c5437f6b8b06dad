"""The QDSI decision problem: scale independence on a *given* database.

``QDSI(Q, D, A, M)`` asks whether ``Q`` can be answered on the concrete
database ``D`` while accessing at most ``M`` tuples through the access
paths of ``A``.  The decider is constructive:

1. if ``Q`` is controlled under ``A``, compile the scale-independent plan
   and execute it with access accounting -- the measured access count
   certifies (or refutes) the budget;
2. otherwise fall back to direct evaluation with accounting: on a small
   enough ``D`` even a scan-based evaluation may fit the budget, which is
   exactly what makes QDSI database-specific.

The result records the number of tuples actually accessed and, when one
was used, the witnessing plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.access_schema import AccessSchema
from repro.core.executor import ExecutionContext, execute_plan
from repro.core.plans import Plan, compile_plan
from repro.errors import NotControlledError
from repro.logic.cq import ConjunctiveQuery
from repro.relational.instance import AccessStats, Database


@dataclass(frozen=True)
class QDSIResult:
    """The verdict for one QDSI instance."""

    scale_independent: bool
    tuples_accessed: int
    budget: int
    answers: tuple[tuple[object, ...], ...]
    plan: Plan | None
    reason: str

    def __bool__(self) -> bool:
        return self.scale_independent


def decide_qdsi(
    query,
    database: Database,
    access: AccessSchema,
    budget: int,
) -> QDSIResult:
    """Decide whether ``query`` is scale independent in ``database`` under
    ``access`` within a budget of ``budget`` tuple accesses.

    ``budget`` must be a non-negative integer; anything else (negative,
    bool, float, ...) raises :class:`ValueError` rather than producing a
    nonsense verdict.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(
            f"budget must be a non-negative integer number of tuple "
            f"accesses, got {budget!r}"
        )
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")

    plan: Plan | None = None
    if isinstance(query, ConjunctiveQuery):
        try:
            plan = compile_plan(query, access)
        except NotControlledError:
            plan = None

    stats = AccessStats()  # the decider's own: other executions never enter it
    if plan is not None:
        answers = execute_plan(plan, ExecutionContext(database, stats))
        how = "scale-independent plan"
    else:
        answers = query.evaluate(database, stats=stats)
        how = "direct evaluation"
    accessed = stats.tuples_accessed

    within = accessed <= budget
    reason = (
        f"{how} accessed {accessed} tuples "
        f"({'within' if within else 'over'} budget {budget})"
    )
    return QDSIResult(within, accessed, budget, tuple(answers), plan, reason)
