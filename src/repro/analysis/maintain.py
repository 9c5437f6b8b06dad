"""Static incremental-maintainability diagnostics (INC codes).

The Section 5 delta pipeline maintains per-tuple derivation counts so
deletions can decrement exactly what their insertions contributed.  That
scheme assumes every fetch goes through a *plain* or *full* access rule;
the executor decides which steps block it
(:func:`~repro.core.executor.delta_blockers`, with the causal trace
:func:`~repro.core.executor.explain_blocker`), and
``execute_incremental`` raises the
:class:`~repro.errors.IncrementalError` that names every one of them
before materializing anything.

:func:`classify_incremental` renders that same verdict *statically*,
per compiled plan, at ``prepare``/``register`` time: one INC001
diagnostic per blocker, plus INC002 when one disjunct of a union blocks
refresh of the whole union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.diagnostics import Report, diagnostic
from repro.core.executor import delta_blockers, explain_blocker
from repro.core.plans import FetchStep, Plan


@dataclass(frozen=True)
class MaintainBlocker:
    """One reason a plan cannot be refreshed incrementally: step
    ``index`` (1-based) of ``plan`` fetches through an embedded rule."""

    plan: Plan
    index: int
    step: FetchStep

    @property
    def relation(self) -> str:
        return self.step.atom.relation

    def explain(self) -> str:
        """The causal trace (:func:`~repro.core.executor.explain_blocker`)."""
        return explain_blocker(self.index, self.step)


@dataclass(frozen=True)
class IncrementalSupport:
    """The classifier's verdict for one query's plans (one per union
    disjunct): ``supported`` iff no plan carries a blocker."""

    plans: tuple[Plan, ...]
    blockers: tuple[MaintainBlocker, ...]

    @property
    def supported(self) -> bool:
        return not self.blockers

    @property
    def blocked_plans(self) -> tuple[Plan, ...]:
        return tuple({id(b.plan): b.plan for b in self.blockers}.values())

    def explain(self) -> str:
        """One line per blocker; empty string when supported."""
        return "\n".join(b.explain() for b in self.blockers)

    def report(self, *, source: str | None = None) -> Report:
        """The verdict as diagnostics: INC001 per blocker (anchored at
        the offending atom's span), and INC002 once when only *some*
        disjuncts of a union are blocked -- the supported disjuncts are
        held hostage by the blocked ones."""
        report = Report()
        for blocker in self.blockers:
            report.add(
                diagnostic(
                    "INC001",
                    f"query {blocker.plan.query} cannot be refreshed incrementally: "
                    + blocker.explain(),
                    span=blocker.step.atom.span,
                    source=source,
                )
            )
        blocked = self.blocked_plans
        if blocked and len(self.plans) > len(blocked):
            relations = ", ".join(sorted({b.relation for b in self.blockers}))
            report.add(
                diagnostic(
                    "INC002",
                    f"{len(blocked)} of {len(self.plans)} union disjuncts "
                    f"fetch through embedded rules (on {relations}), "
                    f"blocking incremental refresh of the whole union: "
                    f"the delta pipeline refreshes all disjunct counts or "
                    f"none",
                    span=self.blockers[0].step.atom.span,
                    source=source,
                )
            )
        return report


def classify_incremental(plans: Plan | Iterable[Plan]) -> IncrementalSupport:
    """Statically classify whether the Section 5 delta pipeline supports
    ``plans`` (a single plan or one per union disjunct)."""
    plans = (plans,) if isinstance(plans, Plan) else tuple(plans)
    blockers = tuple(
        MaintainBlocker(plan, index, step)
        for plan in plans
        for index, step in delta_blockers(plan)
    )
    return IncrementalSupport(plans, blockers)


__all__ = [
    "MaintainBlocker",
    "IncrementalSupport",
    "classify_incremental",
]
