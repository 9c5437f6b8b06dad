"""The static cost model behind cost-based plan selection (CST codes).

:func:`estimate_plan` prices a compiled plan with the planner's own
bound arithmetic, :func:`repro.core.plans.step_costs`: walking the
left-deep steps, every fetch multiplies the open branches by its
per-branch fanout and charges that many accesses, every probe charges
one access per branch.  With no statistics the per-branch fanout is the
rule's declared bound, so the total is exactly
:attr:`~repro.core.plans.Plan.fanout_bound` (which
:attr:`~repro.core.plans.Plan.cost_estimate` names for the benchmark's
calibration; the certifier re-derives both from scratch).

:class:`CostStats` adds the profile-guided refinement, still with zero
query execution: observed per-relation cardinalities and per-position
group fanouts (collected through the backend's *unaccounted* iteration
primitives, so collection never perturbs the scale-independence
accounting) tighten each fetch's fanout to
``min(declared bound, observed max group, |R|)``.  Statistics never
*raise* an estimate -- the declared bound stays the ceiling -- so a
refined estimate is a valid lower envelope of the static one and plans
remain certified against their declared bounds.

:func:`check_selection` is the optimizer's own must-fail check: after
:class:`~repro.api.engine.Engine` picks the cheapest of {base plan,
view-augmented plan}, the chosen estimate must not exceed the best
rejected one (CST001).  Like the CRT codes, a CST001 firing means the
selection logic and an independent comparison disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.analysis.diagnostics import Report, diagnostic
from repro.core.plans import FetchStep, Plan, StepCost, step_costs
from repro.errors import CertificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.instance import Database

#: Relations larger than this are priced by cardinality only --
#: :meth:`CostStats.from_database` skips the per-position fanout
#: measurement to keep stats collection cheap on out-of-core stores.
MAX_PROFILED_ROWS = 250_000


@dataclass(frozen=True)
class CostEstimate:
    """The priced plan: its per-step costs and their sum ``total``;
    ``refined`` when observed statistics tightened some fetch below its
    rule's declared bound."""

    plan: Plan
    total: int
    steps: tuple[StepCost, ...] = ()
    refined: bool = False

    def explain(self) -> str:
        """A per-step rendering of where the cost goes."""
        lines = [f"{i}. {c.step}  [<= {c.accesses} tuples]" for i, c in enumerate(self.steps, 1)]
        lines.append(f"total cost: {self.total}" + (" (refined)" if self.refined else ""))
        return "\n".join(lines)


@dataclass(frozen=True)
class CostStats:
    """Observed database statistics for profile-guided cost refinement.

    ``relation_sizes`` maps relation name to cardinality;  ``fanouts``
    maps ``(relation, (position,))`` to the largest group of tuples
    sharing a value at that position -- the tightest data-dependent bound
    on what a single-key fetch can return.  Both are snapshots: installing
    new ones advances the engine's generation, so refreshing stats
    invalidates cached plan choices rather than silently drifting.
    """

    relation_sizes: Mapping[str, int] = field(default_factory=dict)
    fanouts: Mapping[tuple[str, tuple[int, ...]], int] = field(
        default_factory=dict
    )

    @classmethod
    def from_database(cls, db: "Database") -> "CostStats":
        """Collect statistics from ``db`` through unaccounted backend
        primitives (``count`` / ``iter_rows``): relation cardinalities
        always, per-position max group fanouts for relations up to
        :data:`MAX_PROFILED_ROWS` tuples."""
        sizes: dict[str, int] = {}
        fanouts: dict[tuple[str, tuple[int, ...]], int] = {}
        backend = db.backend
        for name in db.schema.names:
            size = backend.count(name)
            sizes[name] = size
            arity = db.schema.relation(name).arity
            if size == 0 or size > MAX_PROFILED_ROWS:
                continue
            groups: list[dict[object, int]] = [{} for _ in range(arity)]
            for row in backend.iter_rows(name):
                for position, value in enumerate(row):
                    counts = groups[position]
                    counts[value] = counts.get(value, 0) + 1
            for position, counts in enumerate(groups):
                fanouts[(name, (position,))] = max(counts.values(), default=0)
        return cls(sizes, fanouts)

    def fanout(self, relation: str, positions: tuple[int, ...]) -> int | None:
        """The observed max group size for a lookup keyed on
        ``positions`` -- the minimum over the measured single-position
        fanouts (keying on more positions only shrinks groups), falling
        back to the relation's cardinality for keyless (full) access."""
        candidates = [
            self.fanouts[(relation, (p,))]
            for p in positions
            if (relation, (p,)) in self.fanouts
        ]
        size = self.relation_sizes.get(relation)
        if size is not None:
            candidates.append(size)
        return min(candidates) if candidates else None


def estimate_plan(plan: Plan, stats: CostStats | None = None) -> CostEstimate:
    """Price ``plan`` through :func:`~repro.core.plans.step_costs`.

    Without ``stats`` the result's ``total`` equals
    :attr:`Plan.fanout_bound`.  With ``stats``, fetch fanouts against
    *base* relations are tightened by the observed figures (view
    relations keep their declared bounds: view stores are maintained to
    those bounds, not measured)."""
    if not plan.satisfiable:
        return CostEstimate(plan, 0)

    def observed(step: FetchStep) -> int:
        relation, bound = step.atom.relation, step.rule.bound
        if relation in plan.view_relations:
            return bound
        seen = stats.fanout(relation, step.input_positions)
        return bound if seen is None else min(bound, seen)

    costs = step_costs(plan.steps, fanout=None if stats is None else observed)
    total = sum(c.accesses for c in costs)
    # A fetch tightened below its bound leaves the total below the bound's.
    return CostEstimate(plan, total, costs, refined=total < plan.fanout_bound)


def certify_selection(
    chosen: CostEstimate,
    rejected: Iterable[CostEstimate],
    *,
    source: str | None = None,
) -> Report:
    """The CST001 self-check: the chosen plan's estimate must not exceed
    any rejected candidate's.  The engine runs this after every
    cost-based choice; a finding means the selection logic and this
    independent comparison disagree."""
    report = Report()
    best = min((est.total for est in rejected), default=None)
    if best is None:
        return report
    if chosen.total > best:
        kind = "view-augmented" if chosen.plan.view_relations else "base"
        report.add(
            diagnostic(
                "CST001",
                f"cost-based selection kept the {kind} plan at cost "
                f"{chosen.total} although a rejected candidate costs "
                f"{best}",
                source=source,
            )
        )
    return report


def check_selection(
    chosen: CostEstimate,
    rejected: Iterable[CostEstimate],
    *,
    source: str | None = None,
) -> CostEstimate:
    """The gating form: return ``chosen``, or raise
    :class:`CertificationError` if :func:`certify_selection` finds a
    CST001 violation."""
    report = certify_selection(chosen, rejected, source=source)
    if not report.ok():
        raise CertificationError(
            "cost-based plan selection failed its self-check:\n"
            + report.render(),
            report,
        )
    return chosen


__all__ = [
    "MAX_PROFILED_ROWS",
    "CostEstimate",
    "CostStats",
    "estimate_plan",
    "certify_selection",
    "check_selection",
]
