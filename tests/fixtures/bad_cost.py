"""Seeded bad-cost fixture for the CI must-fail gate.

Builds a correct plan for the paper's Q1, forges its cost annotation
(``cost_estimate``, the name of ``fanout_bound`` that the benchmark's
cost calibration reads, claims 1 -- far below what the step arithmetic
re-derives) and feeds it to the certifier's gating form.
``check_plan`` must raise :class:`~repro.errors.CertificationError`
with a CST002 finding, so this script exiting 0 means the cost model's
cross-check has gone blind -- CI runs it under ``!``::

    ! PYTHONPATH=src python tests/fixtures/bad_cost.py
"""

import sys

from repro import AccessRule, AccessSchema, Plan, compile_plan, parse_cq, parse_schema
from repro.analysis import check_plan

schema = parse_schema("person(pid, name, city); friend(pid1, pid2)")
access = AccessSchema(
    schema,
    [AccessRule("friend", ["pid1"], bound=32), AccessRule("person", ["pid"], bound=1)],
)
query = parse_cq("Q(y) :- friend(p, y), person(y, n, 'NYC')", schema=schema)
good = compile_plan(query, access, ("p",))


class CheapPlan(Plan):
    """A plan whose cost estimate claims 1 regardless of its steps."""

    @property
    def cost_estimate(self) -> int:
        return 1


forged = CheapPlan(
    good.query,
    good.parameters,
    good.steps,
    good.head_terms,
    good.satisfiable,
    good.view_relations,
)

check_plan(forged, access)  # must raise CertificationError (exit != 0)
print("BUG: the forged cost annotation certified clean", file=sys.stderr)
sys.exit(0)
