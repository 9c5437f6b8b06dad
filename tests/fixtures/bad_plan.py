"""Seeded bad-plan fixture for the CI must-fail gate.

Two forgeries, each fed to the certifier's gating form:

* a correct plan for the paper's Q1 with its step order reversed (the
  fetch keyed on a variable no earlier step binds);
* a correct view-assisted plan under a *projecting* view, ``V(pid) :-
  friend(pid, y)``, with the ``friend`` step deleted by hand -- the view
  row proves that ``?p`` has *some* friend, not the one the query joins
  on, so nothing entails the dropped atom.

``check_plan`` must raise :class:`~repro.errors.CertificationError` on
each.  The script exits non-zero when every forgery was rejected and 0,
naming the ones that certified clean, when the certifier has gone blind
-- CI runs it under ``!``::

    ! PYTHONPATH=src python tests/fixtures/bad_plan.py
"""

import sys

from repro import (
    AccessRule,
    AccessSchema,
    CertificationError,
    Plan,
    compile_plan,
    parse_cq,
    parse_schema,
)
from repro.analysis import check_plan
from repro.views import ViewDef, ViewSet, compile_with_views

schema = parse_schema("person(pid, name, city); friend(pid1, pid2)")
access = AccessSchema(
    schema,
    [AccessRule("friend", ["pid1"], bound=32), AccessRule("person", ["pid"], bound=1)],
)
query = parse_cq("Q(y) :- friend(p, y), person(y, n, 'NYC')", schema=schema)
good = compile_plan(query, access, ("p",))
reversed_steps = Plan(
    good.query,
    good.parameters,
    tuple(reversed(good.steps)),
    good.head_terms,
    good.satisfiable,
    good.view_relations,
)

views = ViewSet(schema)
views.register(ViewDef("V", "V(pid) :- friend(pid, y)", "V(pid -> 1)"))
query = parse_cq("Q(n) :- friend(p, y), person(p, n, c)", schema=schema)
good = check_plan(compile_with_views(query, access, views, ("p",)), access, views)
dropped_step = Plan(
    good.query,
    good.parameters,
    tuple(step for step in good.steps if step.atom.relation != "friend"),
    good.head_terms,
    good.satisfiable,
    good.view_relations,
)
assert len(dropped_step.steps) == len(good.steps) - 1 and good.view_relations == {"V"}

clean = []
for name, forged, registered in (
    ("reversed steps", reversed_steps, ()),
    ("step dropped under a projecting view", dropped_step, views),
):
    try:
        check_plan(forged, access, registered)
    except CertificationError as exc:
        found = sorted({diagnostic.code for diagnostic in exc.report})
        print(f"{name}: rejected ({', '.join(found)})")
    else:
        clean.append(name)
if clean:
    print(f"BUG: forged plan certified clean: {'; '.join(clean)}", file=sys.stderr)
    sys.exit(0)
sys.exit(1)
