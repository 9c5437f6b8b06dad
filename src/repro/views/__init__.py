"""Scale independence using views (Fan, Geerts & Libkin 2014, Section 6).

Some queries cannot be answered with boundedly many tuple accesses over
the base tables, whatever the parameters -- there simply is no access
rule pointing the right way.  Section 6's remedy: *materialized views*.
A query is scale independent **using views** when it can be answered
from a set of materialized views plus boundedly many base-table
accesses; the canonical example is an inverted edge index that makes
"who follows ``?p``" bounded even though only the forward direction has
a declared access rule.

The package in three pieces:

* :class:`ViewDef` / :class:`ViewSet` (:mod:`repro.views.definition`) --
  a named conjunctive query over the base schema plus the access rules
  its materialization offers, and the versioned registry the Engine's
  plan-cache keys incorporate.  Registration validates everything
  eagerly: unknown relations, name collisions and repeated head
  variables fail at ``register`` time, never at first execute.
* :class:`ViewState` -- one view's materialization: answer rows (plus a
  derivation count for each row derived more than once, so a
  non-projecting view holds its row set once), held in a private
  :class:`~repro.relational.backends.memory.MemoryBackend` (``state.store``)
  so a view is read through the same ``lookup_keys`` / ``contains_rows``
  pair as a base relation, and incremental maintenance by the plan's
  compiled :class:`~repro.core.executor.DeltaProgram` over the database's
  change-log slice past the view's (pinned) watermark -- a refresh costs
  O(changes), not O(database), and a single-atom view refreshes without
  touching stored tuples at all.  Every refresh appends the set-level
  answer change to a ledger, so incremental *query* results can consume
  view deltas exactly like base-relation slices.
* the rewriter (:mod:`repro.views.rewrite`) -- every view whose body
  maps into the query contributes an implied view atom, and the ordinary
  planner compiles the augmented query against the extended schema, told
  what each view atom *stands for* so that an atom a view proves costs
  no step.  A view step lowers to the same fetch/probe closure as a base
  step; only its read source is the view's store, not the database.

Reached through the facade::

    engine.views.register("V1", "V1(pid, follower) :- friend(follower, pid)",
                          "V1(pid -> 64)")
    engine.execute("Q(x) :- friend(x, p)", p=7)   # bounded, via V1
    engine.database.insert_many("friend", edges)  # views refresh lazily
"""

from repro.views.definition import (
    MAINTENANCE_SCAN_BOUND,
    ViewCatalog,
    ViewDef,
    ViewSet,
    ViewState,
    maintenance_access,
)
from repro.views.rewrite import (
    compile_with_views,
    implied_view_atoms,
    rewrite_with_views,
)

__all__ = [
    "ViewDef",
    "ViewSet",
    "ViewState",
    "ViewCatalog",
    "maintenance_access",
    "MAINTENANCE_SCAN_BOUND",
    "compile_with_views",
    "implied_view_atoms",
    "rewrite_with_views",
]
