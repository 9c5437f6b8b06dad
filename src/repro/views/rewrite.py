"""View-aware plan compilation: rewriting queries over materialized views.

Section 6 of the paper makes queries scale independent that bounded
access plans over base data alone cannot: answer the query from a set of
materialized views plus boundedly many base-table accesses.  Two facts
about a registered view carry the rewriting here.

*Augmentation.*  If there is a homomorphism from a view's body into the
query's body, every query answer satisfies the view's head under that
mapping, so the corresponding view atom is *implied*: adding it changes
no answer on a database whose views are current (the Engine brings a
view up to date before every execution that reads it), and hands the
planner the view's bounded access paths.

*Replacement.*  A view atom *stands for* the view's equality-normalised
body with the head replaced by the atom's terms
(:meth:`ViewDef.stands_for`).  Unless the view is *projecting* -- its
normalised body mentions a variable its head does not -- ``V(t)`` is in
a current materialization iff ``body[head -> t]`` is in the database,
and the two mention the same variables.  So once a plan has witnessed
either side the other costs no step, and the *set of satisfying
assignments* is the one the query had: the same answers, in the same
first-derivation order, with the same derivation counts the incremental
state is made of.  A projecting view (``V(pid) :- friend(pid, y)``)
proves only that *some* friend exists, not the one the query names; its
atom stands for nothing and every base atom keeps its step.

The classic example is an inverted edge index: ``friend(x, p)`` with only
``friend(pid1 -> N)`` declared is uncontrolled given ``p``, but with
``V1(pid, follower) <- friend(follower, pid)`` registered the augmented
query fetches ``V1(p, x)`` through ``V1(pid -> K)`` -- and that *is* the
answer: ``V1(p, x)`` stands for ``friend(x, p)``, so the plan reads at
most ``K`` view rows and no base row, independent of the database size.

This is deliberately not a complete rewriting procedure (no MiniCon-style
bucket search): it finds every implied view atom via
:func:`repro.logic.homomorphism.body_homomorphisms`, tells the planner
what each stands for, and lets the ordinary planner decide which atoms
to read -- it still sees them all, so a base atom that offers the only
way in is used and the view atom it entails is the one left unread.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.access_schema import AccessSchema
from repro.core.plans import Plan, compile_plan
from repro.errors import NotControlledError
from repro.logic.ast import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.homomorphism import body_homomorphisms
from repro.logic.terms import Variable
from repro.views.definition import ViewCatalog, ViewDef, ViewSet

#: How many homomorphisms per view the rewriter considers; each distinct
#: mapping contributes at most one implied atom, and real queries admit
#: a handful at most -- the cap only guards against adversarial
#: self-join blowups.
MAX_HOMOMORPHISMS_PER_VIEW = 16


def implied_view_atoms(
    query: ConjunctiveQuery, views: Sequence[ViewDef]
) -> tuple[tuple[Atom, str], ...]:
    """Every view atom implied by ``query``: for each registered view and
    each homomorphism from the view's (equality-normalized) body into the
    query's, the view's head mapped through the homomorphism.  Returns
    ``(atom, view name)`` pairs, deduplicated, in view registration
    order."""
    subst = query.equality_substitution()
    if subst is None:
        return ()
    body = tuple(a.substitute(subst) for a in query.body)
    existing = set(body)
    found: list[tuple[Atom, str]] = []
    seen: set[Atom] = set()
    for view in views:
        vsubst = view.query.equality_substitution()
        if vsubst is None:
            continue  # an unsatisfiable view is always empty: useless
        vbody = tuple(a.substitute(vsubst) for a in view.query.body)
        vhead = tuple(vsubst.get(v, v) for v in view.query.head)
        count = 0
        for hom in body_homomorphisms(vbody, body):
            terms = tuple(
                hom.get(t, t) if isinstance(t, Variable) else t for t in vhead
            )
            atom = Atom(view.name, terms)
            if atom not in seen and atom not in existing:
                seen.add(atom)
                found.append((atom, view.name))
            count += 1
            if count >= MAX_HOMOMORPHISMS_PER_VIEW:
                break
    return tuple(found)


def rewrite_with_views(
    query: ConjunctiveQuery, views: Sequence[ViewDef]
) -> tuple[ConjunctiveQuery, dict[Atom, tuple[Atom, ...]]] | None:
    """The query augmented with every implied view atom, plus what each
    of those atoms stands for (:meth:`ViewDef.stands_for`) -- or None
    when no view maps into the query.

    The augmented query is equivalent to the original on any database
    whose materialized views are current, so answering it answers the
    original.
    """
    defs = {view.name: view for view in views}
    implied = {
        atom: defs[name].stands_for(atom)
        for atom, name in implied_view_atoms(query, views)
    }
    if not implied:
        return None
    augmented = ConjunctiveQuery(
        query.head, tuple(query.body) + tuple(implied), query.equalities
    )
    return augmented, implied


def compile_with_views(
    query: ConjunctiveQuery,
    access: AccessSchema,
    views: ViewSet | ViewCatalog,
    parameters: Iterable[object] = (),
    base_error: NotControlledError | None = None,
) -> Plan:
    """Compile ``query`` using the registered views: augment it with the
    implied view atoms and compile against the extended schema (base
    relations + one per view) and extended access schema (base rules +
    view rules), telling the planner which atoms are view atoms and what
    each stands for -- this is its only caller that does.

    ``views`` is a :class:`~repro.views.definition.ViewSet` or -- for a
    race-free read under concurrent register/drop -- the immutable
    :class:`~repro.views.definition.ViewCatalog` from ``ViewSet.snapshot()``
    (what the Engine passes).  Called when the base-only compile raised
    ``base_error``; raises :class:`~repro.errors.NotControlledError`
    again -- naming both failures -- when the views do not help either.
    """
    if isinstance(views, ViewSet):
        views = views.snapshot()
    rewritten = rewrite_with_views(query, views.definitions())
    if rewritten is None:
        detail = f" ({base_error})" if base_error is not None else ""
        raise NotControlledError(
            f"query {query} is not controlled over the base access "
            f"schema{detail}, and no registered view maps into it "
            f"(views: {', '.join(views.names()) or 'none'})"
        )
    augmented, implied = rewritten
    try:
        return compile_plan(
            augmented, views.extended_access(access), parameters, implied=implied
        )
    except NotControlledError as exc:
        names = sorted({atom.relation for atom in implied})
        raise NotControlledError(
            f"query {query} is not controlled over the base access schema, "
            f"and the registered views ({', '.join(names)}) do not "
            f"make it controlled either: {exc}"
        ) from exc
