"""A canonical form for conjunctive queries and unions of them.

Controllability and the bounded plan are properties of a query up to the
names of its non-parameter variables and the order of its body atoms, so
that is the granularity the Engine caches plans at.  :func:`canonical_form`
maps a query and its parameter set to a *canonical query*: body atoms
sorted by a renaming-invariant signature, non-parameter variables renamed
``v0, v1, ...`` by first occurrence, parameters and (typed) constants kept,
equalities in written order, a union as its disjuncts' forms in written
order.  The canonical query is itself the cache key, so the form is
**sound by construction**: queries with equal canonical queries are each a
bijective renaming (fixing parameters) and an atom reordering away from
that one query, hence from each other.  It is deliberately *incomplete*:
atoms the signatures cannot separate keep their written order, so two
writings of a highly symmetric query may get two keys -- a cache miss,
never a wrong plan.
"""

from __future__ import annotations

from typing import AbstractSet

from repro.logic.ast import Atom, Equality, _variable_from_name
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Term, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries, disjuncts_of

#: From a canonical query back to the query it was made from: canonical
#: variable name -> the variable the caller wrote, and the caller's body
#: atoms in the canonical query's order.
WayBack = tuple[dict[str, Variable], tuple[Atom, ...]]


def atom_signatures(
    query: ConjunctiveQuery, parameters: AbstractSet[str]
) -> list[tuple]:
    """One renaming-invariant signature per body atom of ``query`` (written
    order), given the parameters' *names*: the form separates the atoms --
    and is then invariant under reordering them -- iff these are distinct.

    A signature is the relation, then two entries per term: a kind tag and,
    under it, the constant (ordered by type name, then value), the
    parameter's name, or the head positions a plain variable feeds.  Only
    if that leaves ties is each plain variable further described by where
    it occurs -- sorted (signature rank, position) pairs -- and each atom
    by its rank and its terms' descriptions: one round of refinement.
    """
    heads: dict[str, tuple[int, ...]] = {}
    for position, variable in enumerate(query.head):
        heads[variable.name] = heads.get(variable.name, ()) + (position,)
    signatures = []
    for atom in query.body:
        signature: list[object] = [atom.relation]
        for term in atom.terms:
            if type(term) is Constant:
                signature += (0, term)
            elif term.name in parameters:
                signature += (1, term.name)
            else:
                signature += (2, heads.get(term.name, ()))
        signatures.append(tuple(signature))
    if len(set(signatures)) == len(signatures):
        return signatures
    rank = {s: r for r, s in enumerate(sorted(set(signatures)))}
    occurrences: dict[str, list[tuple[int, int]]] = {}
    for signature, atom in zip(signatures, query.body):
        for position, term in enumerate(atom.terms):
            if signature[2 * position + 1] == 2:
                seen = occurrences.setdefault(term.name, [])
                seen.append((rank[signature], position))
    profile = {name: tuple(sorted(seen)) for name, seen in occurrences.items()}
    return [
        (rank[s], *[profile.get(getattr(t, "name", None), ()) for t in atom.terms])
        for s, atom in zip(signatures, query.body)
    ]


def _canonical_cq(
    query: ConjunctiveQuery, parameters: AbstractSet[str]
) -> tuple[ConjunctiveQuery, WayBack]:
    body = query.body
    if len(body) > 1:
        signatures = atom_signatures(query, parameters)
        # Stable: atoms the signatures leave tied keep their written order.
        order = sorted(range(len(body)), key=signatures.__getitem__)
        body = tuple([body[i] for i in order])
    renaming: dict[str, Variable] = {}
    inverse: dict[str, Variable] = {}
    fresh = 0

    def rename(terms) -> tuple[Term, ...]:
        nonlocal fresh
        renamed = []
        for term in terms:
            if type(term) is Variable and term.name not in parameters:
                target = renaming.get(term.name)
                if target is None:
                    while f"v{fresh}" in parameters:  # never capture a parameter
                        fresh += 1
                    target = renaming[term.name] = _variable_from_name(f"v{fresh}")
                    inverse[target.name] = term
                    fresh += 1
                term = target
            renamed.append(term)
        return tuple(renamed)

    atoms = tuple([Atom._trusted(a.relation, rename(a.terms)) for a in body])
    equalities = [Equality(*rename((e.left, e.right))) for e in query.equalities]
    canonical = ConjunctiveQuery._trusted(rename(query.head), atoms, tuple(equalities))
    return canonical, (inverse, body)


def canonical_form(
    query: ConjunctiveQuery | UnionOfConjunctiveQueries,
    parameters: AbstractSet[Variable] = frozenset(),
) -> tuple[ConjunctiveQuery | UnionOfConjunctiveQueries, tuple[WayBack, ...]]:
    """The canonical query of ``query`` under ``parameters`` and, per
    disjunct, the way back to ``query``'s own variables and atoms (see the
    module docstring for what equal canonical queries mean)."""
    names = {v.name for v in parameters}
    forms = [_canonical_cq(d, names) for d in disjuncts_of(query)]
    ways_back = tuple([back for _, back in forms])
    if isinstance(query, ConjunctiveQuery):
        return forms[0][0], ways_back
    return UnionOfConjunctiveQueries([c for c, _ in forms]), ways_back
