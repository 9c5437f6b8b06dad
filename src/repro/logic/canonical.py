"""A canonical form for conjunctive queries and unions of them.

Controllability and the bounded plan are properties of a query up to the
names of its non-parameter variables and the order of its body atoms, so
that is the granularity the Engine caches plans at.  The *canonical query*
of a query and its parameter set has the body atoms sorted by a
renaming-invariant signature, non-parameter variables renamed ``v0, v1,
...`` by first occurrence, parameters and (typed) constants kept,
equalities in written order, a union as its disjuncts' forms in written
order.  It is **sound by construction**: queries with equal canonical
queries are each a bijective renaming (fixing parameters) and an atom
reordering away from that one query, hence from each other.  It is
deliberately *incomplete*: atoms the signatures cannot separate keep their
written order, so two writings of a highly symmetric query may get two
forms -- a cache miss, never a wrong plan.

One walk over the sorted body (:func:`_walk`), a single pass over each
disjunct's terms (:func:`_encode`, which the plain-rule reader of
:mod:`repro.logic.parser` shares), has two readers.  The cache key,
:func:`canonical_key`, is the canonical query *flattened to primitives*: per
sorted atom its relation, its arity and per term a tag and a payload --
``0, type(value), value`` for a constant, ``1, name`` for a parameter,
``2, index`` for a plain variable (its first-occurrence index, which is what
its canonical name counts) -- then ``None``, the equalities' terms, ``None``,
the head's terms, and one more ``None`` after each disjunct of a union.  Read
left to right every position has one meaning (a relation announces its
arity, a tag its payload's width, the separators count the sections), so the
encoding is injective: equal keys are equal canonical queries.  The key is
that plain tuple, hashed and compared at C speed.  :func:`canonical_form`
builds the query and the way back from the same walk, where they are read.
"""

from __future__ import annotations

from typing import AbstractSet

from repro.logic.ast import Atom, Equality, _variable_from_name
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Term, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries

Query = ConjunctiveQuery | UnionOfConjunctiveQueries

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


def _walk(query: Query, parameters: AbstractSet[Variable]):
    """The parameters' names, the flat encoding of ``query`` and, per
    disjunct, its sorted body and its plain variables' first-occurrence
    table (name -> index, in that order)."""
    names = {v.name for v in parameters}
    union = not isinstance(query, ConjunctiveQuery)
    flat: list[object] = []
    tables: list[tuple[ConjunctiveQuery, tuple[Atom, ...], dict[str, int]]] = []
    for disjunct in query.disjuncts if union else (query,):
        body = disjunct.body
        if len(body) > 1:
            signatures = atom_signatures(disjunct, names)
            # Stable: atoms the signatures leave tied keep their written order.
            order = sorted(range(len(body)), key=signatures.__getitem__)
            body = tuple([body[i] for i in order])
        items: list[object] = []
        for atom in body:
            items += (atom.relation, len(atom.terms), *atom.terms)
        items.append(None)
        for equality in disjunct.equalities:
            items += (equality.left, equality.right)
        items.append(None)
        items += disjunct.head
        if union:
            items.append(None)
        index: dict[str, int] = {}
        _encode(items, names, flat, index)
        tables.append((disjunct, body, index))
    return names, flat, tables


def _encode(items: list, names: AbstractSet[str], flat: list, index: dict[str, int]) -> None:
    """Append one disjunct's sections in reading order, ``items``, to ``flat``:
    a term becomes its tag and payload (``index`` numbers plain variables),
    while a relation, an arity and a section's end (None) stand for themselves."""
    for item in items:
        kind = type(item)
        if kind is Variable:
            name = item.name
            if name in names:
                flat += (1, name)
            else:
                flat += (2, index.setdefault(name, len(index)))
        elif kind is Constant:
            value = item.value
            flat += (0, type(value), value)
        else:
            flat.append(item)


def canonical_key(query: Query, parameters: AbstractSet[Variable] = frozenset()) -> tuple:
    """The canonical query of ``query`` under ``parameters`` as a flat
    tuple: equal keys iff equal canonical queries."""
    return tuple(_walk(query, parameters)[1])


def canonical_form(
    query: Query, parameters: AbstractSet[Variable] = frozenset()
) -> tuple[Query, tuple[WayBack, ...]]:
    """The canonical query of ``query`` under ``parameters`` and, per
    disjunct, the way back to ``query``'s own variables and atoms (see the
    module docstring for what equal canonical queries mean)."""
    names, _, tables = _walk(query, parameters)
    forms, ways_back = [], []
    for disjunct, body, index in tables:
        # v0, v1, ... in first-occurrence order, never capturing a parameter
        free = [f"v{k}" for k in range(len(index) + len(names)) if f"v{k}" not in names]
        renaming = dict(zip(index, map(_variable_from_name, free)))

        def renamed(terms) -> tuple[Term, ...]:
            return tuple([renaming.get(t.name, t) if type(t) is Variable else t for t in terms])

        atoms = tuple([Atom._trusted(a.relation, renamed(a.terms)) for a in body])
        equalities = tuple([Equality(*renamed((e.left, e.right))) for e in disjunct.equalities])
        forms.append(ConjunctiveQuery._trusted(renamed(disjunct.head), atoms, equalities))
        ways_back.append((dict(zip(free, map(_variable_from_name, index))), body))
    form = forms[0] if isinstance(query, ConjunctiveQuery) else UnionOfConjunctiveQueries(forms)
    return form, tuple(ways_back)
