"""Homomorphism-based reasoning for conjunctive queries.

Containment of CQs is characterised by homomorphisms (Chandra & Merlin's
classic theorem): ``Q1`` is contained in ``Q2`` iff there is a homomorphism
from ``Q2`` into the canonical database of ``Q1`` mapping head to head.
This module implements the backtracking homomorphism search and the derived
notions: containment and equivalence.

:func:`body_homomorphisms` exposes the body-to-body search on its own
(no head constraint): it enumerates every way one atom list maps into
another.  That is the engine of view rewriting (:mod:`repro.views`) --
a homomorphism from a view's body into a query's body witnesses that the
view's head projection is *implied* by the query, so the corresponding
view atom may soundly be added to the query.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.logic.ast import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Term, Variable

Homomorphism = dict[Variable, Term]


def _normalized(query: ConjunctiveQuery) -> tuple[tuple[Term, ...], tuple[Atom, ...]] | None:
    """Head terms and body atoms after resolving equalities, or None if the
    query is unsatisfiable."""
    subst = query.equality_substitution()
    if subst is None:
        return None
    head = tuple(subst.get(v, v) for v in query.head)
    body = tuple(a.substitute(subst) for a in query.body)
    return head, body


def _unify(pattern: Term, target: Term, h: Homomorphism) -> Homomorphism | None:
    """Extend ``h`` so that ``pattern`` maps to ``target``, or None.

    Constants match on their underlying values (as the evaluators do),
    not on the typed-literal identity used for sorting."""
    if isinstance(pattern, Constant):
        return (
            h
            if isinstance(target, Constant) and pattern.value == target.value
            else None
        )
    bound = h.get(pattern)
    if bound is not None:
        if isinstance(bound, Constant) and isinstance(target, Constant):
            # Re-binding consistency also uses value semantics (1 == 1.0).
            return h if bound.value == target.value else None
        return h if bound == target else None
    return {**h, pattern: target}


def find_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> Homomorphism | None:
    """A homomorphism from ``source`` into ``target``: a mapping of source
    variables to target terms that sends every source atom to a target atom
    and the source head to the target head, position by position.

    Returns the mapping, or None if no homomorphism exists.
    """
    if source.arity != target.arity:
        return None
    src = _normalized(source)
    tgt = _normalized(target)
    if src is None or tgt is None:
        # An unsatisfiable source maps vacuously only if the target is also
        # unsatisfiable in the containment direction; signal "no mapping"
        # here and let the containment wrapper handle unsatisfiability.
        return None
    src_head, src_body = src
    tgt_head, tgt_body = tgt

    h: Homomorphism | None = {}
    for s, t in zip(src_head, tgt_head):
        h = _unify(s, t, h)
        if h is None:
            return None
    return next(body_homomorphisms(src_body, tgt_body, seed=h), None)


def body_homomorphisms(
    source: Sequence[Atom],
    target: Sequence[Atom],
    *,
    seed: Mapping[Variable, Term] | None = None,
) -> Iterator[Homomorphism]:
    """Every homomorphism from the atom list ``source`` into the atom list
    ``target``: each mapping sends every source atom onto some target atom
    of the same relation, position by position (constants match on their
    underlying values, as everywhere in evaluation).

    Unlike :func:`find_homomorphism` there is no head constraint and all
    solutions are enumerated lazily, deduplicated (two different
    atom-to-atom assignments can induce the same variable mapping).
    ``seed`` optionally pre-binds source variables.
    """
    by_relation: dict[str, list[Atom]] = {}
    for atom in target:
        by_relation.setdefault(atom.relation, []).append(atom)

    emitted: set[tuple[tuple[Variable, Term], ...]] = set()

    def recurse(i: int, h: Homomorphism) -> Iterator[Homomorphism]:
        if i == len(source):
            key = tuple(sorted(h.items(), key=lambda item: item[0].name))
            if key not in emitted:
                emitted.add(key)
                yield h
            return
        atom = source[i]
        for candidate in by_relation.get(atom.relation, ()):
            if candidate.arity != atom.arity:
                continue
            extended: Homomorphism | None = h
            for s, t in zip(atom.terms, candidate.terms):
                extended = _unify(s, t, extended)
                if extended is None:
                    break
            if extended is not None:
                yield from recurse(i + 1, extended)

    yield from recurse(0, dict(seed) if seed else {})


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True iff ``q1``'s answers are a subset of ``q2``'s on every database."""
    if q1.equality_substitution() is None:
        return True  # unsatisfiable query is contained in everything
    return find_homomorphism(q2, q1) is not None


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True iff the two queries have the same answers on every database."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)
