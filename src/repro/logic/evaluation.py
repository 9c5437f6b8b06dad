"""Naive evaluation of conjunctive queries: the oracle the engine is
checked against.

:func:`join_atoms` is an index-aware backtracking join over a set of
relational atoms.  At every step it greedily picks the atom with the most
bound positions, so lookups go through the database's hash indexes
whenever possible.  It is the engine behind
:meth:`repro.logic.cq.ConjunctiveQuery.evaluate`.  The batched operator
pipeline (:mod:`repro.core.executor`) does not use this module;
:func:`row_matches` and the pattern / extension helpers serve only the
per-tuple reference interpreter in ``tests/reference_executor.py``.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.logic.ast import Atom
from repro.logic.terms import Constant, Variable

Assignment = dict[Variable, object]


def _term_value(term, assignment: Mapping[Variable, object]):
    """The value of ``term`` under ``assignment``, or a KeyError if it is an
    unassigned variable."""
    if isinstance(term, Constant):
        return term.value
    return assignment[term]


def _bound_pattern(atom: Atom, assignment: Mapping[Variable, object]) -> dict[int, object]:
    """The positions of ``atom`` whose value is already determined, mapped to
    that value."""
    pattern: dict[int, object] = {}
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            pattern[i] = term.value
        elif term in assignment:
            pattern[i] = assignment[term]
    return pattern


def row_matches(
    atom: Atom, row: Sequence[object], assignment: Mapping[Variable, object]
) -> bool:
    """Whether ``row`` agrees with ``atom`` at every position whose value is
    already determined (a constant, or a variable bound in ``assignment``).
    Positions held by unbound variables are unconstrained."""
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            if term.value != row[i]:
                return False
        elif term in assignment and assignment[term] != row[i]:
            return False
    return True


def _extend(atom: Atom, row: Sequence[object], assignment: Assignment) -> Assignment | None:
    """Extend ``assignment`` with the bindings ``atom`` takes from ``row``,
    or return None if a repeated variable binds inconsistently."""
    new = dict(assignment)
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            if term.value != row[i]:
                return None
        elif term in new:
            if new[term] != row[i]:
                return None
        else:
            new[term] = row[i]
    return new


def join_atoms(db, atoms: Sequence[Atom], assignment: Mapping[Variable, object] | None = None, stats=None) -> Iterator[Assignment]:
    """Yield every assignment of the atoms' variables that makes all of
    ``atoms`` hold in ``db``, extending the initial ``assignment``; each
    read is also charged to ``stats`` when given.

    Atom order is chosen greedily: the next atom evaluated is always one
    with the largest number of bound positions, so each lookup is as
    selective (and as index-friendly) as possible.
    """
    initial: Assignment = dict(assignment or {})

    def recurse(remaining: list[Atom], current: Assignment) -> Iterator[Assignment]:
        if not remaining:
            yield current
            return
        atom = max(remaining, key=lambda a: len(_bound_pattern(a, current)))
        rest = [a for a in remaining if a is not atom]
        pattern = _bound_pattern(atom, current)
        for row in db.lookup(atom.relation, pattern, stats):
            extended = _extend(atom, row, current)
            if extended is not None:
                yield from recurse(rest, extended)

    return recurse(list(atoms), initial)
