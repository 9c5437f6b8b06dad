"""The query languages the engine plans and runs: CQ and UCQ.

The paper proves QSI undecidable for first-order queries (Theorem 3.1), so
its constructive results -- and this package -- stop at unions of
conjunctive queries.  Atoms and equalities live in :mod:`repro.logic.ast`,
conjunctive queries in :mod:`repro.logic.cq`, unions in
:mod:`repro.logic.ucq`, and naive evaluation (the oracle the engine is
checked against) in :mod:`repro.logic.evaluation`.  Homomorphism-based
reasoning (containment, equivalence, minimisation, witnesses) is in
:mod:`repro.logic.homomorphism`; the renaming- and reordering-invariant
form plans are cached by is in :mod:`repro.logic.canonical`.  The
Datalog-style concrete syntax (``Q(x) :- Person(x, 'NYC')``) is parsed by
:mod:`repro.logic.parser`.
"""

from repro.logic.terms import Constant, Term, Variable
from repro.logic.ast import Atom, Equality, Formula
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.logic.parser import parse_cq, parse_query

__all__ = [
    "parse_query",
    "parse_cq",
    "Term",
    "Variable",
    "Constant",
    "Formula",
    "Atom",
    "Equality",
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
]
