"""Logical query languages used in the paper: CQ, UCQ and FO.

The abstract syntax lives in :mod:`repro.logic.ast`, conjunctive queries in
:mod:`repro.logic.cq`, and evaluation with active-domain semantics in
:mod:`repro.logic.evaluation`.  Homomorphism-based reasoning (containment,
equivalence, minimisation, witnesses) is in :mod:`repro.logic.homomorphism`;
the renaming- and reordering-invariant form plans are cached by is in
:mod:`repro.logic.canonical`.
The Datalog-style concrete syntax (``Q(x) :- Person(x, 'NYC')``) is parsed
by :mod:`repro.logic.parser`.
"""

from repro.logic.terms import Constant, Term, Variable
from repro.logic.ast import And, Atom, Equality, Exists, Forall, Formula, Implies, Not, Or
from repro.logic.cq import ConjunctiveQuery
from repro.logic.ucq import UnionOfConjunctiveQueries
from repro.logic.fo import FirstOrderQuery
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
    "And",
    "Or",
    "Not",
    "Exists",
    "Forall",
    "Implies",
    "ConjunctiveQuery",
    "UnionOfConjunctiveQueries",
    "FirstOrderQuery",
]
