"""Unions of conjunctive queries.

A UCQ is a finite union of conjunctive queries of the same arity; its
answers are the union of the answers of its disjuncts.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.logic.ast import Formula, Or
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable


def disjuncts_of(query) -> tuple[ConjunctiveQuery, ...]:
    """The disjuncts of a CQ or UCQ: a conjunctive query is a union of one."""
    return (query,) if isinstance(query, ConjunctiveQuery) else query.disjuncts


class UnionOfConjunctiveQueries:
    """A union ``Q1 UNION ... UNION Qn`` of same-arity conjunctive queries."""

    __slots__ = ("disjuncts", "_hash")

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery]):
        self.disjuncts = tuple(disjuncts)
        if not self.disjuncts:
            raise ValueError("a UCQ needs at least one disjunct")
        for q in self.disjuncts:
            if not isinstance(q, ConjunctiveQuery):
                raise TypeError(f"{q!r} is not a ConjunctiveQuery")
        arities = {q.arity for q in self.disjuncts}
        if len(arities) > 1:
            raise ValueError(f"disjuncts have different arities: {sorted(arities)}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnionOfConjunctiveQueries)
            and self.disjuncts == other.disjuncts
        )

    def __hash__(self) -> int:
        # Cached like ConjunctiveQuery.__hash__: unions key the source memo
        # too, and the disjunct tuple is immutable after construction.
        try:
            return self._hash
        except AttributeError:
            value = hash(self.disjuncts)
            self._hash = value
            return value

    def __repr__(self) -> str:
        return f"UnionOfConjunctiveQueries({self.disjuncts!r})"

    def __str__(self) -> str:
        return " UNION ".join(str(q) for q in self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def variables(self) -> tuple[Variable, ...]:
        return tuple(
            dict.fromkeys(v for q in self.disjuncts for v in q.variables())
        )

    def to_formula(self) -> Formula:
        formulas = [q.to_formula() for q in self.disjuncts]
        return formulas[0] if len(formulas) == 1 else Or(*formulas)

    def evaluate(
        self, db, parameters: Mapping[object, object] | None = None
    ) -> tuple[tuple[object, ...], ...]:
        """The union of the disjuncts' answers, deduplicated in order.

        Every parameter variable must occur in every disjunct: silently
        leaving a disjunct unconstrained would let unfiltered rows flow
        into the union, so a missing variable raises ValueError (rename
        the disjuncts' variables consistently instead).
        """
        if parameters:
            from repro.logic.ast import _as_variable

            for key in parameters:
                var = _as_variable(key)
                missing = [
                    q for q in self.disjuncts if var not in set(q.variables())
                ]
                if missing:
                    raise ValueError(
                        f"parameter ?{var} does not occur in disjunct {missing[0]}"
                    )
        answers: dict[tuple[object, ...], None] = {}
        for q in self.disjuncts:
            for row in q.evaluate(db, parameters):
                answers.setdefault(row, None)
        return tuple(answers)
