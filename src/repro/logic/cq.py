"""Conjunctive queries.

A conjunctive query ``Q(x1, ..., xk) <- A1, ..., An, e1, ..., em`` has a
head of answer variables, a body of relational atoms and an optional set of
equalities.  Logically it is ``EXISTS y. (A1 AND ... AND An AND e1 AND ...)``
where ``y`` are the body variables not in the head.

Equalities are resolved up front by a union-find pass
(:func:`resolve_equalities`) that either produces a substitution collapsing
each equivalence class to a single representative term, or detects that the
query is unsatisfiable (two distinct constants equated).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.logic.ast import And, Atom, Equality, Exists, Formula, _as_variable
from repro.logic.terms import Constant, Term, Variable

Substitution = dict[Variable, Term]


def resolve_equalities(equalities: Sequence[Equality]) -> Substitution | None:
    """Collapse ``equalities`` into a substitution, or None if inconsistent.

    Every variable mentioned in the equalities is mapped to the
    representative of its equivalence class: a constant if the class
    contains one (two *distinct* constants make the system inconsistent),
    otherwise the first variable seen in the class.
    """
    parent: dict[Term, Term] = {}

    def find(t: Term) -> Term:
        root = t
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(t, t) != t:
            parent[t], t = root, parent[t]
        return root

    for eq in equalities:
        left, right = find(eq.left), find(eq.right)
        if left == right:
            continue
        if isinstance(left, Constant) and isinstance(right, Constant):
            # Constants are typed literals, but the database matches raw
            # values (1 == 1.0): equalities are satisfiable iff the
            # underlying values agree.
            if left.value != right.value:
                return None
        # Keep constants as class representatives.
        if isinstance(right, Constant):
            left, right = right, left
        parent[right] = left

    return {
        t: find(t)
        for eq in equalities
        for t in (eq.left, eq.right)
        if isinstance(t, Variable)
    }


class ConjunctiveQuery:
    """A conjunctive query with head variables, body atoms and equalities."""

    __slots__ = ("head", "body", "equalities", "_hash")

    def __init__(
        self,
        head: Iterable[object],
        body: Iterable[Atom],
        equalities: Iterable[Equality] = (),
    ):
        self.head = tuple(_as_variable(v) for v in head)
        self.body = tuple(body)
        self.equalities = tuple(equalities)
        for atom in self.body:
            if not isinstance(atom, Atom):
                raise TypeError(f"body element {atom!r} is not an Atom")
        for eq in self.equalities:
            if not isinstance(eq, Equality):
                raise TypeError(f"{eq!r} is not an Equality")
        # Safety: every head variable's equality class must contain a
        # constant or a variable that occurs in some body atom -- a head
        # variable grounded only by other equalities has no binding source.
        subst = resolve_equalities(self.equalities) if self.equalities else {}
        if subst is not None:  # unsatisfiable queries are vacuously safe
            walk = subst.get
            bound = {walk(t, t) for a in self.body for t in a.terms if isinstance(t, Variable)}
            unsafe = [
                v
                for v in self.head
                if not isinstance(walk(v, v), Constant) and walk(v, v) not in bound
            ]
            if unsafe:
                raise ValueError(
                    f"unsafe head variables (not in body): {', '.join(map(str, unsafe))}"
                )

    @classmethod
    def _trusted(cls, head, body, equalities) -> "ConjunctiveQuery":
        """A query from tuples known to be well-typed and safe (a renaming
        or reordering of a constructed query): skips ``__init__``'s checks."""
        self = object.__new__(cls)
        self.head, self.body, self.equalities = head, body, equalities
        return self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.head == other.head
            and self.body == other.body
            and self.equalities == other.equalities
        )

    def __hash__(self) -> int:
        # Query objects key the engine's source memo, which a held query
        # probes on every execute: compute the (deep, atom-by-atom) hash
        # once.  The instance is immutable, so it can never go stale.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.head, self.body, self.equalities))
            self._hash = value
            return value

    def __repr__(self) -> str:
        return (
            f"ConjunctiveQuery({self.head!r}, {self.body!r}"
            + (f", {self.equalities!r}" if self.equalities else "")
            + ")"
        )

    def __str__(self) -> str:
        head = ", ".join(f"?{v}" for v in self.head)
        parts = [str(a) for a in self.body] + [str(e) for e in self.equalities]
        if not parts:
            # A body-less query renders without the arrow so that the
            # rendering stays parseable (see repro.logic.parser).
            return f"Q({head})"
        return f"Q({head}) <- {', '.join(parts)}"

    @property
    def arity(self) -> int:
        return len(self.head)

    def variables(self) -> tuple[Variable, ...]:
        """All variables of the query: head first, then body order."""
        return tuple(
            dict.fromkeys(
                chain(
                    self.head,
                    chain.from_iterable(a.free_variables() for a in self.body),
                    chain.from_iterable(e.free_variables() for e in self.equalities),
                )
            )
        )

    def existential_variables(self) -> tuple[Variable, ...]:
        head = set(self.head)
        return tuple(v for v in self.variables() if v not in head)

    def to_formula(self) -> Formula:
        """The query body as a first-order formula with the existential
        variables quantified."""
        conjuncts: tuple[Formula, ...] = self.body + self.equalities
        matrix: Formula = conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)
        existential = self.existential_variables()
        return Exists(existential, matrix) if existential else matrix

    def equality_substitution(self) -> Substitution | None:
        """The substitution induced by the query's equalities (see
        :func:`resolve_equalities`), or None if they are unsatisfiable."""
        return resolve_equalities(self.equalities)

    def normalized_body(self) -> tuple[Atom, ...] | None:
        """The body atoms with the equality substitution applied, or None if
        the equalities are unsatisfiable."""
        if not self.equalities:
            return self.body
        subst = self.equality_substitution()
        if subst is None:
            return None
        return tuple(a.substitute(subst) for a in self.body) if subst else self.body

    def evaluate(
        self, db, parameters: Mapping[object, object] | None = None
    ) -> tuple[tuple[object, ...], ...]:
        """All answer tuples of the query on ``db``, deduplicated and in
        first-derivation order.

        ``parameters`` optionally binds some of the query's variables to
        values before evaluation (the paper's "given ?x0, find ..." usage).
        """
        from repro.logic import evaluation

        subst = self.equality_substitution()
        if subst is None:
            return ()
        params = _normalize_parameters(parameters, self.variables())

        assignment: dict[Variable, object] = {}
        for var, value in params.items():
            rep = subst.get(var, var)
            if isinstance(rep, Constant):
                if rep.value != value:
                    return ()
            elif rep in assignment:
                if assignment[rep] != value:
                    return ()
            else:
                assignment[rep] = value

        atoms = [a.substitute(subst) for a in self.body]
        answers: dict[tuple[object, ...], None] = {}
        for asg in evaluation.join_atoms(db, atoms, assignment):
            answers.setdefault(self._project(asg, subst), None)
        return tuple(answers)

    def _project(
        self, assignment: Mapping[Variable, object], subst: Substitution
    ) -> tuple[object, ...]:
        row = []
        for var in self.head:
            rep = subst.get(var, var)
            if isinstance(rep, Constant):
                row.append(rep.value)
            elif rep in assignment:
                row.append(assignment[rep])
            else:
                raise ValueError(f"head variable ?{var} is not bound by the body")
        return tuple(row)


def _normalize_parameters(
    parameters: Mapping[object, object] | None, known: Sequence[Variable]
) -> dict[Variable, object]:
    if not parameters:
        return {}
    known_set = set(known)
    result: dict[Variable, object] = {}
    for key, value in parameters.items():
        var = _as_variable(key)
        if var not in known_set:
            raise ValueError(f"unknown parameter variable ?{var}")
        result[var] = value
    return result
