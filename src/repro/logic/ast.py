"""Abstract syntax for the bodies of conjunctive queries.

A CQ or UCQ body is made of relational atoms (:class:`Atom`) and
equalities (:class:`Equality`): immutable, hashable nodes that share the
:class:`Formula` base, which gives them field-wise equality, hashing and
``repr``.  Each implements this interface:

* ``free_variables`` -- the variables, in first-occurrence order, once each;
* ``substitute`` -- replacement of variables by terms (other mapped values
  are coerced with :func:`~repro.logic.terms.make_term`); and
* ``constants`` -- the constants occurring in the node.

There are no connectives or quantifiers: QSI is undecidable for
first-order queries (Fan, Geerts & Libkin 2014, Theorem 3.1), so CQ and
UCQ are the languages the engine plans and runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from repro.logic.terms import (
    Constant,
    Term,
    Variable,
    constants_of,
    make_term,
    variables_of,
)


class Span(NamedTuple):
    """A 1-based source range: where a parsed node came from.

    ``line``/``column`` address the first character and ``end_line``/
    ``end_column`` the last, so a single-token node has ``line ==
    end_line`` and ``column <= end_column``.  Spans are carried by parsed
    :class:`Atom` and :class:`Equality` nodes (``None`` on
    programmatically built ASTs) and deliberately excluded from equality
    and hashing: two atoms written at different source positions are
    still the same atom.  :mod:`repro.analysis` threads them into
    diagnostics so a finding points at real source text.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}-{self.end_line}:{self.end_column}"


def _as_variable(value: object) -> Variable:
    """Coerce ``value`` (a :class:`Variable` or a string, optionally with the
    ``?`` marker) into a :class:`Variable`."""
    if isinstance(value, Variable):
        return value
    if isinstance(value, str):
        return _variable_from_name(value)
    raise TypeError(f"cannot interpret {value!r} as a variable")


@lru_cache(maxsize=4096)
def _variable_from_name(value: str) -> Variable:
    # Parameter names recur on every execution and variable names on every
    # parse; memoize so both hot paths reuse one Variable per name.
    return Variable(value[1:] if value.startswith("?") else value)


def _render_term(term: Term) -> str:
    return f"?{term}" if isinstance(term, Variable) else str(term)


class Formula:
    """Base class of :class:`Atom` and :class:`Equality`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return (type(self).__name__,) + tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{type(self).__name__}({args})"


def _coerce_mapping(mapping: Mapping[Variable, object]) -> dict[Variable, Term]:
    return {_as_variable(k): make_term(v) for k, v in mapping.items()}


class Atom(Formula):
    """A relational atom ``R(t1, ..., tk)``.

    ``span`` optionally records where the atom was parsed from
    (:class:`Span`; ``None`` for programmatically built atoms).  It is
    not part of ``_fields``, so equality, hashing and ``repr`` are
    unaffected; :meth:`substitute` preserves it.
    """

    __slots__ = ("relation", "terms", "span", "_hash")
    _fields = ("relation", "terms")

    def __init__(
        self, relation: str, terms: Iterable[object], *, span: Span | None = None
    ):
        if not relation:
            raise ValueError("relation name must be non-empty")
        self.relation = relation
        self.terms = tuple(make_term(t) for t in terms)
        self.span = span

    @classmethod
    def _trusted(cls, relation: str, terms: tuple[Term, ...], span: Span | None = None) -> "Atom":
        """An atom over a ready tuple of terms (another atom's, renamed, or
        the parser's): skips ``__init__``'s coercion."""
        self = object.__new__(cls)
        self.relation, self.terms, self.span = relation, terms, span
        return self

    # Atoms sit inside every query that keys the source memo: compare the
    # two fields directly and hash once (an atom is immutable once built).
    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Atom
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash((self.relation, self.terms))
            return value

    @property
    def arity(self) -> int:
        return len(self.terms)

    def free_variables(self) -> tuple[Variable, ...]:
        return variables_of(self.terms)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        mapping = _coerce_mapping(mapping)
        return Atom(
            self.relation,
            [mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms],
            span=self.span,
        )

    def constants(self) -> tuple[Constant, ...]:
        return constants_of(self.terms)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(_render_term(t) for t in self.terms)})"


class Equality(Formula):
    """An equality ``t1 = t2`` between two terms.

    Like :class:`Atom`, carries an optional source :class:`Span` that does
    not participate in equality or hashing.
    """

    __slots__ = ("left", "right", "span")
    _fields = ("left", "right")

    def __init__(self, left: object, right: object, *, span: Span | None = None):
        self.left = make_term(left)
        self.right = make_term(right)
        self.span = span

    def free_variables(self) -> tuple[Variable, ...]:
        return variables_of((self.left, self.right))

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Equality":
        mapping = _coerce_mapping(mapping)
        left = mapping.get(self.left, self.left) if isinstance(self.left, Variable) else self.left
        right = (
            mapping.get(self.right, self.right) if isinstance(self.right, Variable) else self.right
        )
        return Equality(left, right, span=self.span)

    def constants(self) -> tuple[Constant, ...]:
        return constants_of((self.left, self.right))

    def __str__(self) -> str:
        return f"{_render_term(self.left)} = {_render_term(self.right)}"
