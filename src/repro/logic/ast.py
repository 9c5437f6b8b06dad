"""Abstract syntax for first-order formulas over a relational vocabulary.

Formulas are immutable, hashable trees built from relational atoms,
equalities and the usual connectives and quantifiers.  Every node supports

* :meth:`Formula.free_variables` -- the free variables, in first-occurrence
  order and without duplicates;
* :meth:`Formula.substitute` -- capture-avoiding substitution of terms for
  free variables;
* :meth:`Formula.atoms` -- iteration over the relational atoms; and
* :meth:`Formula.constants` -- the constants occurring in the formula.

The operators ``&``, ``|`` and ``~`` build conjunctions, disjunctions and
negations, e.g. ``Atom("p", ["?x"]) & ~Atom("q", ["?x"])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Mapping

from repro.logic.terms import (
    Constant,
    Term,
    Variable,
    constants_of,
    make_term,
    variables_of,
)


@dataclass(frozen=True)
class Span:
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
    # Parameter names recur on every execution (the facade coerces each
    # key per call); memoize so the hot path reuses one Variable per name.
    return Variable(value[1:] if value.startswith("?") else value)


def _as_variables(value: object) -> tuple[Variable, ...]:
    if isinstance(value, (Variable, str)):
        return (_as_variable(value),)
    if isinstance(value, Iterable):
        return tuple(_as_variable(v) for v in value)
    raise TypeError(f"cannot interpret {value!r} as variables")


def _render_term(term: Term) -> str:
    return f"?{term}" if isinstance(term, Variable) else str(term)


class Formula:
    """Base class for all formula nodes."""

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

    def free_variables(self) -> tuple[Variable, ...]:
        """The free variables of the formula, in first-occurrence order."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Formula":
        """Replace free occurrences of variables according to ``mapping``.

        Mapping values may be :class:`Variable` or :class:`Constant` (other
        values are coerced with :func:`make_term`).  Substituting under a
        quantifier that binds one of the *replacement* variables raises
        :class:`ValueError` (variable capture).
        """
        raise NotImplementedError

    def atoms(self) -> Iterator["Atom"]:
        """Yield every relational atom occurring in the formula."""
        return iter(())

    def constants(self) -> tuple[Constant, ...]:
        """The constants occurring in the formula, without duplicates."""
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


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

    def atoms(self) -> Iterator["Atom"]:
        yield self

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


class _NaryConnective(Formula):
    """Shared implementation for ``And`` and ``Or``."""

    __slots__ = ("operands",)
    _fields = ("operands",)
    _symbol = "?"

    def __init__(self, *operands: Formula):
        if not operands:
            raise ValueError(f"{type(self).__name__} needs at least one operand")
        for op in operands:
            if not isinstance(op, Formula):
                raise TypeError(f"{op!r} is not a Formula")
        self.operands = tuple(operands)

    def free_variables(self) -> tuple[Variable, ...]:
        return tuple(dict.fromkeys(chain.from_iterable(op.free_variables() for op in self.operands)))

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Formula":
        return type(self)(*(op.substitute(mapping) for op in self.operands))

    def atoms(self) -> Iterator[Atom]:
        for op in self.operands:
            yield from op.atoms()

    def constants(self) -> tuple[Constant, ...]:
        return tuple(dict.fromkeys(chain.from_iterable(op.constants() for op in self.operands)))

    def __str__(self) -> str:
        return "(" + f" {self._symbol} ".join(str(op) for op in self.operands) + ")"


class And(_NaryConnective):
    """Conjunction of one or more formulas."""

    __slots__ = ()
    _symbol = "AND"


class Or(_NaryConnective):
    """Disjunction of one or more formulas."""

    __slots__ = ()
    _symbol = "OR"


class Not(Formula):
    """Negation."""

    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Formula):
        if not isinstance(operand, Formula):
            raise TypeError(f"{operand!r} is not a Formula")
        self.operand = operand

    def free_variables(self) -> tuple[Variable, ...]:
        return self.operand.free_variables()

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Not":
        return Not(self.operand.substitute(mapping))

    def atoms(self) -> Iterator[Atom]:
        yield from self.operand.atoms()

    def constants(self) -> tuple[Constant, ...]:
        return self.operand.constants()

    def __str__(self) -> str:
        return f"NOT {self.operand}"


class Implies(Formula):
    """Implication ``antecedent -> consequent``."""

    __slots__ = ("antecedent", "consequent")
    _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        for op in (antecedent, consequent):
            if not isinstance(op, Formula):
                raise TypeError(f"{op!r} is not a Formula")
        self.antecedent = antecedent
        self.consequent = consequent

    def free_variables(self) -> tuple[Variable, ...]:
        return tuple(
            dict.fromkeys(
                chain(self.antecedent.free_variables(), self.consequent.free_variables())
            )
        )

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Implies":
        return Implies(self.antecedent.substitute(mapping), self.consequent.substitute(mapping))

    def atoms(self) -> Iterator[Atom]:
        yield from self.antecedent.atoms()
        yield from self.consequent.atoms()

    def constants(self) -> tuple[Constant, ...]:
        return tuple(dict.fromkeys(chain(self.antecedent.constants(), self.consequent.constants())))

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


class _Quantifier(Formula):
    """Shared implementation for ``Exists`` and ``Forall``."""

    __slots__ = ("variables", "body")
    _fields = ("variables", "body")
    _symbol = "?"

    def __init__(self, variables: object, body: Formula):
        if not isinstance(body, Formula):
            raise TypeError(f"{body!r} is not a Formula")
        self.variables = _as_variables(variables)
        if not self.variables:
            raise ValueError(f"{type(self).__name__} needs at least one variable")
        self.body = body

    def free_variables(self) -> tuple[Variable, ...]:
        bound = set(self.variables)
        return tuple(v for v in self.body.free_variables() if v not in bound)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Formula":
        mapping = _coerce_mapping(mapping)
        bound = set(self.variables)
        inner = {k: v for k, v in mapping.items() if k not in bound}
        free = set(self.free_variables())
        for k, v in inner.items():
            if k in free and isinstance(v, Variable) and v in bound:
                raise ValueError(
                    f"substituting {v!r} for {k!r} would be captured by {type(self).__name__}"
                )
        if not inner:
            return self
        return type(self)(self.variables, self.body.substitute(inner))

    def atoms(self) -> Iterator[Atom]:
        yield from self.body.atoms()

    def constants(self) -> tuple[Constant, ...]:
        return self.body.constants()

    def __str__(self) -> str:
        vs = ", ".join(f"?{v}" for v in self.variables)
        return f"{self._symbol} {vs}. {self.body}"


class Exists(_Quantifier):
    """Existential quantification ``EXISTS x1, ..., xk . body``."""

    __slots__ = ()
    _symbol = "EXISTS"


class Forall(_Quantifier):
    """Universal quantification ``FORALL x1, ..., xk . body``."""

    __slots__ = ()
    _symbol = "FORALL"
