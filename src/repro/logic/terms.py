"""Terms: variables and constants.

Queries are built from *terms*.  A :class:`Variable` is a named placeholder
ranging over the active domain of a database; a :class:`Constant` wraps a
Python value (string, int, ...) appearing literally in the query.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, identified by its name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "_hash", hash(self.name))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


def _variable_hash(self: Variable) -> int:
    return self._hash


# Variables key every assignment, slot table and dedup set in the
# executor; the dataclass-generated __hash__ builds a (name,) tuple per
# call.  Hash once at construction instead (equality is unchanged, and
# hash(name) agrees with it exactly as the generated hash did).
Variable.__hash__ = _variable_hash  # type: ignore[method-assign]


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class Constant:
    """A constant value appearing in a query.

    Constants are *typed* literals: ``Constant(1)``, ``Constant(1.0)`` and
    ``Constant(True)`` are three distinct terms even though Python's value
    equality would conflate them -- otherwise ordering by (type name,
    value) could not be a total order consistent with ``==``.  Values must
    be hashable, since terms are used as dictionary keys throughout the
    package.
    """

    value: object

    def __post_init__(self) -> None:
        try:
            hash(self.value)
        except TypeError:
            raise TypeError(
                f"constant values must be hashable, got {self.value!r}"
            ) from None

    def __str__(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        # Identity-or-equality, like containers: keeps Constant(nan) equal
        # to itself even though nan != nan.
        return type(self.value) is type(other.value) and (
            self.value is other.value or self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value).__name__, self.value))

    def __lt__(self, other: "Constant") -> bool:
        # Order by (type name, value): mixed-type comparisons are decided
        # by the type name alone, so with type-sensitive equality sorting
        # is a total order.  Within a type, the native order is used only
        # for types known to be totally ordered -- mixing a partial order
        # (e.g. frozenset's subset test) with a per-pair fallback would be
        # intransitive -- and every other type orders uniformly by
        # (string rendering, identity).
        if not isinstance(other, Constant):
            return NotImplemented
        if self == other:
            return False
        lhs_type = type(self.value).__name__
        rhs_type = type(other.value).__name__
        if lhs_type != rhs_type:
            return lhs_type < rhs_type
        if (
            type(self.value) is type(other.value)
            and type(self.value) in _TOTALLY_ORDERED_TYPES
        ):
            if self.value < other.value:
                return True
            if other.value < self.value:
                return False
            # fall through: unequal yet unordered (NaN)
        lhs_str, rhs_str = str(self.value), str(other.value)
        if lhs_str != rhs_str:
            return lhs_str < rhs_str
        # Last resort for unequal values that also render identically
        # (e.g. two NaN objects): order by object identity, which keeps
        # the order total and antisymmetric within a process.
        return id(self.value) < id(other.value)


# Builtin types whose native ``<`` is a total order (modulo NaN, which the
# comparison handles separately).  Values of other types sort by their
# string rendering.
_TOTALLY_ORDERED_TYPES = frozenset({bool, int, float, str, bytes})

Term = Union[Variable, Constant]


def make_term(value: object) -> Term:
    """Coerce ``value`` into a term.

    Strings starting with ``?`` become variables named without the marker;
    :class:`Variable` and :class:`Constant` instances pass through; everything
    else becomes a :class:`Constant`.

    This is a convenience for writing queries compactly, e.g.
    ``Atom("friend", [make_term("?p"), make_term("?id")])``.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value.startswith("?"):
        name = value[1:]
        if not name:
            raise ValueError('"?" is not a valid term: variable names must be non-empty')
        return Variable(name)
    return Constant(value)


def variables_of(terms) -> tuple[Variable, ...]:
    """Return the variables occurring in ``terms``, in order, without
    duplicates."""
    return tuple(dict.fromkeys(t for t in terms if isinstance(t, Variable)))


def constants_of(terms) -> tuple[Constant, ...]:
    """Return the constants occurring in ``terms``, in order, without
    duplicates."""
    return tuple(dict.fromkeys(t for t in terms if isinstance(t, Constant)))
