"""Relation and database schemas.

A :class:`RelationSchema` names a relation and its attributes; a
:class:`DatabaseSchema` is a collection of relation schemas.  All lookup
and validation errors raise :class:`repro.errors.SchemaError`, so that a
malformed query, tuple or access rule is rejected at the boundary instead
of producing silently wrong answers.

Schemas also have a one-declaration-per-relation textual form, parsed by
:func:`parse_schema` / :meth:`DatabaseSchema.parse`::

    Person(pid, name, city)   # '#' comments run to end of line
    Friend(pid1, pid2)

Declarations are separated by whitespace or optional semicolons, and
``str(schema)`` renders back to this form, so ``DatabaseSchema.parse``
and ``str`` are mutually inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.logic.ast import Atom
from repro.logic.parser import (
    COMMA,
    IDENT,
    LPAREN,
    RPAREN,
    SEMICOLON,
    TokenStream,
)


@dataclass(frozen=True)
class RelationSchema:
    """A relation name together with its ordered attribute names."""

    name: str
    attributes: tuple[str, ...]

    def __init__(self, name: str, attributes: Iterable[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", tuple(attributes))
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.attributes:
            raise SchemaError(f"relation {self.name!r} must have at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"relation {self.name!r} has duplicate attributes")
        for attr in self.attributes:
            if not attr:
                raise SchemaError(f"relation {self.name!r} has an empty attribute name")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self.attributes

    def position(self, attribute: str) -> int:
        """The 0-based position of ``attribute``, or a SchemaError."""
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r} "
                f"(attributes: {', '.join(self.attributes)})"
            ) from None

    def positions(self, attributes: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.position(a) for a in attributes)

    def validate_tuple(self, row: Sequence[object]) -> tuple[object, ...]:
        """Check the arity of ``row`` and that its values are hashable
        (every store indexes by value), and return it as a plain tuple."""
        row = tuple(row)
        if len(row) != len(self.attributes):
            raise SchemaError(
                f"tuple {row!r} has arity {len(row)}, "
                f"but relation {self.name!r} has arity {self.arity}"
            )
        try:
            hash(row)
        except TypeError as exc:
            raise SchemaError(f"tuple {row!r} for relation {self.name!r}: {exc}") from None
        return row

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


def parse_schema(text: str) -> "DatabaseSchema":
    """Parse a schema DSL text (see the module docstring) into a
    :class:`DatabaseSchema`.

    Malformed declarations raise :class:`repro.errors.ParseError` with the
    position of the offending token.
    """
    stream = TokenStream(text)
    relations: list[RelationSchema] = []
    seen: dict[str, RelationSchema] = {}
    while not stream.at_end():
        name = stream.expect(IDENT, "a relation name")
        if name.text in seen:
            raise stream.error(f"duplicate relation {name.text!r}", name)
        stream.expect(LPAREN)
        attributes: list[str] = []
        attribute_tokens = []
        if not stream.at(RPAREN):
            while True:
                attr = stream.expect(IDENT, "an attribute name")
                attributes.append(attr.text)
                attribute_tokens.append(attr)
                if not stream.at(COMMA):
                    break
                stream.take()
        stream.expect(RPAREN)
        if len(set(attributes)) != len(attributes):
            duplicate = next(
                t for i, t in enumerate(attribute_tokens) if t.text in attributes[:i]
            )
            raise stream.error(
                f"relation {name.text!r} repeats attribute {duplicate.text!r}", duplicate
            )
        try:
            rel = RelationSchema(name.text, attributes)
        except SchemaError as exc:
            raise stream.error(str(exc), name) from None
        seen[name.text] = rel
        relations.append(rel)
        if stream.at(SEMICOLON):
            stream.take()
    # No declarations is a valid (empty) schema: DatabaseSchema([]) is
    # constructible and renders as "", so parse and str stay inverse.
    return DatabaseSchema(relations)


class DatabaseSchema:
    """A named collection of relation schemas."""

    __slots__ = ("_relations", "arities")

    def __init__(self, relations: Iterable[RelationSchema]):
        self._relations: dict[str, RelationSchema] = {}
        for rel in relations:
            if not isinstance(rel, RelationSchema):
                raise SchemaError(f"{rel!r} is not a RelationSchema")
            if rel.name in self._relations:
                raise SchemaError(f"duplicate relation name {rel.name!r}")
            self._relations[rel.name] = rel
        #: relation name -> arity: what the query parser checks an atom against
        self.arities = {name: rel.arity for name, rel in self._relations.items()}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseSchema) and self._relations == other._relations
        )

    def __hash__(self) -> int:
        # Order-insensitive, like __eq__ (dict equality ignores order).
        return hash(frozenset(self._relations.values()))

    def __repr__(self) -> str:
        return f"DatabaseSchema({list(self._relations.values())!r})"

    def __str__(self) -> str:
        return "; ".join(str(rel) for rel in self._relations.values())

    @classmethod
    def parse(cls, text: str) -> "DatabaseSchema":
        """Parse the textual schema DSL, e.g.
        ``DatabaseSchema.parse("Person(name, city); Friend(pid1, pid2)")``."""
        return parse_schema(text)

    def relation(self, name: str) -> RelationSchema:
        """The schema of relation ``name``, or a SchemaError."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r} (known: {', '.join(self._relations) or 'none'})"
            ) from None

    def validate_atom(self, atom: Atom) -> None:
        """Check that ``atom`` refers to a known relation with the right
        arity."""
        rel = self.relation(atom.relation)
        if atom.arity != rel.arity:
            raise SchemaError(
                f"atom {atom} has arity {atom.arity}, "
                f"but relation {rel.name!r} has arity {rel.arity}"
            )

    def validate_query(self, query) -> None:
        """Validate every atom of a CQ or UCQ."""
        for disjunct in getattr(query, "disjuncts", (query,)):
            for atom in disjunct.body:
                self.validate_atom(atom)
