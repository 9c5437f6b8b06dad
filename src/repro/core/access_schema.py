"""Access schemas (Fan, Geerts & Libkin 2014, Section 2).

An access schema declares, for each relation, which *bounded access paths*
exist: a rule ``R(X -> N, T)`` says that for any values of the attributes
``X``, at most ``N`` tuples of ``R`` match and they can be fetched in time
``T``.  These are the promises indexes and cardinality constraints make in
a real deployment, and they are the only means by which a scale-independent
plan may touch the data.

Three rule shapes are provided:

* :class:`AccessRule` -- the general form ``R(X -> N)``: given values for
  ``X``, fetch the (at most ``N``) full tuples of ``R`` that match.
* :class:`FullAccessRule` -- the special case ``X = {}``: the whole
  relation holds at most ``N`` tuples and may be read outright ("small"
  relations such as dictionaries and enumerations).
* :class:`EmbeddedAccessRule` -- ``R(X -> Y, N)``: given values for ``X``,
  at most ``N`` distinct ``Y``-projections match.  A fetch through it binds
  only ``X`` and ``Y``; the atom still needs a separate membership probe
  (or another rule) before it is fully verified.

Access schemas also have a textual form, parsed by
:func:`parse_access_schema` / :meth:`AccessSchema.parse`.  Two rule
syntaxes are accepted, separated by whitespace or optional semicolons and
optionally wrapped in ``{`` ... ``}`` (the rendering of
:meth:`AccessSchema.__str__`):

* the *attribute* form, which round-trips with each rule's ``str``:
  ``friend(pid1 -> 5000)`` (plain), ``dict({} -> 100)`` (full relation),
  ``person(pid -> name, city, 1)`` (embedded: everything after ``->``
  except the final bound is an output attribute);
* the *positional* form ``Friend: (0) -> * bound 5000``, naming 0-based
  attribute positions instead of attribute names -- ``*`` for "full
  tuples" (a plain rule) or a position list for an embedded rule, e.g.
  ``Person: (0) -> (1, 2) bound 1``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.logic.parser import (
    ARROW,
    COLON,
    COMMA,
    IDENT,
    LBRACE,
    LPAREN,
    NUMBER,
    RBRACE,
    RPAREN,
    SEMICOLON,
    STAR,
    Token,
    TokenStream,
)
from repro.relational.schema import DatabaseSchema, RelationSchema


def _attribute_tuple(attributes: Iterable[str], what: str) -> tuple[str, ...]:
    attrs = tuple(attributes)
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"duplicate {what} attributes: {attrs!r}")
    return attrs


def _check_bound(bound: object) -> int:
    # The cardinality bound N is what makes an access path usable for
    # scale independence; a rule without one would be a plain index and
    # could never certify a bounded plan, so N is mandatory.
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise SchemaError(
            f"access rule bound must be a positive integer, got {bound!r}"
        )
    return bound


class AccessRule:
    """The general access rule ``R(X -> N)``."""

    __slots__ = ("relation", "inputs", "bound", "cost")

    def __init__(
        self,
        relation: str,
        inputs: Iterable[str],
        bound: int,
        cost: float = 1.0,
    ):
        if not relation:
            raise SchemaError("access rule relation name must be non-empty")
        self.relation = relation
        self.inputs = _attribute_tuple(inputs, "input")
        self.bound = _check_bound(bound)
        self.cost = cost

    def _key(self) -> tuple:
        # No type marker: FullAccessRule is only a constructor convenience
        # for the ``X = {}`` case, so it compares equal to a plain
        # AccessRule with empty inputs (EmbeddedAccessRule stays distinct
        # through the outputs its _key appends).
        return (self.relation, self.inputs, self.bound)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AccessRule) and self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.relation!r}, {self.inputs!r}, "
            f"bound={self.bound!r})"
        )

    def __str__(self) -> str:
        inputs = ", ".join(self.inputs) or "{}"
        return f"{self.relation}({inputs} -> {self.bound})"

    def validate(self, schema: DatabaseSchema) -> None:
        """Check the rule against ``schema`` (relation and attributes
        exist)."""
        rel = schema.relation(self.relation)
        for attr in self.inputs:
            rel.position(attr)

    def bound_attributes(self, rel: RelationSchema) -> tuple[str, ...]:
        """The attributes whose values are known after a fetch through this
        rule: all of them, since full tuples are returned."""
        return rel.attributes

    @property
    def verifies_atom(self) -> bool:
        """Whether a fetch through this rule returns full tuples of ``R``
        (and hence witnesses the atom it serves)."""
        return True


class FullAccessRule(AccessRule):
    """``R({} -> N)``: the whole relation is bounded by ``N`` tuples."""

    __slots__ = ()

    def __init__(self, relation: str, bound: int, cost: float = 1.0):
        super().__init__(relation, (), bound, cost)


class EmbeddedAccessRule(AccessRule):
    """``R(X -> Y, N)``: given ``X``-values, at most ``N`` distinct
    ``Y``-projections of ``R`` match."""

    __slots__ = ("outputs",)

    def __init__(
        self,
        relation: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        bound: int,
        cost: float = 1.0,
    ):
        super().__init__(relation, inputs, bound, cost)
        self.outputs = _attribute_tuple(outputs, "output")
        if not self.outputs:
            raise SchemaError("embedded access rule needs at least one output attribute")
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise SchemaError(
                f"embedded access rule inputs and outputs overlap: {sorted(overlap)}"
            )

    def _key(self) -> tuple:
        return super()._key() + (self.outputs,)

    def __repr__(self) -> str:
        return (
            f"EmbeddedAccessRule({self.relation!r}, {self.inputs!r}, "
            f"{self.outputs!r}, bound={self.bound!r})"
        )

    def __str__(self) -> str:
        inputs = ", ".join(self.inputs) or "{}"
        outputs = ", ".join(self.outputs)
        return f"{self.relation}({inputs} -> {outputs}, {self.bound})"

    def validate(self, schema: DatabaseSchema) -> None:
        super().validate(schema)
        rel = schema.relation(self.relation)
        for attr in self.outputs:
            rel.position(attr)

    def bound_attributes(self, rel: RelationSchema) -> tuple[str, ...]:
        return self.inputs + self.outputs

    @property
    def verifies_atom(self) -> bool:
        return False


class AccessSchema:
    """A database schema together with its access rules."""

    __slots__ = ("schema", "_by_relation")

    def __init__(self, schema: DatabaseSchema, rules: Iterable[AccessRule] = ()):
        if not isinstance(schema, DatabaseSchema):
            raise SchemaError(f"{schema!r} is not a DatabaseSchema")
        self.schema = schema
        self._by_relation: dict[str, tuple[AccessRule, ...]] = {}
        for rule in rules:
            if not isinstance(rule, AccessRule):
                raise SchemaError(f"{rule!r} is not an AccessRule")
            rule.validate(schema)
            self._by_relation[rule.relation] = self._by_relation.get(
                rule.relation, ()
            ) + (rule,)

    @classmethod
    def parse(cls, schema: DatabaseSchema | str, text: str) -> "AccessSchema":
        """Parse the textual access-schema DSL (see the module docstring)
        against ``schema`` (a :class:`DatabaseSchema` or schema DSL text),
        e.g. ``AccessSchema.parse(schema, "friend(pid1 -> 5000)")``."""
        return parse_access_schema(schema, text)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AccessSchema)
            and self.schema == other.schema
            and self._by_relation == other._by_relation
        )

    def __hash__(self) -> int:
        return hash((self.schema, frozenset(self._by_relation.items())))

    def rules_for(self, relation: str) -> tuple[AccessRule, ...]:
        """The access rules declared on ``relation`` (which must exist)."""
        self.schema.relation(relation)
        return self._by_relation.get(relation, ())

    def __iter__(self) -> Iterator[AccessRule]:
        for rules in self._by_relation.values():
            yield from rules

    def __len__(self) -> int:
        return sum(len(rules) for rules in self._by_relation.values())

    def __repr__(self) -> str:
        return f"AccessSchema({list(self)!r})"

    def __str__(self) -> str:
        return "{" + "; ".join(str(rule) for rule in self) + "}"


def parse_access_schema(schema: DatabaseSchema | str, text: str) -> AccessSchema:
    """Parse access-rule DSL ``text`` against ``schema`` into an
    :class:`AccessSchema` (see the module docstring for the grammar).

    Malformed or schema-inconsistent rules raise
    :class:`repro.errors.ParseError` with the offending source position.
    """
    if isinstance(schema, str):
        schema = DatabaseSchema.parse(schema)
    stream = TokenStream(text)
    braced = stream.at(LBRACE)
    if braced:
        stream.take()
    rules: list[AccessRule] = []
    while not stream.at_end() and not (braced and stream.at(RBRACE)):
        rules.append(_parse_access_rule(stream, schema))
        if stream.at(SEMICOLON):
            stream.take()
    if braced:
        stream.expect(RBRACE)
        if not stream.at_end():
            raise stream.unexpected("expected end of input after '}'", stream.pos)
    return AccessSchema(schema, rules)


def _parse_access_rule(stream: TokenStream, schema: DatabaseSchema) -> AccessRule:
    name = stream.expect(IDENT, "a relation name")
    if name.text not in schema:
        raise stream.error(f"unknown relation {name.text!r}", name)
    rel = schema.relation(name.text)
    if stream.at(COLON):
        return _parse_positional_rule(stream, rel, name)
    return _parse_attribute_rule(stream, rel, name)


def _parse_attribute_rule(
    stream: TokenStream, rel: RelationSchema, name: Token
) -> AccessRule:
    stream.expect(LPAREN)
    inputs: list[str] = []
    if stream.at(LBRACE):  # the '{}' empty-input marker of AccessRule.__str__
        stream.take()
        stream.expect(RBRACE)
    else:
        while not stream.at(ARROW):
            inputs.append(_attribute(stream, rel).text)
            if stream.at(COMMA):
                stream.take()
            else:
                break
    stream.expect(ARROW)
    # Everything after '->' is a comma-list whose final element is the
    # numeric bound; any preceding attribute names are embedded outputs.
    outputs: list[str] = []
    while True:
        if stream.at(NUMBER):
            bound = stream.take()
            break
        outputs.append(_attribute(stream, rel).text)
        stream.expect(COMMA, "',' and then the numeric bound")
    stream.expect(RPAREN)
    return _build_rule(stream, name, rel.name, inputs, outputs, bound)


def _parse_positional_rule(
    stream: TokenStream, rel: RelationSchema, name: Token
) -> AccessRule:
    stream.expect(COLON)
    inputs = [rel.attributes[p] for p in _position_list(stream, rel)]
    stream.expect(ARROW)
    outputs: list[str] = []
    if stream.at(STAR):
        stream.take()
    else:
        positions = _position_list(stream, rel)
        if not positions:
            raise stream.error("embedded rule needs at least one output position")
        outputs = [rel.attributes[p] for p in positions]
    keyword = stream.expect(IDENT, "the keyword 'bound'")
    if keyword.text != "bound":
        raise stream.error(f"expected the keyword 'bound', got {keyword.text!r}", keyword)
    bound = stream.expect(NUMBER, "a numeric bound")
    return _build_rule(stream, name, rel.name, inputs, outputs, bound)


def _position_list(stream: TokenStream, rel: RelationSchema) -> list[int]:
    stream.expect(LPAREN)
    positions: list[int] = []
    if not stream.at(RPAREN):
        while True:
            token = stream.expect(NUMBER, "a 0-based attribute position")
            value = token.value
            if not isinstance(value, int) or not 0 <= value < rel.arity:
                raise stream.error(
                    f"position {token.text} is out of range for relation "
                    f"{rel.name!r} of arity {rel.arity}",
                    token,
                )
            positions.append(value)
            if not stream.at(COMMA):
                break
            stream.take()
    stream.expect(RPAREN)
    return positions


def _attribute(stream: TokenStream, rel: RelationSchema) -> Token:
    token = stream.expect(IDENT, "an attribute name")
    if not rel.has_attribute(token.text):
        raise stream.error(
            f"relation {rel.name!r} has no attribute {token.text!r} "
            f"(attributes: {', '.join(rel.attributes)})",
            token,
        )
    return token


def _build_rule(
    stream: TokenStream,
    name: Token,
    relation: str,
    inputs: list[str],
    outputs: list[str],
    bound: Token,
) -> AccessRule:
    # Check the bound here so the error points at the bound literal;
    # remaining SchemaErrors (duplicate/overlapping attributes) anchor at
    # the rule name below.
    try:
        _check_bound(bound.value)
    except SchemaError as exc:
        raise stream.error(str(exc), bound) from None
    try:
        if outputs:
            return EmbeddedAccessRule(relation, inputs, outputs, bound.value)
        if not inputs:
            return FullAccessRule(relation, bound.value)
        return AccessRule(relation, inputs, bound.value)
    except SchemaError as exc:
        raise stream.error(str(exc), name) from None
