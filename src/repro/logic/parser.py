"""Datalog-style concrete syntax for the paper's queries.

This module is the textual front door to :mod:`repro.logic`: one regex scan
and a recursive-descent parser for conjunctive queries and unions thereof,
in the rule syntax used throughout the literature::

    Q(x, y) :- Person(x, 'NYC'), Friend(x, y)
    Q(x) :- Employee(x, _) ; Q(x) :- Contractor(x)

* A rule is ``Head :- Body`` (``<-`` is accepted as a synonym, so the
  renderings produced by :meth:`ConjunctiveQuery.__str__` parse back).
* The body is a comma-separated list of relational atoms and equalities
  (``x = 'NYC'``).
* ``;`` separates the disjuncts of a union (the keyword ``UNION`` is
  accepted as a synonym, matching :meth:`UnionOfConjunctiveQueries.__str__`).
* Variables are bare identifiers (``x``) or ``?``-prefixed ones (``?x``);
  a lone ``_`` is a wildcard that becomes a fresh variable per occurrence.
* Constants are quoted strings (``'NYC'``, ``"O'Hare"``, with Python
  escape sequences), numbers (``42``, ``-1``, ``2.5``, ``1e-3``, ``inf``,
  ``-inf``, ``nan``) and the keywords ``True``, ``False`` and ``None``.
* ``#`` starts a comment running to the end of the line.

Every syntax error raises :class:`repro.errors.ParseError` carrying the
1-based line and column of the offending token.  Parsed atoms and
equalities additionally retain their source range as
:class:`repro.logic.ast.Span` (``Atom.span`` / ``Equality.span``;
``None`` on programmatically built ASTs), which
:mod:`repro.analysis` threads into diagnostics -- spans never
participate in equality, hashing or rendering.  Parsing is the inverse of
rendering: for every :class:`ConjunctiveQuery` ``q`` whose variable names
are identifiers and whose constants are strings, numbers, booleans or
``None``, ``parse_query(str(q)) == q``; the same holds for every such
:class:`UnionOfConjunctiveQueries` with two or more disjuncts (a
one-disjunct union renders, and hence parses back, as its single CQ).
The same text always parses to an equal query: ``nan`` and ``-nan`` (a
NaN's sign means nothing, and both render as ``nan``) parse to one float
object shared by every parse, which the identity-or-equality comparison
of :class:`~repro.logic.terms.Constant` accepts.  (A NaN constant built
elsewhere does not equal it, so the round trip above does not extend to
it.)

A text is scanned once into parallel lists -- kind, text, offset, value --
and one cursor type (:class:`TokenStream`) walks them: for this grammar,
which indexes the lists, and for the schema and access DSLs
(:meth:`~repro.relational.schema.DatabaseSchema.parse`,
:meth:`~repro.core.access_schema.AccessSchema.parse`), which ask it for
:class:`Token` objects -- made on demand, also by error paths and
:func:`tokenize`: a well-formed query costs its lexemes, not an object each.
"""

from __future__ import annotations

import ast as _pyast
import re

from repro.errors import ParseError
from repro.logic.ast import Atom, Equality, Span
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Term, Variable
from repro.logic.ucq import UnionOfConjunctiveQueries

# -- tokens ----------------------------------------------------------------

IDENT = "identifier"
VARIABLE = "variable"
STRING = "string"
NUMBER = "number"
LPAREN = "("
RPAREN = ")"
LBRACE = "{"
RBRACE = "}"
COMMA = ","
SEMICOLON = ";"
EQUALS = "="
COLON = ":"
STAR = "*"
RULE_ARROW = ":-"
ARROW = "->"
END = "end of input"

_PUNCT = {
    "(": LPAREN,
    ")": RPAREN,
    "{": LBRACE,
    "}": RBRACE,
    ",": COMMA,
    ";": SEMICOLON,
    "=": EQUALS,
    ":": COLON,
    "*": STAR,
    ":-": RULE_ARROW,
    "<-": RULE_ARROW,
    "->": ARROW,
}

# One alternative per lexeme class, tried in this order at every offset;
# whitespace and comments match without a group and are skipped.  'plain'
# strings need no unescaping; every other quoted literal goes through
# ``ast.literal_eval``.  'inf' and 'nan' are keyword constants (below), but
# their negative forms need the tokenizer's help since a lone '-' is not
# part of any other token.  'bad' catches whatever nothing else matched.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+|\#[^\n]*
    |(?P<punct>:-|<-|->|[(){},;=:*])
    |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<variable>\?[A-Za-z_][A-Za-z0-9_]*)
    |(?P<plain>'[^'\\\n\r\0\ud800-\udfff]*'|"[^"\\\n\r\0\ud800-\udfff]*")
    |(?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    |(?P<float>-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+(?:[eE][+-]?\d+)?))
    |(?P<int>-?\d+)
    |(?P<nonfinite>-(?:inf|nan)(?![A-Za-z0-9_]))
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)

# Keyword constants, rendered by ``repr`` and so by ``Constant.__str__``;
# one NaN object shared by both spellings and every parse (module docstring).
_KEYWORD_CONSTANTS = {
    "True": True,
    "False": False,
    "None": None,
    "inf": float("inf"),
    "nan": float("nan"),
}
_NEGATIVE_NONFINITE = {"-inf": float("-inf"), "-nan": _KEYWORD_CONSTANTS["nan"]}


def _position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in ``source`` (``rfind``'s
    -1 on the first line is exactly the column's 1-based correction)."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class Token:
    """One lexeme: its kind, source text, 0-based offset and (for literals)
    value; the 1-based ``line``/``column`` are derived when asked for."""

    __slots__ = ("kind", "text", "offset", "value", "_source")

    def __init__(self, kind: str, text: str, offset: int, source: str, value: object = None):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.value = value
        self._source = source

    @property
    def line(self) -> int:
        return _position(self._source, self.offset)[0]

    @property
    def column(self) -> int:
        return _position(self._source, self.offset)[1]

    def describe(self) -> str:
        if self.kind is END:
            return END
        if self.kind in (IDENT, VARIABLE, STRING, NUMBER):
            return f"{self.kind} {self.text!r}"
        return f"'{self.text}'"


class TokenStream:
    """A cursor over one scan of ``source``: the kind, source text, offset
    and value of every lexeme as four parallel lists, each ending with the
    END entry, and a position ``pos`` that never moves past it.  Scanning
    raises :class:`ParseError` on characters outside the language and on
    unterminated string literals; :meth:`token` makes a :class:`Token`."""

    __slots__ = ("source", "kinds", "texts", "offsets", "values", "pos")

    def __init__(self, source: str):
        kinds, texts, offsets, values = [], [], [], []
        self.source, self.pos = source, 0
        self.kinds, self.texts, self.offsets, self.values = kinds, texts, offsets, values
        for m in _TOKEN_RE.finditer(source):
            group = m.lastgroup
            if group is None:  # whitespace or a comment
                continue
            lexeme = m.group()
            value = None
            if group == "punct":
                kind = _PUNCT[lexeme]
            elif group == "ident":
                kind = IDENT
            elif group == "variable":
                kind = VARIABLE
            elif group == "plain":
                kind, value = STRING, lexeme[1:-1]
            elif group == "int":
                kind, value = NUMBER, int(lexeme)
            elif group == "float":
                kind, value = NUMBER, float(lexeme)
            elif group == "nonfinite":
                kind, value = NUMBER, _NEGATIVE_NONFINITE[lexeme]
            elif group == "string":
                kind = STRING
                try:
                    value = _pyast.literal_eval(lexeme)
                except (ValueError, SyntaxError):
                    raise ParseError(
                        f"malformed string literal {lexeme}", *_position(source, m.start())
                    ) from None
            else:  # 'bad': one character that starts no lexeme
                if lexeme == "?":
                    message = "expected a variable name after '?'"
                elif lexeme in "'\"":
                    message = "unterminated string literal"
                else:
                    message = f"unexpected character {lexeme!r}"
                raise ParseError(message, *_position(source, m.start()))
            kinds.append(kind)
            texts.append(lexeme)
            offsets.append(m.start())
            values.append(value)
        kinds.append(END)
        texts.append("")
        offsets.append(len(source))
        values.append(None)

    def token(self, index: int) -> Token:
        text, value = self.texts[index], self.values[index]
        return Token(self.kinds[index], text, self.offsets[index], self.source, value)

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def at_end(self) -> bool:
        return self.kinds[self.pos] is END

    def take(self) -> Token:
        return self.token(self.skip(self.kinds[self.pos]))  # whatever is there

    def skip(self, kind: str, what: str | None = None) -> int:
        """Move past a token of ``kind`` and return its index (``take`` and
        ``expect`` return the token itself)."""
        index = self.pos
        if self.kinds[index] != kind:
            if what is None:
                what = kind if kind in (IDENT, VARIABLE, STRING, NUMBER, END) else f"'{kind}'"
            raise self.unexpected(f"expected {what}", index)
        if kind is not END:
            self.pos = index + 1
        return index

    def expect(self, kind: str, what: str | None = None) -> Token:
        return self.token(self.skip(kind, what))

    def error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.token(self.pos)
        return ParseError(message, token.line, token.column)

    def unexpected(self, message: str, index: int) -> ParseError:
        """``message``, then what token ``index`` is instead, positioned there."""
        token = self.token(index)
        return self.error(f"{message}, got {token.describe()}", token)

    def span(self, first: int, last: int) -> Span:
        """The source range from token ``first``'s first character to token
        ``last``'s last (for a multi-line string literal, its closing quote)."""
        source, start = self.source, self.offsets[first]
        end = self.offsets[last] + max(len(self.texts[last]), 1) - 1
        if "\n" not in source:  # the usual case: no line to count
            return Span(1, start + 1, 1, end + 1)
        return Span(*_position(source, start), *_position(source, end))


def tokenize(text: str) -> tuple[Token, ...]:
    """The scan of ``text`` (:class:`TokenStream`) as objects, END token last."""
    stream = TokenStream(text)
    return tuple(map(stream.token, range(len(stream.kinds))))


# -- query parsing ---------------------------------------------------------


class _QueryParser:
    __slots__ = ("stream", "kinds", "texts", "schema", "_variables", "_used_names", "_wildcards")

    def __init__(self, stream: TokenStream, schema=None):
        self.stream, self.kinds, self.texts = stream, stream.kinds, stream.texts
        self.schema = schema
        self._variables: dict[str, Variable] = {}  # one object per name per parse
        self._used_names: set[str] | None = None
        self._wildcards = 0

    def _fresh_wildcard(self) -> Variable:
        # Wildcards become fresh variables named _1, _2, ...; at the first
        # one, collect every lexeme in the input (only a name can read
        # '_<n>') so a fresh name never collides with one the user wrote.
        if self._used_names is None:
            self._used_names = {text.lstrip("?") for text in self.texts}
        while True:
            self._wildcards += 1
            name = f"_{self._wildcards}"
            if name not in self._used_names:
                self._used_names.add(name)
                return Variable(name)

    def parse(self) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
        stream, kinds = self.stream, self.kinds
        disjuncts = [self._rule()]
        while kinds[stream.pos] is SEMICOLON or (
            kinds[stream.pos] is IDENT and self.texts[stream.pos] == "UNION"
        ):
            stream.pos += 1
            disjuncts.append(self._rule())
        if kinds[stream.pos] is not END:
            raise stream.unexpected("expected ';', 'UNION' or end of input", stream.pos)
        if len(disjuncts) == 1:
            return disjuncts[0]
        try:
            return UnionOfConjunctiveQueries(disjuncts)
        except ValueError as exc:
            raise stream.error(str(exc), stream.token(0)) from None

    def _rule(self) -> ConjunctiveQuery:
        stream, kinds = self.stream, self.kinds
        start = stream.skip(IDENT, "a rule head")
        stream.skip(LPAREN)
        head: list[Variable] = []
        if kinds[stream.pos] is not RPAREN:
            while True:
                index = stream.pos
                term = self._term()
                if type(term) is not Variable or self.texts[index] == "_":
                    raise stream.unexpected("head terms must be named variables", index)
                head.append(term)
                if kinds[stream.pos] is not COMMA:
                    break
                stream.pos += 1
        stream.skip(RPAREN)
        body: list[Atom] = []
        equalities: list[Equality] = []
        if kinds[stream.pos] is RULE_ARROW:
            stream.pos += 1
            self._conjunct(body, equalities)
            while kinds[stream.pos] is COMMA:
                stream.pos += 1
                self._conjunct(body, equalities)
        try:
            return ConjunctiveQuery(head, body, equalities)
        except ValueError as exc:
            raise stream.error(str(exc), stream.token(start)) from None

    def _conjunct(self, body: list[Atom], equalities: list[Equality]) -> None:
        stream, kinds = self.stream, self.kinds
        start = stream.pos
        # An identifier is not the END entry, so ``start + 1`` exists.
        if kinds[start] is not IDENT or kinds[start + 1] is not LPAREN:
            left = self._term()
            stream.skip(EQUALS, "'=' (or a relational atom)")
            end = stream.pos
            equalities.append(Equality(left, self._term(), span=stream.span(start, end)))
            return
        stream.pos = start + 2
        terms: list[Term] = []
        if kinds[stream.pos] is not RPAREN:
            terms.append(self._term())
            while kinds[stream.pos] is COMMA:
                stream.pos += 1
                terms.append(self._term())
        relation = self.texts[start]
        atom = Atom._trusted(relation, tuple(terms), stream.span(start, stream.skip(RPAREN)))
        if self.schema is not None:
            if relation not in self.schema:
                raise stream.error(f"unknown relation {relation!r}", stream.token(start))
            rel = self.schema.relation(relation)
            if atom.arity != rel.arity:
                raise stream.error(
                    f"relation {relation!r} has arity {rel.arity}, "
                    f"but the atom {atom} has arity {atom.arity}",
                    stream.token(start),
                )
        body.append(atom)

    def _term(self) -> Term:
        stream = self.stream
        index = stream.pos
        kind, text = self.kinds[index], self.texts[index]
        if kind is IDENT and text == "_":
            term: Term = self._fresh_wildcard()
        elif kind is IDENT and text in _KEYWORD_CONSTANTS:
            term = Constant(_KEYWORD_CONSTANTS[text])
        elif kind is IDENT or kind is VARIABLE:
            name = text if kind is IDENT else text[1:]
            term = self._variables.get(name)
            if term is None:
                term = self._variables[name] = Variable(name)
        elif kind is STRING or kind is NUMBER:
            term = Constant(stream.values[index])
        else:
            raise stream.unexpected("expected a term", index)
        stream.pos = index + 1
        return term


def parse_query(text: str, schema=None) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
    """Parse Datalog-style ``text`` into a CQ (one rule) or a UCQ (several
    rules separated by ``;`` or ``UNION``).

    With a :class:`repro.relational.schema.DatabaseSchema` as ``schema``,
    every atom is checked against it during the parse, so an unknown
    relation or a wrong arity is reported with the exact source position.
    """
    return _QueryParser(TokenStream(text), schema).parse()


def parse_cq(text: str, schema=None) -> ConjunctiveQuery:
    """Parse ``text`` as a single conjunctive query (no union)."""
    query = parse_query(text, schema)
    if not isinstance(query, ConjunctiveQuery):
        raise ParseError(
            f"expected a single conjunctive query, got a union of "
            f"{len(query.disjuncts)} disjuncts"
        )
    return query
