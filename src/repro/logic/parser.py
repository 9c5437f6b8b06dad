"""Datalog-style concrete syntax for the paper's queries.

This module is the textual front door to :mod:`repro.logic`: a one-pass
regex tokenizer and a recursive-descent parser for conjunctive queries and
unions thereof, in the rule syntax used throughout the literature::

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

The token stream (:func:`tokenize` / :class:`TokenStream`) is shared with
the schema DSL of :meth:`repro.relational.schema.DatabaseSchema.parse` and
the access-schema DSL of :meth:`repro.core.access_schema.AccessSchema.parse`.
"""

from __future__ import annotations

import ast as _pyast
import re
from typing import Iterable

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

# Keyword constants, rendered by ``repr`` and so by ``Constant.__str__``.
# One shared NaN object: Constant equality is identity-or-equality, so a
# NaN must be the *same* float for two parses -- or the two spellings
# 'nan' and '-nan' -- to compare equal.
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
    """One lexeme: its kind, source text, offset and (for literals) value.

    Tokens carry only their 0-based ``offset`` into the source; the 1-based
    ``line``/``column`` are derived from it on demand (error paths and
    spans), never during the scan.
    """

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


def _span(start: Token, end: Token) -> Span:
    """The source range from ``start``'s first character to ``end``'s last
    (for a multi-line string literal, its closing quote)."""
    source = start._source
    last = end.offset + max(len(end.text), 1) - 1
    return Span(*_position(source, start.offset), *_position(source, last))


def tokenize(text: str) -> tuple[Token, ...]:
    """Split ``text`` into tokens, ending with a single END token.

    Raises :class:`ParseError` on characters outside the language and on
    unterminated string literals.
    """
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group is None:  # whitespace or a comment
            continue
        lexeme = m.group()
        if group == "punct":
            append(Token(_PUNCT[lexeme], lexeme, m.start(), text))
        elif group == "ident":
            append(Token(IDENT, lexeme, m.start(), text))
        elif group == "variable":
            append(Token(VARIABLE, lexeme, m.start(), text))
        elif group == "plain":
            append(Token(STRING, lexeme, m.start(), text, lexeme[1:-1]))
        elif group == "int":
            append(Token(NUMBER, lexeme, m.start(), text, int(lexeme)))
        elif group == "float":
            append(Token(NUMBER, lexeme, m.start(), text, float(lexeme)))
        elif group == "nonfinite":
            append(Token(NUMBER, lexeme, m.start(), text, _NEGATIVE_NONFINITE[lexeme]))
        elif group == "string":
            try:
                value = _pyast.literal_eval(lexeme)
            except (ValueError, SyntaxError):
                raise ParseError(
                    f"malformed string literal {lexeme}", *_position(text, m.start())
                ) from None
            append(Token(STRING, lexeme, m.start(), text, value))
        else:  # 'bad': one character that starts no lexeme
            if lexeme == "?":
                message = "expected a variable name after '?'"
            elif lexeme in "'\"":
                message = "unterminated string literal"
            else:
                message = f"unexpected character {lexeme!r}"
            raise ParseError(message, *_position(text, m.start()))
    append(Token(END, "", len(text), text))
    return tuple(tokens)


class TokenStream:
    """A cursor over a token tuple with the usual peek/take/expect helpers.

    The tuple ends with the END token, and the cursor never moves past it.
    """

    __slots__ = ("tokens", "_pos")

    def __init__(self, tokens: Iterable[Token]):
        self.tokens = tuple(tokens)
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self._pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self._pos]

    def at(self, kind: str) -> bool:
        return self.tokens[self._pos].kind == kind

    def at_end(self) -> bool:
        return self.tokens[self._pos].kind is END

    def take(self) -> Token:
        token = self.tokens[self._pos]
        if token.kind is not END:
            self._pos += 1
        return token

    def expect(self, kind: str, what: str | None = None) -> Token:
        token = self.tokens[self._pos]
        if token.kind != kind:
            if what is None:
                what = kind if kind in (IDENT, VARIABLE, STRING, NUMBER, END) else f"'{kind}'"
            raise self.error(f"expected {what}, got {token.describe()}", token)
        return self.take()

    def error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.tokens[self._pos]
        return ParseError(message, token.line, token.column)


# -- query parsing ---------------------------------------------------------


class _QueryParser:
    def __init__(self, stream: TokenStream, schema=None):
        self.stream = stream
        self.schema = schema
        self._used_names: set[str] | None = None
        self._wildcards = 0

    def _fresh_wildcard(self) -> Variable:
        # Wildcards become fresh variables named _1, _2, ...; at the first
        # one, collect every name in the input so a fresh name never
        # collides with one the user wrote explicitly.
        if self._used_names is None:
            self._used_names = {
                t.text[1:] if t.kind is VARIABLE else t.text
                for t in self.stream.tokens
                if t.kind in (VARIABLE, IDENT)
            }
        while True:
            self._wildcards += 1
            name = f"_{self._wildcards}"
            if name not in self._used_names:
                self._used_names.add(name)
                return Variable(name)

    def parse(self) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
        stream = self.stream
        first_token = stream.peek()
        disjuncts = [self._rule()]
        while self._at_union_separator():
            stream.take()
            disjuncts.append(self._rule())
        if not stream.at_end():
            raise stream.error(
                f"expected ';', 'UNION' or end of input, got {stream.peek().describe()}"
            )
        if len(disjuncts) == 1:
            return disjuncts[0]
        try:
            return UnionOfConjunctiveQueries(disjuncts)
        except ValueError as exc:
            raise stream.error(str(exc), first_token) from None

    def _at_union_separator(self) -> bool:
        token = self.stream.peek()
        return token.kind is SEMICOLON or (token.kind is IDENT and token.text == "UNION")

    def _rule(self) -> ConjunctiveQuery:
        stream = self.stream
        start = stream.expect(IDENT, "a rule head")
        head = self._head_terms()
        body: list[Atom] = []
        equalities: list[Equality] = []
        if stream.at(RULE_ARROW):
            stream.take()
            self._conjunct(body, equalities)
            while stream.at(COMMA):
                stream.take()
                self._conjunct(body, equalities)
        try:
            return ConjunctiveQuery(head, body, equalities)
        except ValueError as exc:
            raise stream.error(str(exc), start) from None

    def _head_terms(self) -> list[Variable]:
        stream = self.stream
        stream.expect(LPAREN)
        head: list[Variable] = []
        if not stream.at(RPAREN):
            while True:
                token = stream.peek()
                term = self._term()
                if not isinstance(term, Variable) or token.text == "_":
                    raise stream.error(
                        f"head terms must be named variables, got {token.describe()}",
                        token,
                    )
                head.append(term)
                if not stream.at(COMMA):
                    break
                stream.take()
        stream.expect(RPAREN)
        return head

    def _conjunct(self, body: list[Atom], equalities: list[Equality]) -> None:
        stream = self.stream
        start = stream.peek()
        if start.kind is IDENT and stream.peek(1).kind is LPAREN:
            body.append(self._atom())
            return
        left = self._term()
        stream.expect(EQUALS, "'=' (or a relational atom)")
        end = stream.peek()
        right = self._term()
        equalities.append(Equality(left, right, span=_span(start, end)))

    def _atom(self) -> Atom:
        stream = self.stream
        name = stream.expect(IDENT, "a relation name")
        stream.expect(LPAREN)
        terms: list[Term] = []
        if not stream.at(RPAREN):
            terms.append(self._term())
            while stream.at(COMMA):
                stream.take()
                terms.append(self._term())
        rparen = stream.expect(RPAREN)
        atom = Atom(name.text, terms, span=_span(name, rparen))
        if self.schema is not None:
            if name.text not in self.schema:
                raise stream.error(f"unknown relation {name.text!r}", name)
            rel = self.schema.relation(name.text)
            if atom.arity != rel.arity:
                raise stream.error(
                    f"relation {name.text!r} has arity {rel.arity}, "
                    f"but the atom {atom} has arity {atom.arity}",
                    name,
                )
        return atom

    def _term(self) -> Term:
        stream = self.stream
        token = stream.take()
        kind, text = token.kind, token.text
        if kind is IDENT:
            if text == "_":
                return self._fresh_wildcard()
            if text in _KEYWORD_CONSTANTS:
                return Constant(_KEYWORD_CONSTANTS[text])
            return Variable(text)
        if kind is VARIABLE:
            return Variable(text[1:])
        if kind is STRING or kind is NUMBER:
            return Constant(token.value)
        raise stream.error(f"expected a term, got {token.describe()}", token)


def parse_query(text: str, schema=None) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
    """Parse Datalog-style ``text`` into a CQ (one rule) or a UCQ (several
    rules separated by ``;`` or ``UNION``).

    With a :class:`repro.relational.schema.DatabaseSchema` as ``schema``,
    every atom is checked against it during the parse, so an unknown
    relation or a wrong arity is reported with the exact source position.
    """
    return _QueryParser(TokenStream(tokenize(text)), schema).parse()


def parse_cq(text: str, schema=None) -> ConjunctiveQuery:
    """Parse ``text`` as a single conjunctive query (no union)."""
    query = parse_query(text, schema)
    if not isinstance(query, ConjunctiveQuery):
        raise ParseError(
            f"expected a single conjunctive query, got a union of "
            f"{len(query.disjuncts)} disjuncts"
        )
    return query
