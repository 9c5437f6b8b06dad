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

A query takes one of two paths.  A *plain rule* -- one line
``Q(x) :- R(x, 'NYC'), S(x, y)`` of ASCII names (no keyword or lone ``_``)
and escape-free single-quoted strings, spaced as here -- is read by regex:
one ``fullmatch``, one match per atom, one ``findall`` per term list.  Any
other text, and a plain rule the schema or the safety check rejects, takes
the token path, which words and places every error: one scan into parallel
lists -- kind, text, offset, value -- that one cursor type
(:class:`TokenStream`) walks, for this grammar and for the schema and
access DSLs (:meth:`~repro.relational.schema.DatabaseSchema.parse`,
:meth:`~repro.core.access_schema.AccessSchema.parse`), which ask it for
:class:`Token` objects, made on demand (also by error paths and
:func:`tokenize`).
"""

from __future__ import annotations

import ast as _pyast
import re

from repro.errors import ParseError
from repro.logic.ast import Atom, Equality, Span, _variable_from_name
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
        end = self.offsets[last] + max(len(self.texts[last]), 1) - 1
        return Span(*_position(self.source, self.offsets[first]), *_position(self.source, end))


def tokenize(text: str) -> tuple[Token, ...]:
    """The scan of ``text`` (:class:`TokenStream`) as objects, END token last."""
    stream = TokenStream(text)
    return tuple(map(stream.token, range(len(stream.kinds))))


# -- query parsing ---------------------------------------------------------


class _QueryParser:
    __slots__ = ("stream", "kinds", "texts", "arities", "_used_names", "_wildcards")

    def __init__(self, stream: TokenStream, schema=None):
        self.stream, self.kinds, self.texts = stream, stream.kinds, stream.texts
        self.arities = None if schema is None else schema.arities  # relation -> arity
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
        stream, kinds, texts, arities = self.stream, self.kinds, self.texts, self.arities
        start = stream.skip(IDENT, "a rule head")
        head, index = self._terms(start + 1, head=True)
        body: list[Atom] = []
        equalities: list[Equality] = []
        if kinds[index + 1] is RULE_ARROW:
            while True:  # a conjunct after the ':-' or a ','; ``index`` is its last token
                first = index + 2
                # An identifier is not the END entry, so ``first + 1`` exists.
                if kinds[first] is IDENT and kinds[first + 1] is LPAREN:
                    terms, index = self._terms(first + 1)
                    relation = texts[first]
                    atom = Atom._trusted(relation, tuple(terms), stream.span(first, index))
                    if arities is not None and arities.get(relation) != len(terms):
                        arity = arities.get(relation)
                        raise stream.error(
                            f"unknown relation {relation!r}"
                            if arity is None
                            else f"relation {relation!r} has arity {arity}, "
                            f"but the atom {atom} has arity {len(terms)}",
                            stream.token(first),
                        )
                    body.append(atom)
                else:
                    (left,), index = self._terms(first, single=True)
                    if kinds[index + 1] is not EQUALS:
                        raise stream.unexpected("expected '=' (or a relational atom)", index + 1)
                    (right,), index = self._terms(index + 2, single=True)
                    equalities.append(Equality(left, right, span=stream.span(first, index)))
                if kinds[index + 1] is not COMMA:
                    break
        stream.pos = index + 1
        try:
            return ConjunctiveQuery(head, body, equalities)
        except ValueError as exc:
            raise stream.error(str(exc), stream.token(start)) from None

    def _terms(self, index: int, head: bool = False, single: bool = False) -> tuple[list[Term], int]:
        """The terms of the parenthesised list opening at token ``index`` --
        or, if ``single``, the one term there -- and the index of the
        list's ')' (of that term): every term case, written once.  A head's
        terms must be named variables; a name's :class:`Variable` is the
        one every parse shares."""
        stream, kinds, texts = self.stream, self.kinds, self.texts
        terms: list[Term] = []
        if not single:
            if kinds[index] is not LPAREN:
                raise stream.unexpected("expected '('", index)
            index += 1
            if kinds[index] is RPAREN:
                return terms, index
        while True:
            kind, text = kinds[index], texts[index]
            if kind is VARIABLE or kind is IDENT and text != "_" and text not in _KEYWORD_CONSTANTS:
                terms.append(_variable_from_name(text))
            elif kind is not IDENT and kind is not STRING and kind is not NUMBER:
                raise stream.unexpected("expected a term", index)
            elif head:
                raise stream.unexpected("head terms must be named variables", index)
            elif kind is IDENT:
                terms.append(self._fresh_wildcard() if text == "_" else Constant(_KEYWORD_CONSTANTS[text]))
            else:
                terms.append(Constant(stream.values[index]))
            if single:
                return terms, index
            if kinds[index + 1] is not COMMA:
                break
            index += 2
        if kinds[index + 1] is not RPAREN:
            raise stream.unexpected("expected ')'", index + 1)
        return terms, index + 1


# A plain rule (module docstring); within one, each atom (the head first) and term.
_PLAIN_NAME = r"(?:\?[A-Za-z_]\w*|(?!(?:True|False|None|inf|nan|_)[,)])[A-Za-z_]\w*)"
_PLAIN_LIST = r"[A-Za-z_]\w*\((?:{0}(?:, {0})*)?\)"  # a head or an atom, each term a {0}
_PLAIN_ATOM = _PLAIN_LIST.format(rf"(?:{_PLAIN_NAME}|'[^'\\\n\r\0\ud800-\udfff]*')")
_PLAIN_RULE = re.compile(rf"{_PLAIN_LIST.format(_PLAIN_NAME)} :- {_PLAIN_ATOM}(?:, {_PLAIN_ATOM})*", re.ASCII)
_ATOMS = re.compile(r"(\w+)\(([^')]*(?:'[^']*'[^')]*)*)\)").finditer
_TERMS = re.compile(r"'([^']*)'|([^ ,]+)").findall


def _plain_rule(text: str, schema) -> ConjunctiveQuery | None:
    """``text`` as a plain rule, or None: the token parser's to read or reject."""
    if _PLAIN_RULE.fullmatch(text) is None:
        return None
    head, *atoms = _ATOMS(text)
    body = []
    for m in atoms:
        relation, terms = m[1], tuple([_variable_from_name(n) if n else Constant(s) for s, n in _TERMS(m[2])])
        if schema is not None and schema.arities.get(relation) != len(terms):
            return None
        body.append(Atom._trusted(relation, terms, Span(1, m.start() + 1, 1, m.end())))
    try:
        return ConjunctiveQuery([_variable_from_name(name) for _, name in _TERMS(head[2])], body)
    except ValueError:  # an unsafe head
        return None


def parse_query(text: str, schema=None) -> ConjunctiveQuery | UnionOfConjunctiveQueries:
    """Parse Datalog-style ``text`` into a CQ (one rule) or a UCQ (several
    rules separated by ``;`` or ``UNION``).

    With a :class:`repro.relational.schema.DatabaseSchema` as ``schema``,
    every atom is checked against it during the parse, so an unknown
    relation or a wrong arity is reported with the exact source position.
    """
    return _plain_rule(text, schema) or _QueryParser(TokenStream(text), schema).parse()


def parse_cq(text: str, schema=None) -> ConjunctiveQuery:
    """Parse ``text`` as a single conjunctive query (no union)."""
    query = parse_query(text, schema)
    if not isinstance(query, ConjunctiveQuery):
        raise ParseError(
            f"expected a single conjunctive query, got a union of "
            f"{len(query.disjuncts)} disjuncts"
        )
    return query
