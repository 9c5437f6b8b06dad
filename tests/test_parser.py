"""The Datalog-style parser: queries, schemas, access rules, round-trips."""

import ast as pyast
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutation import mutate
from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Constant,
    DatabaseSchema,
    EmbeddedAccessRule,
    Equality,
    FullAccessRule,
    ParseError,
    RelationSchema,
    ReproError,
    UnionOfConjunctiveQueries,
    Variable,
    parse_access_schema,
    parse_cq,
    parse_query,
    parse_schema,
)
from repro.logic import parser
from repro.logic.ast import Span
from repro.logic.parser import tokenize


# -- queries ---------------------------------------------------------------


def test_parse_simple_cq():
    q = parse_query("Q(x, y) :- Person(x, 'NYC'), Friend(x, y)")
    assert q == ConjunctiveQuery(
        ["x", "y"],
        [Atom("Person", ["?x", "NYC"]), Atom("Friend", ["?x", "?y"])],
    )


def test_question_mark_and_bare_variables_are_the_same():
    assert parse_query("Q(?x) :- R(?x)") == parse_query("Q(x) :- R(x)")


def test_both_rule_arrows_accepted():
    assert parse_query("Q(x) :- R(x)") == parse_query("Q(x) <- R(x)")


def test_constant_literals():
    q = parse_cq("Q(x) :- R(x, 42, -1, 2.5, 1e-3, 'a', \"it's\", True, False, None)")
    values = [t.value for t in q.body[0].terms[1:]]
    assert values == [42, -1, 2.5, 1e-3, "a", "it's", True, False, None]
    assert all(type(v) is int for v in values[:2])
    assert all(type(v) is float for v in values[2:4])


def test_nonfinite_float_literals():
    q = parse_cq("Q(x) :- R(x, inf, -inf, nan)")
    pos_inf, neg_inf, nan = (t.value for t in q.body[0].terms[1:])
    assert pos_inf == float("inf") and neg_inf == float("-inf")
    assert nan != nan  # a genuine NaN
    finite = parse_cq("Q(x) :- R(x, inf)")
    assert parse_query(str(finite)) == finite


def test_string_escapes():
    q = parse_cq(r"Q(x) :- R(x, 'line\nbreak', '\'quoted\'')")
    assert q.body[0].terms[1].value == "line\nbreak"
    assert q.body[0].terms[2].value == "'quoted'"


def test_leading_zero_integers():
    q = parse_cq("Q(x) :- R(x, 007)")
    assert q.body[0].terms[1].value == 7


def test_string_line_continuation_keeps_positions():
    # The literal spans two source lines; the error after it must be
    # reported on the real (third) line.
    err = error_of("Q(x) :- R(x, 'a\\\n b'),\n @")
    assert "unexpected character '@'" in str(err)
    assert (err.line, err.column) == (3, 2)


def test_equalities():
    q = parse_cq("Q(x) :- R(x, y), y = 'NYC', x = z")
    assert q.equalities == (Equality("?y", "NYC"), Equality("?x", "?z"))


def test_wildcards_are_distinct_fresh_variables():
    q = parse_cq("Q(x) :- R(x, _, _)")
    _, w1, w2 = q.body[0].terms
    assert w1 != w2
    assert w1 not in q.head and w2 not in q.head


def test_wildcards_do_not_collide_with_user_variables():
    q = parse_cq("Q(_1) :- R(_1, _)")
    wildcard = q.body[0].terms[1]
    assert wildcard.name != "_1"


def test_empty_body_and_head():
    q = parse_query("Q()")
    assert q == ConjunctiveQuery([], [])
    assert str(q) == "Q()"


def test_union_with_semicolon_and_keyword():
    by_semi = parse_query("Q(x) :- A(x) ; Q(x) :- B(x)")
    by_kw = parse_query("Q(x) :- A(x) UNION Q(x) :- B(x)")
    assert isinstance(by_semi, UnionOfConjunctiveQueries)
    assert by_semi == by_kw
    assert len(by_semi.disjuncts) == 2


def test_single_rule_parses_to_plain_cq():
    assert isinstance(parse_query("Q(x) :- R(x)"), ConjunctiveQuery)


def test_parse_cq_rejects_unions():
    with pytest.raises(ParseError, match="union"):
        parse_cq("Q(x) :- A(x) ; Q(x) :- B(x)")


def test_comments_are_skipped():
    q = parse_query("Q(x) :- # the head\n  R(x)  # the body")
    assert q == parse_query("Q(x) :- R(x)")


# -- error reporting -------------------------------------------------------


def error_of(text, schema=None):
    with pytest.raises(ParseError) as excinfo:
        parse_query(text, schema)
    return excinfo.value


def test_unbalanced_parens_report_position():
    err = error_of("Q(x) :- R(x")
    assert "expected ')'" in str(err)
    assert (err.line, err.column) == (1, 12)


def test_error_position_counts_lines():
    err = error_of("Q(x) :-\n  R(x,, y)")
    assert (err.line, err.column) == (2, 7)
    assert "line 2, column 7" in str(err)


def test_unterminated_string():
    err = error_of("Q(x) :- R(x, 'oops)")
    assert "unterminated string" in str(err)
    assert err.column == 14


def test_bare_question_mark():
    assert "variable name after '?'" in str(error_of("Q(?) :- R(?)"))


def test_constant_in_head_rejected():
    err = error_of("Q(x, 'NYC') :- R(x)")
    assert "head terms must be named variables" in str(err)
    assert err.column == 6


def test_wildcard_in_head_rejected():
    assert "head terms must be named variables" in str(error_of("Q(_) :- R(_)"))


def test_unsafe_head_variable_reported_at_rule():
    err = error_of("Q(x) :- R(y)")
    assert "unsafe head variables" in str(err)
    assert (err.line, err.column) == (1, 1)


def test_mixed_arity_union_rejected():
    err = error_of("Q(x) :- A(x) ; Q(x, y) :- B(x, y)")
    assert "different arities" in str(err)


def test_trailing_garbage_rejected():
    assert "expected ';', 'UNION' or end of input" in str(error_of("Q(x) :- R(x) extra"))


def test_unexpected_character():
    err = error_of("Q(x) :- R(x) @")
    assert "unexpected character '@'" in str(err)


def test_unknown_relation_with_schema(social_schema):
    err = error_of("Q(x) :- nope(x)", social_schema)
    assert "unknown relation 'nope'" in str(err)
    assert err.column == 9


def test_wrong_arity_with_schema(social_schema):
    err = error_of("Q(x) :- person(x)", social_schema)
    assert "arity 3" in str(err) and "arity 1" in str(err)
    assert err.column == 9


def test_parse_error_is_a_repro_error():
    assert issubclass(ParseError, ReproError)


def test_parse_error_renders_partial_positions():
    assert str(ParseError("bad", 3, 7)) == "bad (line 3, column 7)"
    assert str(ParseError("bad", 3)) == "bad (line 3)"
    assert str(ParseError("bad")) == "bad"


# -- round-trips -----------------------------------------------------------

ROUND_TRIP_FIXTURES = [
    ConjunctiveQuery(["x"], [Atom("R", ["?x"])]),
    ConjunctiveQuery(
        ["x", "y"],
        [Atom("person", ["?x", "?n", "NYC"]), Atom("friend", ["?x", "?y"])],
    ),
    ConjunctiveQuery(
        ["x"],
        [Atom("R", ["?x", "?y"])],
        [Equality("?y", "NYC"), Equality("?x", "?z")],
    ),
    ConjunctiveQuery(["x"], [Atom("R", ["?x", 42, -1, 2.5, True, False, None])]),
    ConjunctiveQuery(["x"], [Atom("R", ["?x", "it's", 'she said "hi"'])]),
    ConjunctiveQuery([], [Atom("R", [1])]),
    ConjunctiveQuery([], []),
    UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery(["x"], [Atom("A", ["?x"])]),
            ConjunctiveQuery(["x"], [Atom("B", ["?x", "?y"])]),
        ]
    ),
    UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery(["x"], [Atom("A", ["?x"])], [Equality("?x", 1)]),
            ConjunctiveQuery(["x"], [Atom("B", ["?x"])]),
            ConjunctiveQuery(["x"], [Atom("C", ["?x", "c"])]),
        ]
    ),
]


@pytest.mark.parametrize("query", ROUND_TRIP_FIXTURES, ids=str)
def test_round_trip(query):
    assert parse_query(str(query)) == query


@pytest.mark.parametrize(
    "text",
    [
        "Q(x) :- R(x, _), S(_, x)",
        "Q(x) :- A(x) ; Q(x) :- B(x), x = 'v'",
        "Q(x, y) :- friend(x, y), person(y, n, 'NYC')",
    ],
)
def test_round_trip_from_text(text):
    parsed = parse_query(text)
    assert parse_query(str(parsed)) == parsed


# -- schema DSL ------------------------------------------------------------


def test_parse_schema_basic():
    schema = parse_schema("Person(pid, name, city); Friend(pid1, pid2)")
    assert schema == DatabaseSchema(
        [
            RelationSchema("Person", ["pid", "name", "city"]),
            RelationSchema("Friend", ["pid1", "pid2"]),
        ]
    )


def test_parse_schema_newlines_and_comments():
    schema = DatabaseSchema.parse(
        """
        # the running example
        Person(pid, name, city)
        Friend(pid1, pid2)
        """
    )
    assert schema.names == ("Person", "Friend")


def test_schema_round_trip(social_schema):
    assert parse_schema(str(social_schema)) == social_schema


def test_parse_schema_duplicate_relation():
    with pytest.raises(ParseError, match="duplicate relation 'R'"):
        parse_schema("R(a); R(b)")


def test_parse_schema_duplicate_attribute():
    with pytest.raises(ParseError, match="repeats attribute 'a'") as excinfo:
        parse_schema("R(a, b, a)")
    assert excinfo.value.column == 9


def test_parse_schema_empty_round_trip():
    empty = DatabaseSchema([])
    assert parse_schema(str(empty)) == empty
    assert parse_schema("  # nothing here\n") == empty


def test_parse_schema_malformed():
    with pytest.raises(ParseError, match="expected an attribute name"):
        parse_schema("R(a, 3)")


# -- access-schema DSL -----------------------------------------------------


def test_parse_access_attribute_forms(social_schema):
    access = AccessSchema.parse(
        social_schema,
        "friend(pid1 -> 5000); person(pid -> 1); person(city -> pid, 20)",
    )
    assert list(access) == [
        AccessRule("friend", ["pid1"], 5000),
        AccessRule("person", ["pid"], 1),
        EmbeddedAccessRule("person", ["city"], ["pid"], 20),
    ]


def test_parse_access_full_relation_form():
    schema = parse_schema("dict(word)")
    access = parse_access_schema(schema, "dict({} -> 100)")
    assert list(access) == [FullAccessRule("dict", 100)]


def test_parse_access_positional_form(social_schema):
    access = parse_access_schema(
        social_schema,
        "friend: (0) -> * bound 5000\nperson: (2) -> (0) bound 20\nperson: () -> * bound 9",
    )
    assert list(access) == [
        AccessRule("friend", ["pid1"], 5000),
        EmbeddedAccessRule("person", ["city"], ["pid"], 20),
        FullAccessRule("person", 9),
    ]


def test_parse_access_from_schema_text():
    access = parse_access_schema("R(a, b)", "R(a -> 7)")
    assert list(access) == [AccessRule("R", ["a"], 7)]


def test_access_schema_round_trip(social_access, social_schema):
    assert AccessSchema.parse(social_schema, str(social_access)) == social_access


def test_empty_input_access_rule_round_trip(social_schema):
    # A plain AccessRule with no inputs renders exactly like the
    # FullAccessRule it is equivalent to; the two compare equal, so the
    # schema-level round-trip holds for either spelling.
    access = AccessSchema(social_schema, [AccessRule("person", [], 9)])
    assert AccessRule("person", [], 9) == FullAccessRule("person", 9)
    assert AccessSchema.parse(social_schema, str(access)) == access


def test_empty_access_schema_round_trip(social_schema):
    empty = AccessSchema(social_schema, ())
    assert AccessSchema.parse(social_schema, str(empty)) == empty


@pytest.mark.parametrize(
    "text, match",
    [
        ("nope(a -> 1)", "unknown relation 'nope'"),
        ("person(zip -> 1)", "no attribute 'zip'"),
        ("friend(pid1 -> 0)", "positive integer"),
        ("friend(pid1 -> 2.5)", "positive integer"),
        ("friend: (7) -> * bound 5", "out of range"),
        ("friend: (0) -> * limit 5", "keyword 'bound'"),
        ("friend: (0) -> () bound 5", "at least one output position"),
        ("friend(pid1 -> 5", "expected"),
        ("person(pid -> pid, 3)", "overlap"),
    ],
)
def test_access_schema_errors(social_schema, text, match):
    with pytest.raises(ParseError, match=match):
        parse_access_schema(social_schema, text)


def test_access_error_positions(social_schema):
    with pytest.raises(ParseError) as excinfo:
        parse_access_schema(social_schema, "person(pid -> 1)\nperson(zip -> 1)")
    assert (excinfo.value.line, excinfo.value.column) == (2, 8)


def test_access_bad_bound_anchored_at_bound_token(social_schema):
    with pytest.raises(ParseError) as excinfo:
        parse_access_schema(social_schema, "friend(pid1 -> 2.5)")
    assert (excinfo.value.line, excinfo.value.column) == (1, 16)


# -- tokenizer details -----------------------------------------------------


def test_tokenize_positions():
    tokens = tokenize("Q(x)\n  :- R(x)")
    kinds = [(t.text, t.line, t.column) for t in tokens]
    assert kinds == [
        ("Q", 1, 1),
        ("(", 1, 2),
        ("x", 1, 3),
        (")", 1, 4),
        (":-", 2, 3),
        ("R", 2, 6),
        ("(", 2, 7),
        ("x", 2, 8),
        (")", 2, 9),
        ("", 2, 10),
    ]


POOL_SHAPE = "Q(y1) :- person(y1, n1, 'LA'), friend(p, y1)"


def test_a_well_formed_query_makes_no_token_object(monkeypatch, social_schema):
    made = []
    real = parser.Token.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(parser.Token, "__init__", spy)
    query = parse_query(POOL_SHAPE, schema=social_schema)
    assert str(query) == "Q(?y1) <- person(?y1, ?n1, 'LA'), friend(?p, ?y1)"
    assert [str(a.span) for a in query.body] == ["1:10-1:29", "1:32-1:44"]
    assert parse_query(POOL_SHAPE.replace(" :- ", "\n  :- ")).body[1].span == Span(2, 28, 2, 40)
    assert made == []
    # ... while an error is still placed exactly, on one line and on several.
    for text, line, column in (
        (POOL_SHAPE[:-1], 1, 44),
        (POOL_SHAPE.replace(", friend", ",\n  friend")[:-3] + " )", 2, 14),
        (POOL_SHAPE.replace("person", "nobody"), 1, 10),
    ):
        with pytest.raises(ParseError) as excinfo:
            parse_query(text, schema=social_schema)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert made  # the error paths are where tokens come from


@pytest.mark.parametrize(
    "text",
    [POOL_SHAPE, "Q(?x) <-\n R(x, 'a\\\nb', -2.5e3, inf) # done\n ; Q(x) :- S(x, \"q\", 7), x = None"],
)
def test_tokenize_is_the_scan_as_objects(text):
    stream = parser.TokenStream(text)
    assert stream.kinds[-1] is parser.END and len(stream.kinds) > 10
    where = positions_of(text)
    assert [(t.kind, t.text, t.offset, t.line, t.column, t.value) for t in tokenize(text)] == [
        (kind, lexeme, offset, *where[offset], value)
        for kind, lexeme, offset, value in zip(
            stream.kinds, stream.texts, stream.offsets, stream.values, strict=True
        )
    ]


# -- the same text always parses to an equal query -------------------------


@pytest.mark.parametrize("spelling", ["nan", "-nan"])
def test_nan_spellings_parse_to_equal_queries(spelling):
    text = f"Q(x) :- R(x, {spelling})"
    first, second = parse_query(text), parse_query(text)
    assert first == second and hash(first) == hash(second)
    value = first.body[0].terms[1].value
    assert value != value  # still a genuine NaN


# -- every ParseError site, with its exact message and position ------------

SOCIAL_TEXT = "person(pid, name, city); friend(pid1, pid2)"

PARSE_ERROR_SITES = [
    # tokenize
    ("query", "Q(x) :- R(x, '\\x')", "malformed string literal '\\x'", 1, 14),
    ("query", "Q(x) :-\n R(x, 'a\nb')", "malformed string literal 'a\nb'", 2, 7),
    ("query", "Q(x) :- R(?)", "expected a variable name after '?'", 1, 11),
    ("query", "Q(x) :- R(? x)", "expected a variable name after '?'", 1, 11),
    ("query", "Q(x) :-\n  R(x, 'oops)", "unterminated string literal", 2, 8),
    ("query", 'Q(x) :- R(x, "oops\\")', "unterminated string literal", 1, 14),
    ("query", "Q(x) :- R(x) @", "unexpected character '@'", 1, 14),
    ("query", "Q(x) :- R(x, -)", "unexpected character '-'", 1, 14),
    ("query", "Q(x) :- R(x, -infx)", "unexpected character '-'", 1, 14),
    ("query", "Q(x) < R(x)", "unexpected character '<'", 1, 6),
    ("query", "Q(x) :- R(x)\x0c", "unexpected character '\\x0c'", 1, 13),
    # TokenStream.expect, through every reachable caller in the query grammar
    ("query", "", "expected a rule head, got end of input", 1, 1),
    ("query", "# only a comment\n", "expected a rule head, got end of input", 2, 1),
    ("query", "(x) :- R(x)", "expected a rule head, got '('", 1, 1),
    ("query", "Q(x) :- R(x) ; ", "expected a rule head, got end of input", 1, 16),
    ("query", "Q x", "expected '(', got identifier 'x'", 1, 3),
    ("query", "Q(x :- R(x)", "expected ')', got ':-'", 1, 5),
    ("query", "Q(x) :- R(x", "expected ')', got end of input", 1, 12),
    ("query", "Q(x) :- R(x), x", "expected '=' (or a relational atom), got end of input", 1, 16),
    (
        "query",
        "Q(x) :- R(x), x R(x)",
        "expected '=' (or a relational atom), got identifier 'R'",
        1,
        17,
    ),
    # _QueryParser
    ("query", "Q(x) :- R(x,, y)", "expected a term, got ','", 1, 13),
    ("query", "Q(x) :- R(x), 'a' =", "expected a term, got end of input", 1, 20),
    ("query", "Q(x) :- R(x), = x", "expected a term, got '='", 1, 15),
    ("query", "Q(x) :- ", "expected a term, got end of input", 1, 9),
    ("query", "Q(x) :- R(x), S(:- )", "expected a term, got ':-'", 1, 17),
    ("query", "Q(x) :- R(x, ->)", "expected a term, got '->'", 1, 14),
    (
        "query",
        "Q(x) :-\n  R(x) extra",
        "expected ';', 'UNION' or end of input, got identifier 'extra'",
        2,
        8,
    ),
    (
        "query",
        "Q(x) :- R(x) ;\n Q(x, y) :- S(x, y)",
        "disjuncts have different arities: [1, 2]",
        1,
        1,
    ),
    ("query", "Q(x) :- R(x) UNION\nQ(x) :- S(y)", "unsafe head variables (not in body): x", 2, 1),
    ("query", "Q(x) :- R(y)", "unsafe head variables (not in body): x", 1, 1),
    (
        "query",
        "Q(x, 'NYC') :- R(x)",
        "head terms must be named variables, got string \"'NYC'\"",
        1,
        6,
    ),
    ("query", "Q(_) :- R(_)", "head terms must be named variables, got identifier '_'", 1, 3),
    ("query", "Q(x, 1) :- R(x)", "head terms must be named variables, got number '1'", 1, 6),
    ("query+schema", "Q(x) :- nope(x)", "unknown relation 'nope'", 1, 9),
    (
        "query+schema",
        "Q(x) :-\n   person(x)",
        "relation 'person' has arity 3, but the atom person(?x) has arity 1",
        2,
        4,
    ),
    (
        "query+schema",
        "Q(x) :- friend(x, y), friend(x)",
        "relation 'friend' has arity 2, but the atom friend(?x) has arity 1",
        1,
        23,
    ),
    (
        "cq",
        "Q(x) :- R(x) ; Q(x) :- S(x)",
        "expected a single conjunctive query, got a union of 2 disjuncts",
        None,
        None,
    ),
    # relational/schema.py
    ("schema", "(a)", "expected a relation name, got '('", 1, 1),
    ("schema", "r(a) 5", "expected a relation name, got number '5'", 1, 6),
    ("schema", "r(a, _x); ;", "expected a relation name, got ';'", 1, 11),
    ("schema", "r", "expected '(', got end of input", 1, 2),
    ("schema", "r(a", "expected ')', got end of input", 1, 4),
    ("schema", "r(a b)", "expected ')', got identifier 'b'", 1, 5),
    ("schema", "r(1)", "expected an attribute name, got number '1'", 1, 3),
    ("schema", "r(a,)", "expected an attribute name, got ')'", 1, 5),
    ("schema", "r(a); r(b)", "duplicate relation 'r'", 1, 7),
    ("schema", "r(a);\n s(b, a, b)", "relation 's' repeats attribute 'b'", 2, 10),
    ("schema", "r(a);\n  s()", "relation 's' must have at least one attribute", 2, 3),
    ("schema", "r(a)\n @", "unexpected character '@'", 2, 2),
    # core/access_schema.py
    ("access", "{ friend(pid1 -> 5)", "expected '}', got end of input", 1, 20),
    (
        "access",
        "{ friend(pid1 -> 5) } x",
        "expected end of input after '}', got identifier 'x'",
        1,
        23,
    ),
    ("access", "5", "expected a relation name, got number '5'", 1, 1),
    ("access", "nope(a -> 1)", "unknown relation 'nope'", 1, 1),
    ("access", "friend pid1", "expected '(', got identifier 'pid1'", 1, 8),
    ("access", "friend({ -> 5)", "expected '}', got '->'", 1, 10),
    ("access", "friend({} 5)", "expected '->', got number '5'", 1, 11),
    ("access", "friend(pid1 5)", "expected '->', got number '5'", 1, 13),
    ("access", "friend(1 -> 5)", "expected an attribute name, got number '1'", 1, 8),
    (
        "access",
        "person(pid -> 1)\nperson(zip -> 5)",
        "relation 'person' has no attribute 'zip' (attributes: pid, name, city)",
        2,
        8,
    ),
    (
        "access",
        "friend(pid1 -> pid2 5)",
        "expected ',' and then the numeric bound, got number '5'",
        1,
        21,
    ),
    ("access", "friend(pid1 -> pid2, )", "expected an attribute name, got ')'", 1, 22),
    ("access", "friend(pid1 -> 5", "expected ')', got end of input", 1, 17),
    (
        "access",
        "friend(pid1 -> 2.5)",
        "access rule bound must be a positive integer, got 2.5",
        1,
        16,
    ),
    ("access", "friend(pid1 -> -1)", "access rule bound must be a positive integer, got -1", 1, 16),
    ("access", "friend(pid1, pid1 -> 5)", "duplicate input attributes: ('pid1', 'pid1')", 1, 1),
    (
        "access",
        "friend(pid1 -> 5);\nfriend(pid1 -> pid1, 5)",
        "embedded access rule inputs and outputs overlap: ['pid1']",
        2,
        1,
    ),
    ("access", "friend: 0 -> * bound 5", "expected '(', got number '0'", 1, 9),
    (
        "access",
        "friend: (x) -> * bound 5",
        "expected a 0-based attribute position, got identifier 'x'",
        1,
        10,
    ),
    (
        "access",
        "friend: (7) -> * bound 5",
        "position 7 is out of range for relation 'friend' of arity 2",
        1,
        10,
    ),
    (
        "access",
        "friend: (0.5) -> * bound 5",
        "position 0.5 is out of range for relation 'friend' of arity 2",
        1,
        10,
    ),
    ("access", "friend: (0 1) -> * bound 5", "expected ')', got number '1'", 1, 12),
    ("access", "friend: (0) * bound 5", "expected '->', got '*'", 1, 13),
    (
        "access",
        "friend: (0) -> () bound 5",
        "embedded rule needs at least one output position",
        1,
        19,
    ),
    ("access", "friend: (0) -> (1) 5", "expected the keyword 'bound', got number '5'", 1, 20),
    ("access", "friend: (0) -> (1) limit 5", "expected the keyword 'bound', got 'limit'", 1, 20),
    ("access", "friend: (0) -> * bound x", "expected a numeric bound, got identifier 'x'", 1, 24),
    (
        "access",
        "friend: (0) -> * bound 0",
        "access rule bound must be a positive integer, got 0",
        1,
        24,
    ),
]


@pytest.mark.parametrize("dsl, text, message, line, column", PARSE_ERROR_SITES)
def test_every_parse_error_site(dsl, text, message, line, column):
    parse = {
        "query": parse_query,
        "query+schema": lambda t: parse_query(t, parse_schema(SOCIAL_TEXT)),
        "cq": parse_cq,
        "schema": parse_schema,
        "access": lambda t: parse_access_schema(SOCIAL_TEXT, t),
    }[dsl]
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    err = excinfo.value
    assert (err.line, err.column) == (line, column)
    assert str(err) == str(ParseError(message, line, column))


# -- generated inputs: a slow reference scanner and the round trip ---------

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)

_NUMBER = re.compile(
    r"-?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\.\d+(?:[eE][+-]?\d+)?|\d+)"
)
_WORD = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
_PUNCTUATION = "(){},;=:*"  # each is its own token kind


def positions_of(text):
    """The 1-based (line, column) of every offset of ``text``, and of the
    offset one past its end, by walking the characters."""
    positions, line, column = [], 1, 1
    for ch in text:
        positions.append((line, column))
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    positions.append((line, column))
    return positions


def reference_scan(text):
    """The language of :func:`tokenize`, one character class at a time:
    ``(kind, text, offset, value)`` per token, END included."""
    where = positions_of(text)
    tokens, i, n = [], 0, len(text)

    def word_end(j):
        while j < n and text[j] in _WORD:
            j += 1
        return j

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif text[i : i + 2] in (":-", "<-", "->"):
            two = text[i : i + 2]
            tokens.append((parser.ARROW if two == "->" else parser.RULE_ARROW, two, i, None))
            i += 2
        elif ch == "?":
            j = word_end(i + 1)
            if j == i + 1 or text[i + 1].isdigit():
                raise ParseError("expected a variable name after '?'", *where[i])
            tokens.append((parser.VARIABLE, text[i:j], i, None))
            i = j
        elif ch in "'\"":
            j = i + 1
            while j < n and text[j] != ch:
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError("unterminated string literal", *where[i])
            literal = text[i : j + 1]
            try:
                value = pyast.literal_eval(literal)
            except (ValueError, SyntaxError):
                raise ParseError(f"malformed string literal {literal}", *where[i]) from None
            tokens.append((parser.STRING, literal, i, value))
            i = j + 1
        elif _NUMBER.match(text, i):
            literal = _NUMBER.match(text, i).group()
            value = float(literal) if any(c in literal for c in ".eE") else int(literal)
            tokens.append((parser.NUMBER, literal, i, value))
            i += len(literal)
        elif text[i : i + 4] in ("-inf", "-nan") and word_end(i + 4) == i + 4:
            tokens.append((parser.NUMBER, text[i : i + 4], i, float(text[i : i + 4])))
            i += 4
        elif ch in _WORD:  # a digit would have matched as a number
            j = word_end(i)
            tokens.append((parser.IDENT, text[i:j], i, None))
            i = j
        elif ch in _PUNCTUATION:
            tokens.append((ch, ch, i, None))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", *where[i])
    tokens.append((parser.END, "", n, None))
    return tokens


def outcome(scan, text):
    try:
        return scan(text)
    except ParseError as err:
        return ("error", str(err), err.line, err.column)


INNER_SEPARATORS = ["", "", " ", "  ", "\t", "\r", "\n", "\n\n", " \n  ", "#\n", " # ' \" ?x @\n"]
SEPARATORS = st.sampled_from(INNER_SEPARATORS + ["# swallows the rest of the line"])
STRING_LITERALS = st.one_of(
    st.text(max_size=6).map(repr),
    st.sampled_from(
        [
            "'a\\\nb'",  # a backslash-continued literal spanning two lines
            '"x\\\n\\\ny"',
            "'it\\'s'",
            '"O\'Hare"',
            "'\\x'",  # malformed escape
            "'a\nb'",  # raw newline, CR, NUL or a lone surrogate: malformed
            "'a\rb'",
            "'nul\x00'",
            "'\ud800'",
            "'form\x0cfeed\u2028'",  # other raw control characters are fine
            "'oops",  # unterminated
            '"back\\',
        ]
    ),
)
LEXEMES = st.one_of(
    st.sampled_from(
        "Q x _ _1 UNION inf nan True None e5 ?x ?_ ?9 ? ( ) { } , ; = : * :- <- -> - < @ . "
        "0 42 -1 007 2.5 1. .5 1e3 1E-3 -2.5e+7 1.e -inf -nan -infx -.5".split()
    ),
    STRING_LITERALS,
)


@pytest.mark.filterwarnings("ignore:invalid escape sequence")  # fused soup, both scanners
@PROPERTY
@given(st.lists(st.tuples(LEXEMES, SEPARATORS), max_size=12))
def test_tokenize_agrees_with_the_reference_scanner(pieces):
    text = "".join(lexeme + separator for lexeme, separator in pieces)
    where = positions_of(text)

    def expected(text):
        return [
            (kind, lexeme, *where[offset], repr(value))
            for kind, lexeme, offset, value in reference_scan(text)
        ]

    def actual(text):
        return [(t.kind, t.text, t.line, t.column, repr(t.value)) for t in tokenize(text)]

    assert outcome(actual, text) == outcome(expected, text)


TERM_LEXEMES = st.sampled_from(
    ["x", "?y", "z1", "_", "1", "-2.5", "'NYC'", "'a\\\nb'", '"q\\"q"', "None", "inf", "-inf"]
)
CONJUNCTS = st.one_of(
    st.tuples(st.sampled_from(["R", "friend", "_s"]), st.lists(TERM_LEXEMES, max_size=3)),
    st.tuples(st.none(), st.tuples(TERM_LEXEMES, TERM_LEXEMES)),
)


@PROPERTY
@given(st.data())
def test_spans_agree_with_the_reference_scanner(data):
    # Lay the query out as lexemes, remembering which lexeme opens and
    # closes every atom and equality; then let the separators fall
    # wherever they may and read the expected spans off the reference.
    lexemes, atoms, equalities = [], [], []
    for d in range(data.draw(st.integers(1, 3))):
        if d:
            lexemes.append(data.draw(st.sampled_from([";", "UNION"])))
        lexemes += ["Q", "(", data.draw(st.sampled_from(["h", "?h"])), ")"]
        lexemes.append(data.draw(st.sampled_from([":-", "<-"])))
        conjuncts = [("H", ["h"])] + data.draw(st.lists(CONJUNCTS, max_size=3))
        for c, (relation, terms) in enumerate(conjuncts):
            if c:
                lexemes.append(",")
            start = len(lexemes)
            if relation is None:
                lexemes += [terms[0], "=", terms[1]]
                equalities.append((start, len(lexemes) - 1))
            else:
                lexemes += [relation, "("]
                for k, term in enumerate(terms):
                    lexemes += [",", term] if k else [term]
                lexemes.append(")")
                atoms.append((start, len(lexemes) - 1))
    text = ""
    for lexeme in lexemes:
        separator = data.draw(st.sampled_from(INNER_SEPARATORS))
        if not separator and text and text[-1] in _WORD and lexeme[0] in _WORD:
            separator = " "  # or the two lexemes would fuse into one
        text += separator + lexeme
    reference = reference_scan(text)
    assert [lexeme for _, lexeme, _, _ in reference[:-1]] == lexemes
    where = positions_of(text)

    def span(first, last):
        end = reference[last][2] + len(reference[last][1]) - 1
        return Span(*where[reference[first][2]], *where[end])

    parsed = parse_query(text)
    disjuncts = parsed.disjuncts if isinstance(parsed, UnionOfConjunctiveQueries) else [parsed]
    assert [a.span for q in disjuncts for a in q.body] == [span(*r) for r in atoms]
    assert [e.span for q in disjuncts for e in q.equalities] == [span(*r) for r in equalities]


NAMES = st.sampled_from(["x", "y", "z", "p", "X9", "_1", "_", "True", "inf", "nan", "UNION"])
CONSTANTS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["NYC", "it's", 'say "hi"', "back\\slash", "line\nbreak", "?x", "\x00"]),
    st.integers(),
    st.floats(allow_nan=False),  # a NaN built outside the parser equals no other
    st.sampled_from([float("inf"), float("-inf"), -0.0, 1e-5, 1e16]),
    st.booleans(),
    st.none(),
).map(Constant)
TERMS = st.one_of(NAMES.map(Variable), CONSTANTS)
ATOMS = st.builds(Atom, st.sampled_from(["R", "friend", "_s", "T_1"]), st.lists(TERMS, max_size=4))
EQUALITIES = st.builds(Equality, TERMS, TERMS)
BARE_UNSAFE = {"_", "UNION", "True", "False", "None", "inf", "nan"}


@st.composite
def conjunctive_queries(draw, arity=None):
    body = draw(st.lists(ATOMS, max_size=3))
    variables = sorted({t for a in body for t in a.terms if isinstance(t, Variable)})
    if arity is None:
        arity = draw(st.integers(0, 2)) if variables else 0
    if arity and not variables:
        body.append(Atom("R", [draw(NAMES.map(Variable))]))
        variables = [body[-1].terms[0]]
    head = [draw(st.sampled_from(variables)) for _ in range(arity)]
    equalities = draw(st.lists(EQUALITIES, max_size=2))
    try:
        return ConjunctiveQuery(head, body, equalities)
    except ValueError:  # an equality made a head variable unsafe
        return ConjunctiveQuery(head, body)


@st.composite
def queries(draw):
    arity = draw(st.integers(0, 2))
    disjuncts = draw(st.lists(conjunctive_queries(arity=arity), min_size=1, max_size=3))
    return disjuncts[0] if len(disjuncts) == 1 else UnionOfConjunctiveQueries(disjuncts)


@PROPERTY
@given(queries(), st.data())
def test_generated_queries_round_trip(query, data):
    assert parse_query(str(query)) == query
    assert hash(parse_query(str(query))) == hash(query)

    # The same query written by hand: '?x' or bare 'x' per occurrence, ':-'
    # or '<-', ';' or 'UNION'.
    def term(t):
        bare = isinstance(t, Variable) and t.name not in BARE_UNSAFE and data.draw(st.booleans())
        return t.name if bare else (f"?{t}" if isinstance(t, Variable) else str(t))

    def rule(q):
        parts = [f"{a.relation}({', '.join(map(term, a.terms))})" for a in q.body]
        parts += [f"{term(e.left)} = {term(e.right)}" for e in q.equalities]
        head = f"Q({', '.join(map(term, q.head))})"
        return f"{head} {data.draw(st.sampled_from([':-', '<-']))} {', '.join(parts)}" if parts else head

    disjuncts = query.disjuncts if isinstance(query, UnionOfConjunctiveQueries) else [query]
    text = rule(disjuncts[0])
    for q in disjuncts[1:]:
        text += data.draw(st.sampled_from([" ; ", " UNION ", ";\n"])) + rule(q)
    assert parse_query(text) == query


@PROPERTY
@given(conjunctive_queries())
def test_generated_wildcards_are_fresh_and_round_trip(query):
    # Rewrite every variable that occurs once, in the body only, as '_'.
    occurrences = [t for a in query.body for t in a.terms if isinstance(t, Variable)]
    used = occurrences + list(query.head)
    used += [t for e in query.equalities for t in (e.left, e.right) if isinstance(t, Variable)]
    lonely = {v for v in occurrences if used.count(v) == 1}
    parts = [
        f"{a.relation}({', '.join('_' if t in lonely else f'?{t}' if isinstance(t, Variable) else str(t) for t in a.terms)})"
        for a in query.body
    ] + [str(e) for e in query.equalities]
    head = f"Q({', '.join(f'?{v}' for v in query.head)})"
    parsed = parse_query(f"{head} :- {', '.join(parts)}" if parts else head)
    assert parse_query(str(parsed)) == parsed
    fresh = [
        (mine, theirs)
        for a, b in zip(parsed.body, query.body)
        for mine, theirs in zip(a.terms, b.terms)
        if theirs in lonely
    ]
    names = {mine.name for mine, _ in fresh}
    assert len(names) == len(fresh)  # one fresh variable per wildcard
    assert not names & {v.name for v in used if v not in lonely}  # never a name the text used
    renamed = ConjunctiveQuery(
        parsed.head,
        [a.substitute(dict(fresh)) for a in parsed.body],
        parsed.equalities,
    )
    assert renamed == query


# -- plain rules: the fast path parses as the token parser does ------------

PLAIN_SCHEMA = parse_schema("r(a); s(a, b); person(pid, name, city)")
PLAIN_TERMS = ["x", "y", "?x", "?y1", "x1", "_y", "Truex", "UNION", "'NYC'", "''", "'a, b) c('", "'é ?x #'"]
OFF_TERMS = ["1", "-2", "2.5", "1e3", "True", "False", "None", "inf", "-inf", "nan", "_", '"NYC"', "'a\\'b'",
             "'\\n'", "?", "? x", "x y", "x = y"]
OFF_PIECES = {
    "head": ["'a'", "1", "_", "True", "nan"],  # a constant or a wildcard in the head
    "arrow": [" <- ", ":-", " :-  ", "  :- ", " :-\n", " :- # c\n"],
    "separator": [",", " ,", ",  ", ",\n", " , ", ",\t"],
    "tail": [" # c", "\n", " ", ";", ")", ", x = y", ", x = 'a'", "; Q(x) :- r(x)", " UNION Q(y) :- r(y)"],
}


@st.composite
def one_line_rules(draw):
    """``(text, schema)``: a one-line rule on the plain pattern -- each term
    an ASCII name or a plain single-quoted string, one space around ':-'
    and after each ',' -- or, for most draws, one piece off it.  The schema
    is None or one that knows ``r``, ``s`` and ``person`` (not ``nope``)."""

    def pick(options):
        return draw(st.sampled_from(options))

    relations = draw(st.lists(st.sampled_from(["r", "s", "person", "nope"]), min_size=1, max_size=3))
    atoms = [[pick(PLAIN_TERMS) for _ in range(PLAIN_SCHEMA.arities.get(r, 1))] for r in relations]
    head = draw(st.lists(st.sampled_from(["x", "?x", "y", "z"]), max_size=2))  # 'z' is never bound
    pieces = {"arrow": " :- ", "separator": ", ", "tail": ""}
    off = pick(["on", "on", "term", "arity", *OFF_PIECES])
    i = draw(st.integers(0, len(atoms) - 1))
    if off == "term":
        atoms[i][draw(st.integers(0, len(atoms[i]) - 1))] = pick(OFF_TERMS)
    elif off == "arity":  # a term too many or too few
        atoms[i] = atoms[i][1:] if draw(st.booleans()) else [*atoms[i], pick(PLAIN_TERMS)]
    elif off == "head":
        head.insert(draw(st.integers(0, len(head))), pick(OFF_PIECES["head"]))
    elif off != "on":
        pieces[off] = pick(OFF_PIECES[off])
    separator = pieces["separator"]
    body = separator.join(f"{r}({separator.join(terms)})" for r, terms in zip(relations, atoms))
    text = f"{pick(['Q', 'V1', 'True'])}({separator.join(head)}){pieces['arrow']}{body}{pieces['tail']}"
    return text, draw(st.sampled_from([None, PLAIN_SCHEMA]))


def parsed(parse, text, schema):
    """What ``parse`` makes of ``text``: the query and every atom's and
    equality's span, or the ParseError's text and position."""
    try:
        query = parse(text, schema)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    disjuncts = query.disjuncts if isinstance(query, UnionOfConjunctiveQueries) else [query]
    return query, [node.span for q in disjuncts for node in (*q.body, *q.equalities)]


def token_parse(text, schema):
    return parser._QueryParser(parser.TokenStream(text), schema).parse()


@settings(max_examples=1_000, derandomize=True, deadline=None, database=None)
@given(one_line_rules())
def test_plain_rules_parse_as_the_token_parser(case):
    assert parsed(parse_query, *case) == parsed(token_parse, *case), case


@pytest.mark.parametrize(
    "text, plain",
    [
        ("Q(y) :- friend(p, y), person(y, n, 'NYC')", True),
        ("Q(?x) :- R(?x, 'a, b) c(', ''), S(x1)", True),
        ("Q() :- R()", True),
        ("Q(x) :- R(x, 1)", False),
        ("Q(x) :- R(x, True)", False),
        ("Q(x) :- R(x, _)", False),
        ("Q(x) <- R(x)", False),
        ("Q(x) :- R(x,y)", False),
        ("Q(x) :- R(x) # c", False),
        ("Q(x) :- R(x), x = y", False),
        ("Q(x) :- R(x); Q(x) :- S(x)", False),
        ("Q('a') :- R(x)", False),
        ("Q(z) :- R(x)", False),  # unsafe
        ("Q(x) :- nope(x)", False),  # with the schema below
        ("Q(x) :- R(x, \"a\")", False),
    ],
)
def test_which_texts_are_plain_rules(text, plain):
    schema = parse_schema("R(a, b, c); S(a); friend(a, b); person(a, b, c)") if "nope" in text else None
    assert (parser._plain_rule(text, schema) is not None) is plain
    assert parsed(parse_query, text, schema) == parsed(token_parse, text, schema)


def keyword_read_as_a_name(monkeypatch):
    pattern = parser._PLAIN_RULE.pattern
    assert "True|" in pattern, "mutation site moved"
    monkeypatch.setattr(parser, "_PLAIN_RULE", re.compile(pattern.replace("True|", ""), re.ASCII))


#: name -> (the code to break in ``_plain_rule``, what to break it into), or
#: a function that installs the mutant
PLAIN_MUTANTS = {
    "terms read without the whole-text match": ("_PLAIN_RULE.fullmatch(text) is None", "not text"),
    "an atom's arity not checked": ("schema.arities.get(relation) != len(terms)", "relation not in schema.arities"),
    "a keyword read as a name": keyword_read_as_a_name,
}


@pytest.mark.parametrize("name", PLAIN_MUTANTS)
def test_plain_rule_mutants_fail_the_differential_property(monkeypatch, name):
    mutant = PLAIN_MUTANTS[name]
    if callable(mutant):
        mutant(monkeypatch)
    else:
        mutate(monkeypatch, parser, "_plain_rule", *mutant, name)
    with pytest.raises(AssertionError):
        test_plain_rules_parse_as_the_token_parser()
