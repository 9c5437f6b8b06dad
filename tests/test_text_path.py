"""A never-seen text costs its tokens.

The text front end pays per term list, not per term: one routine reads a
head's, an atom's or an equality's terms, an atom meets the schema in one
arity lookup, every parse shares the one ``Variable`` of each name, a
query without equalities is checked for safety by name, and the shape key
is the plain tuple one canonical walk encodes.

* **safety by name**: over generated CQs -- with and without equalities,
  with wildcards, unsatisfiable equalities and repeated head variables --
  the constructor's verdict and message, and the parser's, are those of
  the equality-resolving check;
* **a plain key**: ``canonical_key`` returns a hashable tuple, and the
  plan cache files its entry under that tuple unchanged;
* **mutants**: an arity check skipped (the token parser's or the plain
  rule's), the no-equality safety check skipped, one ``Variable`` handed
  to two names and a constant encoded without its type are each killed by
  the check named for them.

A plain rule (:mod:`repro.logic.parser`) skips the token parser, and so
its mutants: the token parser's are killed by texts that reach it -- a
plain rule the schema rejects falls back to it, and ``shared_variables``
parses each text in both spellings, ``:-`` and ``<-``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutation import mutate
from repro import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Engine,
    Equality,
    ParseError,
    Variable,
    parse_query,
    parse_schema,
)
from repro.logic import canonical, parser
from repro.logic.canonical import canonical_key
from repro.logic.cq import resolve_equalities
from repro.logic.parser import _QueryParser

SCHEMA = "person(pid, name, city); friend(pid1, pid2); visits(pid, url)"
ACCESS = "friend(pid1 -> 5000); person(pid -> 1); visits(pid -> 8)"
DATA = {"person": [(1, "ann", "NYC"), (2, "bob", "NYC")], "friend": [(1, 2)], "visits": [(2, "a")]}

# -- safety by name -------------------------------------------------------------


def resolving_verdict(query) -> str | None:
    """The equality-resolving safety check -- every head variable's class
    holds a constant or a body variable -- for any query: its message, or
    None for a safe query (an unsatisfiable one is, vacuously)."""
    subst = resolve_equalities(query.equalities)
    if subst is None:
        return None
    walk = subst.get
    bound = {walk(t, t) for a in query.body for t in a.terms if isinstance(t, Variable)}
    unsafe = [v for v in query.head if not isinstance(walk(v, v), Constant) and walk(v, v) not in bound]
    return f"unsafe head variables (not in body): {', '.join(map(str, unsafe))}" if unsafe else None


def written(head, atoms, equalities):
    """``(text, query)``: a CQ over relations ``r0``, ``r1``, ... written
    out, and built without a check.  A term is a variable name, ``'_'`` (a
    wildcard, built as the fresh variable the parser makes of it) or a
    :class:`Constant`."""
    fresh = iter(range(1, 100))

    def term(t):
        if isinstance(t, Constant):
            return t
        return Variable(f"_{next(fresh)}" if t == "_" else t)

    parts = [f"r{i}({', '.join(map(str, terms))})" for i, terms in enumerate(atoms)]
    parts += [f"{left} = {right}" for left, right in equalities]
    text = f"Q({', '.join(head)})" + (f" :- {', '.join(parts)}" if parts else "")
    body = tuple(Atom(f"r{i}", [term(t) for t in terms]) for i, terms in enumerate(atoms))
    pairs = tuple(Equality(term(left), term(right)) for left, right in equalities)
    return text, ConjunctiveQuery._trusted(tuple(map(Variable, head)), body, pairs)


def check_safety(text, query):
    """Building ``query`` and parsing ``text`` both say what the resolving
    check says: the same message, or a query that stands."""
    expected = resolving_verdict(query)
    try:
        ConjunctiveQuery(query.head, query.body, query.equalities)
        built = None
    except ValueError as exc:
        built = str(exc)
    assert built == expected, text
    try:
        parsed = parse_query(text)
    except ParseError as exc:  # a rule's error sits at its head
        assert expected is not None and str(exc) == str(ParseError(expected, 1, 1)), text
    else:
        assert expected is None and parsed == query, text


NAMES = ("x", "y", "z", "p")
TERMS = st.one_of(st.sampled_from(NAMES), st.sampled_from([1, 1.0, True, "a", None]).map(Constant))
PINNED_SAFETY = [
    written(["x"], [["y"]], []),
    written(["x", "x"], [["y"]], []),  # a repeated head variable is named twice
    written(["x", "y"], [["x", "_"]], []),  # a wildcard binds no name
    written(["x"], [["_", "x"]], []),
    written(["x"], [["y"]], [("x", "y")]),  # safe through an equality ...
    written(["x"], [], [("x", Constant(1))]),  # ... or a constant
    written(["x"], [["y"]], [("x", "z")]),  # x's class holds no body variable
    written(["x"], [["y"]], [(Constant(1), Constant("a"))]),  # unsatisfiable: vacuously safe
    written(["x"], [[Constant(1)]], [(Constant(1), Constant(1.0))]),  # 1 = 1.0 holds
]


@st.composite
def safety_cases(draw):
    atoms = draw(st.lists(st.lists(st.one_of(TERMS, st.just("_")), max_size=3), max_size=3))
    equalities = draw(st.lists(st.tuples(TERMS, TERMS), max_size=2))
    return written(draw(st.lists(st.sampled_from(NAMES), max_size=3)), atoms, equalities)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(safety_cases())
def test_safety_by_name_is_the_resolving_verdict(case):
    check_safety(*case)


def safety():
    for case in PINNED_SAFETY:
        check_safety(*case)


# -- the schema, the shared variables and the key --------------------------------


def schema_checks():
    schema = parse_schema(SCHEMA)
    assert schema.arities == {"person": 3, "friend": 2, "visits": 2}
    for text, message, column in (
        ("Q(x) :- nope(x)", "unknown relation 'nope'", 9),
        ("Q(x) :- friend(x, y), friend(x)", "relation 'friend' has arity 2, but the atom friend(?x) has arity 1", 23),
        ("Q(x) :- visits(x, y, z)", "relation 'visits' has arity 2, but the atom visits(?x, ?y, ?z) has arity 3", 9),
    ):
        with pytest.raises(ParseError) as excinfo:
            parse_query(text, schema)
        assert str(excinfo.value) == str(ParseError(message, 1, column)), text
    query = parse_query("Q(y) :- friend(p, y), person(y, n, 'NYC')", schema)
    assert str(query) == "Q(?y) <- friend(?p, ?y), person(?y, ?n, 'NYC')"


def shared_variables():
    for arrow in (":-", "<-"):  # a plain rule, then the token parser
        text = f"Q(abc, abd) {arrow} r(abc, abd, ab, ?abc)"
        first, second = parse_query(text), parse_query(text)
        assert first.body[0].terms == tuple(map(Variable, ("abc", "abd", "ab", "abc")))
        assert first.head == (Variable("abc"), Variable("abd"))
        # one object per spelling of a name, shared by every parse
        assert first.head[0] is first.body[0].terms[0]
        assert all(a is b for a, b in zip(first.body[0].terms, second.body[0].terms))


def typed_keys():
    keys = [canonical_key(parse_query(f"Q(x) :- r(x, {c})")) for c in ("1", "1.0", "True", "'1'")]
    assert len(set(keys)) == 4


def test_the_shape_key_is_a_plain_tuple_the_plan_cache_files_unchanged():
    engine = Engine(SCHEMA, ACCESS, DATA)
    first = engine.query("Q(y) :- friend(p, y), person(y, n, 'NYC')")
    parameters = frozenset({Variable("p")})
    key = canonical_key(first.query, parameters)
    assert type(key) is tuple and hash(key) == hash(canonical_key(first.query, parameters))
    assert first.execute(p=1).rows == ((2,),)
    (filed,) = engine._cache._entries
    assert filed == (engine._state[0], key, parameters) and type(filed[1]) is tuple
    assert engine._cache._entries[filed].key is filed[1] is first._shapes[parameters].key
    twin = engine.query("Q(z) :- person(z, m, 'NYC'), friend(p, z)")
    assert canonical_key(twin.query, parameters) == key
    assert twin.execute(p=1).rows == ((2,),)
    assert engine.cache_stats().misses == 1
    assert twin._shapes[parameters].key is filed[1]  # adopted: later probes compare by identity


# -- seeded mutants ---------------------------------------------------------------

CHECKS = {
    "safety": safety,
    "schema": schema_checks,
    "variables": shared_variables,
    "typed key": typed_keys,
}

#: name -> (owner, attribute, the code to break, what to break it into, the
#: check that must notice)
MUTANTS = {
    "an atom's arity not checked": (
        _QueryParser,
        "_rule",
        "arities.get(relation) != len(terms)",
        "relation not in arities",
        "schema",
    ),
    "a plain rule's arity not checked": (
        parser,
        "_plain_rule",
        "schema.arities.get(relation) != len(terms)",
        "relation not in schema.arities",
        "schema",
    ),
    "no safety check without equalities": (
        ConjunctiveQuery,
        "__init__",
        "unsafe = [v for v in self.head if v.name not in named]",
        "unsafe = []",
        "safety",
    ),
    "one Variable for two names": (
        _QueryParser,
        "_terms",
        "_variable_from_name(text)",
        "_variable_from_name(text[:2])",
        "variables",
    ),
    "a constant encoded without its type": (
        canonical,
        "_encode",
        "(0, type(value), value)",
        "(0, value)",
        "typed key",
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_text_path_mutants_are_killed(monkeypatch, name):
    owner, attribute, old, new, killer = MUTANTS[name]
    mutate(monkeypatch, owner, attribute, old, new, name)
    killed_by = []
    for label, check in CHECKS.items():
        try:
            check()
        except (Exception, pytest.fail.Exception):  # pytest.raises fails with the latter
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killer in killed_by, f"{name!r} survived {killer}: killed by {killed_by}"


def test_the_checks_pass_unmutated():
    for check in CHECKS.values():
        check()
