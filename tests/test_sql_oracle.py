"""The SQLite oracle: where its value semantics differ from Python's, and
why it is independent of the engine.

* **value semantics**: one test per point the ``sql_oracle`` docstring
  lists -- ``True`` stored as 1, ``1 = 1.0``, ``None``, text vs number --
  each on both storage backends, with the engine, naive evaluation
  and SQLite giving one answer set;
* **safe negation**: the ``NOT EXISTS`` hook answers a negated atom;
* **mutants**: each seeded mutant sits in code both the engine and naive
  evaluation run (equality resolution, substitution, the write path), so
  the two still agree under it -- and only SQLite, which runs none of
  that code, notices.
"""

from types import SimpleNamespace

import pytest

from repro import Atom, Database, Engine, RelationSchema
from repro.logic import cq as cq_module
from sql_oracle import SqlOracle
from test_generation import mutate

SCHEMA = "r(a, b); s(b, c)"
ACCESS = "r(a -> 8); r(b -> 8); s(b -> 8)"
DATA = {
    "r": [(1, "x"), (1.0, "y"), (True, "z"), ("1", "w"), (None, "n"), (2, None)],
    "s": [("x", "NYC"), ("y", None), ("z", "NYC"), ("w", "NYC"), ("n", "NYC"), (None, "SF")],
}


def answers(engine, text, values):
    """``text``'s answers from the engine, from naive evaluation and from
    SQLite over the raw rows, as sets."""
    prepared = engine.query(text)
    return (
        set(prepared.execute(values).rows),
        set(prepared.query.evaluate(engine.database, values)),
        SqlOracle(engine.schema, DATA).answers(prepared.query, values),
    )


@pytest.fixture
def engine(backend_factory):
    return Engine(SCHEMA, ACCESS, DATA, backend=backend_factory())


def test_true_is_stored_as_one_and_comes_back_as_an_int(engine):
    engine_rows, naive, sql = answers(engine, "Q(a) :- r(a, 'z')", {})
    assert engine_rows == naive == sql == {(True,)}
    assert [type(a) for (a,) in sql] == [int]
    # True, 1 and 1.0 are one key on both sides.
    assert answers(engine, "Q(y) :- r(p, y)", {"p": True}) == ({("x",), ("y",), ("z",)},) * 3


def test_one_equals_one_point_zero(engine):
    for text, values in (
        ("Q(y) :- r(p, y)", {"p": 1.0}),
        ("Q(y) :- r(p, y), p = 1, p = 1.0", {}),
    ):
        engine_rows, naive, sql = answers(engine, text, values)
        assert engine_rows == naive == sql == {("x",), ("y",), ("z",)}, text


def test_none_joins_none_because_every_comparison_is_is(engine):
    assert answers(engine, "Q(y, c) :- r(p, y), s(y, c)", {"p": 2}) == ({(None, "SF")},) * 3
    assert answers(engine, "Q(y) :- r(p, y)", {"p": None}) == ({("n",)},) * 3
    assert answers(engine, "Q(y) :- r(p, y), s(y, c), c = None", {"p": 1}) == ({("y",)},) * 3
    # What '=' would have said: NULL = NULL is NULL, not true.
    assert SqlOracle(engine.schema, DATA).connection.execute("SELECT NULL = NULL").fetchone() == (None,)


def test_text_is_not_a_number_in_untyped_columns(engine):
    assert answers(engine, "Q(y) :- r(p, y)", {"p": "1"}) == ({("w",)},) * 3
    assert ("w",) not in answers(engine, "Q(y) :- r(p, y)", {"p": 1})[2]
    connection = SqlOracle(engine.schema, DATA).connection
    assert connection.execute("SELECT typeof(c0) FROM r WHERE c1 = 'w'").fetchone() == ("text",)
    # A typed column would have converted it.
    connection.execute("CREATE TABLE typed (c0 INTEGER)")
    connection.execute("INSERT INTO typed VALUES ('1')")
    assert connection.execute("SELECT typeof(c0) FROM typed").fetchone() == ("integer",)


def test_not_exists_answers_a_negated_atom():
    # Q(y) :- r(p, y), not s(y, 'NYC'): for item 10's safe negation.
    engine = Engine(SCHEMA, ACCESS, DATA)
    query = engine.query("Q(y) :- r(p, y)").query
    negated = SimpleNamespace(
        head=query.head, body=query.body, equalities=(), negated=(Atom("s", ["?y", "NYC"]),)
    )
    sql = SqlOracle(engine.schema, DATA)
    assert sql.answers(query, {"p": 1}) == {("x",), ("y",), ("z",)}
    assert sql.answers(negated, {"p": 1}) == {("y",)}


# -- seeded mutants ----------------------------------------------------------

CASES = (
    ("Q(y) :- r(p, y)", {"p": 1}),
    ("Q(y, c) :- r(p, y), s(y, c)", {"p": None}),
    ("Q(y, c) :- r(p, y), s(y, c)", {"p": 2}),
    ("Q(y) :- r(p, y), s(y, c), c = None", {"p": 1}),
    ("Q(y) :- r(p, y), p = 1, p = 1.0", {}),
    ("Q(y) :- r(p, y), s(y, c), r(q, w), s(w, d), c = d", {"p": 1, "q": 2}),
    ("Q(y) :- r(p, y), s(y, 'NYC') ; Q(y) :- r(p, x), s(x, y)", {"p": 1}),
)


def agreement(oracle):
    def check():
        engine = Engine(SCHEMA, ACCESS, DATA)
        for text, values in CASES:
            engine_rows, naive, sql = answers(engine, text, values)
            assert engine_rows == (naive if oracle == "naive" else sql), text

    return check


PROPERTIES = {"naive": agreement("naive"), "sql": agreement("sql")}

#: name -> (owner, attribute, the code to break, what to break it into)
MUTANTS = {
    "equal constants compared by type": (
        cq_module,
        "resolve_equalities",
        "if left.value != right.value:",
        "if left != right:",
    ),
    "a variable-to-variable substitution is dropped": (
        Atom,
        "substitute",
        "[mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms]",
        "[mapping.get(t, t) if isinstance(mapping.get(t), Constant) else t for t in self.terms]",
    ),
    "the write path stores None as ''": (
        Database,
        "_prepare",
        "row = tuple(row)",
        "row = tuple('' if v is None else v for v in row)",
    ),
    "the write path stores a bool as text": (
        RelationSchema,
        "validate_tuple",
        "row = tuple(row)",
        "row = tuple(str(v) if type(v) is bool else v for v in row)",
    ),
    "the write path stores a numeric text as a number": (
        RelationSchema,
        "validate_tuple",
        "row = tuple(row)",
        "row = tuple(int(v) if type(v) is str and v.isdigit() else v for v in row)",
    ),
}


def test_the_unmutated_engine_agrees_with_both_oracles():
    for check in PROPERTIES.values():
        check()


@pytest.mark.parametrize("name", MUTANTS)
def test_seeded_mutants_survive_naive_evaluation_and_die_to_sqlite(monkeypatch, name):
    owner, attribute, old, new = MUTANTS[name]
    mutate(monkeypatch, owner, attribute, old, new, name)
    killed_by = []
    for label, check in PROPERTIES.items():
        try:
            check()
        except AssertionError:
            killed_by.append(label)
    print(f"mutant {name!r} killed by: {', '.join(killed_by) or 'nothing'}")
    assert killed_by == ["sql"], f"{name!r} killed by {killed_by}"
