"""Tests for the atom and equality AST: free variables, substitution."""

from repro.logic.ast import Atom, Equality
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_atom_coerces_terms():
    atom = Atom("friend", ["?x", 7])
    assert atom.terms == (x, Constant(7))
    assert atom.free_variables() == (x,)
    assert atom.constants() == (Constant(7),)


def test_free_variables_are_ordered_and_deduplicated():
    assert Atom("s", ["?y", "?z", "?y", "?x"]).free_variables() == (y, z, x)
    assert Equality("?y", "?x").free_variables() == (y, x)
    q = ConjunctiveQuery(
        ["z"], [Atom("r", ["?x", "?y"]), Atom("s", ["?y", "?z", "?x"])], [Equality("?w", "?x")]
    )
    assert q.variables() == (z, x, y, Variable("w"))


def test_substitution_replaces_free_occurrences():
    atom = Atom("r", ["?x", "?y", "?x"])
    assert atom.substitute({x: Constant(3)}) == Atom("r", [3, "?y", 3])
    assert atom.substitute({"y": "?z"}) == Atom("r", ["?x", "?z", "?x"])
    assert atom.substitute({x: Constant(3)}).free_variables() == (y,)
    assert Equality("?x", "?y").substitute({y: 1}) == Equality("?x", 1)


def test_equality_and_hash():
    assert Atom("r", ["?x"]) == Atom("r", [Variable("x")])
    assert hash(Atom("r", ["?x"])) == hash(Atom("r", ["?x"]))
    assert Atom("r", ["?x"]) != Atom("r", ["x"])  # variable vs constant
    assert Equality("?x", 1) == Equality(x, Constant(1))
    assert hash(Equality("?x", 1)) == hash(Equality(x, Constant(1)))
    assert Equality("?x", 1) != Equality("?x", 1.0)  # typed literals


def test_str_rendering():
    assert str(Atom("friend", ["?x", "?y"])) == "friend(?x, ?y)"
    assert str(Equality("?y", 1)) == "?y = 1"
    assert repr(Equality("?y", "NYC")) == "Equality(Variable('y'), Constant('NYC'))"
