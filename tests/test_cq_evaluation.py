"""Tests for query evaluation on the social-network instance: CQs with
equalities and parameters, UCQs and CQ containment."""

import pytest

from repro import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Equality,
    UnionOfConjunctiveQueries,
    parse_query,
)
from repro.logic import homomorphism


class TestConjunctiveQueries:
    def test_single_atom(self, social_db):
        q = ConjunctiveQuery(["x"], [Atom("friend", [1, "?x"])])
        assert set(q.evaluate(social_db)) == {(2,), (3,)}

    def test_join(self, social_db):
        # friends-of-friends of ann (pid 1)
        q = ConjunctiveQuery(
            ["z"], [Atom("friend", [1, "?y"]), Atom("friend", ["?y", "?z"])]
        )
        assert set(q.evaluate(social_db)) == {(4,)}

    def test_selection_via_constant(self, social_db):
        q = ConjunctiveQuery(
            ["n"],
            [Atom("friend", [1, "?x"]), Atom("person", ["?x", "?n", "SF"])],
        )
        assert q.evaluate(social_db) == (("cat",),)

    def test_parameters(self, social_db):
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        assert set(q.evaluate(social_db, {"p": 4})) == {(5,)}
        assert q.evaluate(social_db, {"p": 99}) == ()
        with pytest.raises(ValueError, match="unknown parameter"):
            q.evaluate(social_db, {"nope": 1})

    def test_equalities_bind_and_filter(self, social_db):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [Equality("?p", 1)],
        )
        assert set(q.evaluate(social_db)) == {(2,), (3,)}

    def test_variable_to_variable_equality(self, social_db):
        # self-loops: friend(x, y) with x = y
        q = ConjunctiveQuery(
            ["x"], [Atom("friend", ["?x", "?y"])], [Equality("?x", "?y")]
        )
        assert q.evaluate(social_db) == ()
        social_db.add("friend", (2, 2))
        assert q.evaluate(social_db) == ((2,),)

    def test_unsatisfiable_equalities(self, social_db):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?x", "?y"])],
            [Equality("?y", 1), Equality("?y", 2)],
        )
        assert q.evaluate(social_db) == ()

    def test_repeated_variable_in_atom(self, social_db):
        social_db.add("friend", (3, 3))
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?x"])])
        assert q.evaluate(social_db) == ((3,),)

    def test_unsafe_head_rejected(self):
        with pytest.raises(ValueError, match="unsafe"):
            ConjunctiveQuery(["x"], [Atom("friend", [1, "?y"])])


class TestUnions:
    def test_union_deduplicates(self, social_db):
        q = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery(["x"], [Atom("friend", [1, "?x"])]),
                ConjunctiveQuery(["x"], [Atom("friend", ["?y", "?x"])]),
            ]
        )
        assert set(q.evaluate(social_db)) == {(1,), (2,), (3,), (4,), (5,)}

    def test_mismatched_arities_rejected(self):
        with pytest.raises(ValueError, match="arities"):
            UnionOfConjunctiveQueries(
                [
                    ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?y"])]),
                    ConjunctiveQuery(
                        ["x", "y"], [Atom("friend", ["?x", "?y"])]
                    ),
                ]
            )


class TestHomomorphisms:
    def test_containment(self):
        # Q1: x has a friend who has a friend; Q2: x has a friend.
        q1 = ConjunctiveQuery(
            ["x"], [Atom("friend", ["?x", "?y"]), Atom("friend", ["?y", "?z"])]
        )
        q2 = ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?y"])])
        assert homomorphism.is_contained_in(q1, q2)
        assert not homomorphism.is_contained_in(q2, q1)

    def test_equivalence_and_minimization(self):
        redundant = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?x", "?y"]), Atom("friend", ["?x", "?z"])],
        )
        minimal = homomorphism.minimize(redundant)
        assert len(minimal.body) == 1
        assert homomorphism.are_equivalent(redundant, minimal)


def test_union_rejects_parameter_missing_from_a_disjunct(social_db):
    q = UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])]),
            ConjunctiveQuery(["y"], [Atom("friend", ["?y", "?z"])]),
        ]
    )
    with pytest.raises(ValueError, match="does not occur in disjunct"):
        q.evaluate(social_db, {"p": 1})
    shared = UnionOfConjunctiveQueries(
        [
            ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])]),
            ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?p"])]),
        ]
    )
    assert set(shared.evaluate(social_db, {"p": 1})) == {(2,), (3,), (5,)}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("Q(y) :- friend(p, y), p = 1", {(2,), (3,)}),
        ("Q(y) :- friend(p, y) ; Q(y) :- friend(y, p)", {(2,), (3,), (5,)}),
    ],
    ids=["cq", "ucq"],
)
def test_constant_wrapped_parameters_evaluate_as_their_values(social_db, text, expected):
    # The engine unwraps a Constant parameter before it meets the data;
    # naive evaluation must too, or Constant(1) matches no stored 1.
    query = parse_query(text)
    assert set(query.evaluate(social_db, {"p": Constant(1)})) == expected
    assert set(query.evaluate(social_db, {"p": 1})) == expected


def test_cross_type_equal_value_equalities_are_satisfiable(social_db):
    # Constants are typed for sorting, but equality resolution follows the
    # database's value semantics: 1 == 1.0.
    q = ConjunctiveQuery(
        ["x"],
        [Atom("friend", ["?p", "?x"])],
        [Equality("?p", 1), Equality("?p", 1.0)],
    )
    assert set(q.evaluate(social_db)) == {(2,), (3,)}


def test_head_variable_grounded_only_by_equalities_rejected():
    with pytest.raises(ValueError, match="unsafe"):
        ConjunctiveQuery(
            ["x"], [Atom("friend", ["?z", "?w"])], [Equality("?x", "?y")]
        )


def test_the_safety_check_builds_no_atom(monkeypatch):
    # The check walks each body term through the equality substitution;
    # it does not substitute into (and so re-build) every atom.
    calls = []
    monkeypatch.setattr(Atom, "substitute", lambda *args: calls.append(args))
    body = [Atom("friend", ["?p", "?y"]), Atom("person", ["?y", "?n", "NYC"])]
    ConjunctiveQuery(["y"], body)
    ConjunctiveQuery(["y", "m"], body, [Equality("?m", "?n"), Equality("?p", 1)])
    ConjunctiveQuery(["c"], body, [Equality("?c", "NYC")])  # bound to a constant
    ConjunctiveQuery(["x"], body, [Equality("?x", 1), Equality("?x", 2)])  # unsatisfiable
    with pytest.raises(ValueError, match=r"unsafe head variables \(not in body\): x"):
        ConjunctiveQuery(["x"], body, [Equality("?x", "?z")])
    with pytest.raises(ValueError, match=r"unsafe head variables \(not in body\): x, z"):
        ConjunctiveQuery(["x", "y", "z"], body)
    assert calls == []


def test_homomorphism_constants_match_on_value():
    q1 = ConjunctiveQuery(["x"], [Atom("friend", [1, "?x"])])
    q2 = ConjunctiveQuery(["x"], [Atom("friend", [1.0, "?x"])])
    assert homomorphism.are_equivalent(q1, q2)


def test_homomorphism_rebinding_matches_constants_on_value():
    # ?x first binds to 1, then must also cover 1.0: value semantics say yes.
    q_pair = ConjunctiveQuery([], [Atom("r", [1, 1.0])])
    q_diag = ConjunctiveQuery([], [Atom("r", ["?x", "?x"])])
    assert homomorphism.is_contained_in(q_pair, q_diag)
