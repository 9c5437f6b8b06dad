"""Unit tests for terms, including the three seed bugfixes:

* ``make_term("?")`` / ``Variable("")`` raise ValueError;
* ``Constant`` ordering is a total order for mixed-type values;
* ``variables_of`` / ``constants_of`` deduplicate in linear time.
"""

import pytest

from repro.logic.terms import (
    Constant,
    Variable,
    constants_of,
    make_term,
    variables_of,
)


class TestMakeTerm:
    def test_question_mark_prefix_makes_variable(self):
        assert make_term("?x") == Variable("x")

    def test_plain_values_make_constants(self):
        assert make_term("x") == Constant("x")
        assert make_term(42) == Constant(42)

    def test_terms_pass_through(self):
        v, c = Variable("x"), Constant(1)
        assert make_term(v) is v
        assert make_term(c) is c

    def test_bare_question_mark_raises(self):
        with pytest.raises(ValueError):
            make_term("?")

    def test_empty_variable_name_raises(self):
        with pytest.raises(ValueError):
            Variable("")


class TestConstantOrdering:
    def test_mixed_type_comparison_is_consistent(self):
        a, b = Constant(1), Constant("a")
        assert (a < b) != (b < a)
        # int sorts before str because "int" < "str"
        assert a < b
        assert not (b < a)

    def test_total_ordering_operators(self):
        assert Constant(1) <= Constant(1)
        assert Constant(2) > Constant(1)
        assert Constant("b") >= Constant("a")

    def test_sorting_mixed_values_is_deterministic(self):
        values = [Constant("b"), Constant(2), Constant(1.5), Constant("a"), Constant(1)]
        assert sorted(values) == sorted(reversed(values))

    def test_same_type_orders_by_value(self):
        assert Constant(1) < Constant(2)
        assert Constant("a") < Constant("b")

    def test_not_implemented_for_non_constants(self):
        with pytest.raises(TypeError):
            Constant(1) < 1


class TestDeduplication:
    def test_variables_of_preserves_first_occurrence_order(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        assert variables_of([x, Constant(1), y, x, z, y]) == (x, y, z)

    def test_constants_of_preserves_first_occurrence_order(self):
        terms = [Constant(2), Variable("x"), Constant(1), Constant(2)]
        assert constants_of(terms) == (Constant(2), Constant(1))

    def test_empty(self):
        assert variables_of([]) == ()
        assert constants_of([]) == ()

    def test_large_input_is_fast(self):
        # ~0.2s even on slow machines with the linear dedup; minutes with
        # the old quadratic list-membership scan.
        terms = [Variable(f"v{i % 1000}") for i in range(200_000)]
        assert len(variables_of(terms)) == 1000


class TestConstantEqLtConsistency:
    def test_constants_are_typed_literals(self):
        # Python conflates 1 == 1.0 == True, but as typed literals these
        # are distinct terms -- the ordering by type name can then be a
        # total order consistent with equality.
        assert Constant(True) != Constant(1)
        assert Constant(1.0) != Constant(1)
        assert Constant(1) == Constant(1)
        assert hash(Constant(1)) == hash(Constant(1))

    def test_cross_type_equal_numerics_sort_deterministically(self):
        # The review scenario: 2 == 2.0 must not make sort output depend
        # on input order.
        a = [Constant(3), Constant(2.0), Constant(2), Constant(1)]
        b = [Constant(1), Constant(2), Constant(2.0), Constant(3)]
        assert sorted(a) == sorted(b)
        assert sorted(a) == [Constant(2.0), Constant(1), Constant(2), Constant(3)]

    def test_same_type_incomparable_values_fall_back_to_str(self):
        # set.__lt__ is the subset test (False both ways for {1,2} vs {3}),
        # so the string fallback must kick in for unequal values.
        s1, s2 = Constant(frozenset([1, 2])), Constant(frozenset([3]))
        assert (s1 < s2) != (s2 < s1)
        assert sorted([s1, s2]) == sorted([s2, s1])

    def test_unhashable_value_rejected_at_construction(self):
        with pytest.raises(TypeError, match="hashable"):
            Constant([1, 2])


def test_nan_constants_keep_comparisons_antisymmetric():
    a, b = Constant(float("nan")), Constant(float("nan"))
    assert a == a  # identity-or-equality
    assert a != b
    assert (a < b) != (b < a)
    assert sorted([a, b]) == sorted([b, a])


def test_partially_ordered_same_type_values_sort_transitively():
    # frozenset's native < is the subset test (a partial order); mixing it
    # with a per-pair fallback used to create cycles like {2} < {1,2} <
    # {10} < {2}.  Uniform string ordering keeps the sort deterministic.
    x = Constant(frozenset({2}))
    y = Constant(frozenset({1, 2}))
    z = Constant(frozenset({10}))
    orders = [sorted(p) for p in ([x, y, z], [y, z, x], [z, x, y], [z, y, x])]
    assert all(o == orders[0] for o in orders)
