"""Tests for the QSI and QDSI deciders."""

import pytest

from repro import (
    Atom,
    ConjunctiveQuery,
    Database,
    MemoryBackend,
    UnionOfConjunctiveQueries,
    decide_qdsi,
    decide_qsi,
    parse_query,
)

Q1 = ConjunctiveQuery(
    ["x"],
    [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
)


class TestQSI:
    def test_controlled_cq_is_scale_independent(self, social_access):
        result = decide_qsi(Q1, social_access, ["p"])
        assert result
        assert all(c.controlled for c in result.coverages)

    def test_uncontrolled_cq_is_not(self, social_access):
        result = decide_qsi(Q1, social_access)
        assert not result
        assert "not controlled" in result.reason

    def test_ucq_needs_every_disjunct_controlled(self, social_access):
        good = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        # Every disjunct holds the parameter (else ValueError, as for
        # compile_plan); no rule reads friend by its second position.
        bad = ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?p"])])
        assert decide_qsi(
            UnionOfConjunctiveQueries([good]), social_access, ["p"]
        )
        assert not decide_qsi(
            UnionOfConjunctiveQueries([good, bad]), social_access, ["p"]
        )

    def test_only_cq_and_ucq_are_decided(self, social_access):
        # QSI is undecidable for first-order queries (Theorem 3.1): a bare
        # atom or an unparsed text is not a query decide_qsi accepts.
        for other in (Atom("friend", ["?x", 1]), "Q(x) :- friend(x, 1)"):
            with pytest.raises(TypeError, match="cannot decide QSI"):
                decide_qsi(other, social_access)


class TestQDSI:
    def test_plan_within_budget(self, social_db, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", [1, "?x"])])
        result = decide_qdsi(q, social_db, social_access, budget=10)
        assert result
        assert result.plan is not None
        assert set(result.answers) == {(2,), (3,)}
        assert result.tuples_accessed <= 10

    def test_budget_exceeded(self, social_db, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", [1, "?x"])])
        result = decide_qdsi(q, social_db, social_access, budget=1)
        assert not result
        assert "over budget" in result.reason

    def test_uncontrolled_query_on_small_database(self, social_db, social_access):
        # Not controlled, but the concrete database is tiny: direct
        # evaluation fits the budget, which is what makes QDSI data-specific.
        q = ConjunctiveQuery(["x", "y"], [Atom("friend", ["?x", "?y"])])
        result = decide_qdsi(q, social_db, social_access, budget=1000)
        assert result
        assert result.plan is None

    def test_negative_budget_rejected(self, social_db, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", [1, "?x"])])
        with pytest.raises(ValueError):
            decide_qdsi(q, social_db, social_access, budget=-1)


class Crowded(MemoryBackend):
    """A store another execution reads at the same time: every keyed read
    and every scan comes with one more, charged to the database's
    cumulative counters only -- what a concurrent execute adds."""

    def lookup_keys(self, relation, positions, keys, stats=None):
        super().lookup_keys(relation, positions, keys)
        return super().lookup_keys(relation, positions, keys, stats)

    def scan(self, relation, stats=None):
        super().scan(relation)
        return super().scan(relation, stats)


@pytest.mark.parametrize(
    "text, path",
    [
        ("Q(y) :- friend(1, y), person(y, n, c)", "plan"),
        ("Q(y) :- friend(x, y), person(y, n, 'NYC')", "keyed"),
        ("Q(x, y) :- friend(x, y)", "scan"),
    ],
    ids=["plan", "fallback-keyed", "fallback-scan"],
)
def test_the_qdsi_count_is_the_deciders_own(social_schema, social_db, social_access, text, path):
    query = parse_query(text)
    alone = decide_qdsi(query, social_db, social_access, budget=1000)
    assert (alone.plan is not None) == (path == "plan") and alone.tuples_accessed > 0
    rows = {name: list(social_db.backend.iter_rows(name)) for name in social_schema.names}
    crowded = Database(social_schema, rows, backend=Crowded())
    beside = decide_qdsi(query, crowded, social_access, budget=alone.tuples_accessed)
    assert beside and beside.tuples_accessed == alone.tuples_accessed
    assert beside.answers == alone.answers
    assert crowded.stats.tuples_accessed == 2 * alone.tuples_accessed  # the other reads happened
