"""Tests for scale-independent plan compilation and execution.

The acceptance scenario from the paper: compiling Q1 over the
friend/person schema yields a plan that answers the query through hash
indexes only -- zero full scans of unindexed relations -- with an access
count bounded by the access-rule cardinalities, not the database size.
"""

import pytest

from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Database,
    EmbeddedAccessRule,
    Equality,
    NotControlledError,
    compile_plan,
    execute_plan,
)
from repro.core.plans import FetchStep, ProbeStep

Q1 = ConjunctiveQuery(
    ["x"],
    [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
)


class TestCompile:
    def test_happy_path(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        assert [type(s) for s in plan.steps] == [FetchStep, FetchStep]
        assert plan.fanout_bound == 5000 + 5000 * 1
        assert "fetch" in plan.explain()

    def test_not_controlled_raises(self, social_access):
        with pytest.raises(NotControlledError, match="not controlled"):
            compile_plan(Q1, social_access)

    def test_missing_rule_raises(self, social_schema):
        access = AccessSchema(social_schema, [AccessRule("friend", ["pid1"], bound=10)])
        with pytest.raises(NotControlledError, match="person"):
            compile_plan(Q1, access, ["p"])

    def test_unknown_parameter_rejected(self, social_access):
        with pytest.raises(ValueError, match="not occurring"):
            compile_plan(Q1, social_access, ["zzz"])

    def test_most_selective_rule_wins(self, social_schema):
        access = AccessSchema(
            social_schema,
            [
                AccessRule("friend", ["pid1"], bound=5000),
                AccessRule("friend", ["pid1"], bound=10),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        assert plan.steps[0].rule.bound == 10


class TestExecute:
    def test_q1_without_scans(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        social_db.reset_stats()
        assert set(execute_plan(plan, social_db, p=1)) == {(2,)}
        assert social_db.stats.full_scans == 0
        assert social_db.stats.tuples_accessed <= plan.fanout_bound

    def test_matches_reference_evaluation(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        for pid in range(1, 6):
            assert set(execute_plan(plan, social_db, p=pid)) == set(
                Q1.evaluate(social_db, {"p": pid})
            )

    def test_access_count_independent_of_database_size(
        self, social_schema, social_access
    ):
        # Grow the database 100x: the plan's access count must not move.
        def build(n):
            return Database(
                social_schema,
                {
                    "person": [(i, f"u{i}", "NYC") for i in range(n)],
                    "friend": [(0, 1), (0, 2)] + [(i, (i + 1) % n) for i in range(3, n)],
                },
            )

        counts = []
        for n in (100, 10_000):
            db = build(n)
            plan = compile_plan(Q1, social_access, ["p"])
            db.reset_stats()
            assert set(execute_plan(plan, db, p=0)) == {(1,), (2,)}
            counts.append(db.stats.tuples_accessed)
            assert db.stats.full_scans == 0
        assert counts[0] == counts[1]

    def test_missing_parameter_value_rejected(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        with pytest.raises(ValueError, match="missing plan parameters"):
            execute_plan(plan, social_db)

    def test_unsatisfiable_equalities_compile_to_empty_plan(
        self, social_db, social_access
    ):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [Equality("?p", 1), Equality("?p", 2)],
        )
        plan = compile_plan(q, social_access)
        assert not plan.satisfiable
        assert plan.fanout_bound == 0
        assert execute_plan(plan, social_db) == ()

    def test_equality_constant_binds_parameterless_plan(
        self, social_db, social_access
    ):
        q = ConjunctiveQuery(
            ["x"], [Atom("friend", ["?p", "?x"])], [Equality("?p", 1)]
        )
        plan = compile_plan(q, social_access)
        assert set(execute_plan(plan, social_db)) == {(2,), (3,)}

    def test_embedded_rule_fetch_then_probe(self, social_schema, social_db):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        kinds = [type(s) for s in plan.steps]
        assert FetchStep in kinds and ProbeStep in kinds
        social_db.reset_stats()
        assert set(execute_plan(plan, social_db, p=1)) == {(2,)}
        assert social_db.stats.full_scans == 0

    def test_constants_in_atoms_are_used_as_keys(self, social_db, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", [4, "?x"])])
        plan = compile_plan(q, social_access)
        social_db.reset_stats()
        assert execute_plan(plan, social_db) == ((5,),)
        assert social_db.stats.full_scans == 0


def test_execute_rejects_bindings_that_are_not_parameters(
    social_db, social_access
):
    plan = compile_plan(Q1, social_access, ["p"])
    with pytest.raises(ValueError, match="not plan parameters"):
        execute_plan(plan, social_db, p=1, x=2)
    with pytest.raises(ValueError, match="not plan parameters"):
        execute_plan(plan, social_db, p=1, zzz=99)
