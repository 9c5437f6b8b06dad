"""Tests for the lowered physical pipeline (repro.core.executor): one
lowering of operator descriptions into slot closures, run by every entry
point -- execute, counting, delta, profile -- over one read source.

The pipeline must agree with the per-tuple reference path on every query
shape the planner can emit and touch no more tuples than it; profile_plan /
explain_analyze measure the plan's counting pass, which reads what the
execute reads and derives the same rows in the same order.
"""

import linecache
import os
import traceback

import pytest

from reference_executor import execute_per_tuple
from sql_oracle import SqlOracle
from repro import (
    AccessRule,
    AccessSchema,
    AccessStats,
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    DatabaseSchema,
    EmbeddedAccessRule,
    Engine,
    Equality,
    IncrementalError,
    RelationSchema,
    SchemaError,
    compile_plan,
    parse_query,
)
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    FilterOp,
    OldState,
    Pipeline,
    ProbeOp,
    ProjectDedupOp,
    build_pipeline,
    delta_program,
    execute_plan,
    pipeline_for,
    profile_plan,
)
from repro.logic.terms import Variable
from repro.workloads import (
    RUNNING_QUERIES,
    SOCIAL_ACCESS,
    SOCIAL_SCHEMA,
    VIEW_QUERIES,
    generate_social_network,
    register_workload_views,
    sample_urls,
    social_engine,
)

Q1 = ConjunctiveQuery(
    ["x"],
    [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
)
P = Variable("p")


def counting(plan, db, values):
    """``plan``'s answers with their derivation counts on ``db``."""
    program = delta_program(plan)
    return program.count(ExecutionContext(db), program.seed(values))


class TestPipelineShape:
    def test_q1_pipeline_operators(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        ops = build_pipeline(plan)
        assert [type(op) for op in ops] == [FetchOp, FetchOp, ProjectDedupOp]

    def test_embedded_rule_produces_probe(self, social_schema):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        ops = build_pipeline(plan)
        assert ProbeOp in {type(op) for op in ops}
        fetch = next(op for op in ops if isinstance(op, FetchOp))
        assert fetch.dedup_positions is not None

    def test_unsatisfiable_plan_has_empty_pipeline(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [Equality("?p", 1), Equality("?p", 2)],
        )
        plan = compile_plan(q, social_access)
        assert build_pipeline(plan) == ()

    def test_pipeline_is_memoized_per_plan(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        assert pipeline_for(plan) is pipeline_for(plan)

    def test_operators_render(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        rendered = [str(op) for op in build_pipeline(plan)]
        assert any("fetch" in line for line in rendered)
        assert any("project/dedup" in line for line in rendered)

    def test_descriptions_carry_no_interpreter(self, social_access):
        pipe = build_pipeline(compile_plan(Q1, social_access, ["p"]))
        for op in pipe:
            assert not any(hasattr(op, name) for name in ("run", "run_delta", "run_old"))
        assert not hasattr(Pipeline, "fused") and not hasattr(pipe, "fused")

    def test_pure_expansion_tail_fuses_into_the_terminal(self, social_db, social_access):
        # The trailing fetch builds the answer rows inside its own loop
        # over the groups it read: the projection has no statement of its
        # own.
        pipe = build_pipeline(compile_plan(Q1, social_access, ["p"]))
        lines = [line.strip() for line in pipe.source.splitlines()]
        read, terminal = lines[lines.index("return rows") - 2 : lines.index("return rows")]
        assert read.startswith("groups = src.lookup_keys(")
        assert terminal.startswith("rows = list(dict.fromkeys([") and "groups" in terminal
        assert execute_plan(pipe.plan, social_db, p=1) == ((2,),)

    def test_checked_tail_lowers_unfused(self, social_db, social_schema):
        # friend(x, x) must bind ?x consistently at both positions: not a
        # pure expansion, so the fetch stays a level of its own (the
        # general join loop) and the projection is a statement of its own
        # that reads nothing.
        access = AccessSchema(social_schema, [AccessRule("friend", [], bound=100)])
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?x"])])
        pipe = build_pipeline(compile_plan(q, access))
        assert isinstance(pipe[0], FetchOp)
        lines = [line.strip() for line in pipe.source.splitlines()]
        exit, terminal = lines[lines.index("return rows") - 2 : lines.index("return rows")]
        assert exit == "return ()" and "groups" not in terminal
        social_db.insert_many("friend", [(3, 3), (5, 5)])
        profile = profile_plan(pipe.plan, social_db)
        assert [line.operator for line in profile.operators] == [str(pipe[0]), str(pipe[-1])]
        assert profile.operators[-1].tuples_accessed == 0
        assert profile.rows == execute_plan(pipe.plan, social_db) == ((3,), (5,))

    def test_signed_faces_are_lowered_on_first_use_only(self, social_db, social_access, monkeypatch):
        import repro.core.executor as executor

        builds = []
        lower_signed = executor._lower_signed
        monkeypatch.setattr(executor, "_lower_signed", lambda pipe: builds.append(pipe) or lower_signed(pipe))
        plan = compile_plan(Q1, social_access, ["p"])
        pipe = pipeline_for(plan)
        execute_plan(plan, social_db, p=1)
        execute_plan(plan, social_db, p=2)
        assert builds == []  # executing never pays for them
        profile_plan(plan, social_db, p=1)
        counting(plan, social_db, {P: 1})
        counting(plan, social_db, {P: 2})
        levels, _ = pipe.signed()
        assert len(builds) == 1 and builds[0] is pipe  # built once, on first (profiling) use
        assert [ops for _, _, _, ops in levels] == [(pipe[0],), (pipe[1],)]
        assert all(callable(delta.keys) and callable(delta.over) for _, _, delta, _ in levels)


class TestBatchedMatchesPerTuple:
    def test_q1_every_parameter(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        for pid in range(1, 7):
            batched = execute_plan(plan, social_db, p=pid)
            reference = execute_per_tuple(plan, social_db, p=pid)
            assert set(batched) == set(reference)
            assert set(batched) == set(Q1.evaluate(social_db, {"p": pid}))

    def test_batched_touches_no_more_tuples(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        social_db.reset_stats()
        execute_plan(plan, social_db, p=1)
        batched = social_db.stats.snapshot()
        social_db.reset_stats()
        execute_per_tuple(plan, social_db, p=1)
        per_tuple = social_db.stats.snapshot()
        assert batched.tuples_accessed <= per_tuple.tuples_accessed
        assert batched.tuples_accessed <= plan.fanout_bound
        assert batched.full_scans == 0

    def test_repeated_variable_atom(self, social_db, social_access):
        # friend(x, x): the same new variable at two positions must bind
        # consistently.
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?x", "?x"])])
        access = AccessSchema(
            social_db.schema, [AccessRule("friend", [], bound=100)]
        )
        plan = compile_plan(q, access)
        social_db.add("friend", (7, 7))
        assert set(execute_plan(plan, social_db)) == {(7,)}
        assert set(execute_per_tuple(plan, social_db)) == {(7,)}

    def test_embedded_rule_matches_reference(self, social_schema, social_db):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        for pid in range(1, 7):
            assert set(execute_plan(plan, social_db, p=pid)) == set(
                execute_per_tuple(plan, social_db, p=pid)
            ) == set(Q1.evaluate(social_db, {"p": pid}))

    def test_constants_used_as_keys(self, social_db, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", [4, "?x"])])
        plan = compile_plan(q, social_access)
        social_db.reset_stats()
        assert execute_plan(plan, social_db) == ((5,),)
        assert social_db.stats.full_scans == 0


class TestParameterEqualities:
    """Equalities that involve plan parameters become FilterOp work."""

    def _friend_setup(self):
        schema = DatabaseSchema([RelationSchema("friend", ["a", "b"])])
        access = AccessSchema(schema, [AccessRule("friend", ["a"], bound=10)])
        db = Database(schema, {"friend": [(1, 2), (1, 3), (2, 4)]})
        return access, db

    def test_parameter_equated_to_variable_either_orientation(self):
        access, db = self._friend_setup()
        for left, right in (("?p", "?x"), ("?x", "?p")):
            q = ConjunctiveQuery(
                ["y"], [Atom("friend", ["?x", "?y"])], [Equality(left, right)]
            )
            plan = compile_plan(q, access, ["p"])
            db.reset_stats()
            assert set(execute_plan(plan, db, p=1)) == {(2,), (3,)}
            assert db.stats.full_scans == 0
            assert set(execute_per_tuple(plan, db, p=1)) == {(2,), (3,)}

    def test_parameter_equated_to_constant_filters_values(self):
        access, db = self._friend_setup()
        q = ConjunctiveQuery(
            ["y"], [Atom("friend", ["?p", "?y"])], [Equality("?p", 1)]
        )
        plan = compile_plan(q, access, ["p"])
        ops = build_pipeline(plan)
        assert isinstance(ops[0], FilterOp)
        assert set(execute_plan(plan, db, p=1)) == {(2,), (3,)}
        assert execute_plan(plan, db, p=2) == ()  # contradicts ?p = 1
        assert execute_per_tuple(plan, db, p=2) == ()

    def test_two_parameters_in_same_class_must_agree(self):
        access, db = self._friend_setup()
        q = ConjunctiveQuery(
            ["y"],
            [Atom("friend", ["?p", "?y"])],
            [Equality("?p", "?q")],
        )
        plan = compile_plan(q, access, ["p", "q"])
        assert set(execute_plan(plan, db, p=1, q=1)) == {(2,), (3,)}
        assert execute_plan(plan, db, p=1, q=2) == ()
        assert execute_per_tuple(plan, db, p=1, q=2) == ()


class TestEntryPointValidation:
    def test_missing_parameter_rejected(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        with pytest.raises(ValueError, match="missing plan parameters"):
            execute_plan(plan, social_db)

    def test_extra_binding_rejected(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        with pytest.raises(ValueError, match="not plan parameters"):
            execute_plan(plan, social_db, p=1, zzz=9)

    def test_unsatisfiable_returns_empty(self, social_db, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [Equality("?p", 1), Equality("?p", 2)],
        )
        plan = compile_plan(q, social_access)
        assert execute_plan(plan, social_db) == ()
        assert execute_per_tuple(plan, social_db) == ()


class TestProfile:
    def test_profile_reports_the_compiled_steps(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        profile = profile_plan(plan, social_db, p=1)
        assert profile.rows == execute_plan(plan, social_db, p=1)
        first, second, project = profile.operators  # one entry per operator
        assert first.operator.startswith("fetch friend")
        assert first.rows_in == 1  # the seed assignment
        assert first.rows_out == 2  # person 1 has two friends
        assert second.operator.startswith("fetch person") and second.rows_in == 2
        assert second.tuples_accessed == 1  # of persons 2 and 3 only 2 is in NYC
        assert project.operator.startswith("project/dedup")
        assert (project.rows_in, project.rows_out) == (second.rows_out, len(profile.rows))
        assert (project.tuples_accessed, project.indexed_lookups, project.wall_time_s) == (0, 0, 0.0)
        assert profile.tuples_accessed <= plan.fanout_bound
        assert "fetch" in str(profile)

    def test_a_returned_profile_records_no_later_run(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        ctx = ExecutionContext(social_db)
        profile = profile_plan(plan, ctx, p=1)
        program = delta_program(plan)
        program.count(ctx, program.seed({P: 2}))
        assert ctx.profile is None and len(profile.operators) == 3

    def test_profile_row_counts_chain_and_stop_early(self, social_db, social_access):
        q = ConjunctiveQuery(
            ["y"],
            [
                Atom("friend", ["?p", "?x"]),
                Atom("friend", ["?x", "?y"]),
                Atom("person", ["?y", "?n", "NYC"]),
            ],
        )
        plan = compile_plan(q, social_access, ["p"])
        profile = profile_plan(plan, social_db, p=1)
        for prev, nxt in zip(profile.operators, profile.operators[1:]):
            assert nxt.rows_in == prev.rows_out
        # Nobody follows person 99: the run (and so the profile) stops
        # after the first step, exactly like execute_plan.
        empty = profile_plan(plan, social_db, p=99)
        assert empty.rows == () and len(empty.operators) == 1

    def test_profile_includes_the_seed_filter(self):
        schema = DatabaseSchema([RelationSchema("friend", ["a", "b"])])
        access = AccessSchema(schema, [AccessRule("friend", ["a"], bound=10)])
        db = Database(schema, {"friend": [(1, 2)]})
        q = ConjunctiveQuery(["y"], [Atom("friend", ["?p", "?y"])], [Equality("?p", 1)])
        plan = compile_plan(q, access, ["p"])
        passed = profile_plan(plan, db, p=1)
        assert passed.operators[0].operator.startswith("filter")
        assert passed.rows == ((2,),)
        rejected = profile_plan(plan, db, p=2)
        assert rejected.rows == () and len(rejected.operators) == 1
        assert rejected.operators[0].rows_out == 0


def _workload_cases():
    """Q1-Q3 on base plans, Q4/Q5 view-assisted through V1/V2."""
    engine = social_engine(80, seed=3)
    register_workload_views(engine)
    urls = sample_urls(generate_social_network(80, seed=3), 5, seed=3)
    for bundle in (*RUNNING_QUERIES, *VIEW_QUERIES):
        param = bundle.parameters[0]
        values = urls if param == "u" else range(0, 80, 17)
        yield engine, bundle, [{param: value} for value in values]


class TestExplainAnalyzeObservesTheRun:
    """explain_analyze measures the counting pass of the plan an execute
    runs: the same reads, the same rows in the same order, and
    per-operator accounting that sums to the execution's."""

    def test_q1_to_q5_rows_and_stats_match_execute(self):
        for engine, bundle, parameter_sets in _workload_cases():
            prepared = bundle.prepare(engine)
            for values in parameter_sets:
                analyzed = prepared.explain_analyze(values)
                executed = prepared.execute(values)
                assert analyzed.result.rows == executed.rows, bundle.name
                assert analyzed.result.stats == executed.stats, bundle.name
                operators = [op for p in analyzed.profiles for op in p.operators]
                summed = AccessStats(
                    sum(op.tuples_accessed for op in operators),
                    sum(op.indexed_lookups for op in operators),
                    sum(op.full_scans for op in operators),
                )
                assert summed == executed.stats, bundle.name

    def test_view_assisted_profiles_name_the_view_operators(self):
        for engine, bundle, parameter_sets in _workload_cases():
            if bundle not in VIEW_QUERIES:
                continue
            rendered = str(bundle.prepare(engine).explain_analyze(parameter_sets[0]))
            assert "view scan" in rendered

    def test_analyzed_refresh_labels_faces_with_unanalysed_accounting(self):
        for bundle in RUNNING_QUERIES:
            engine = social_engine(60, seed=1)
            db = engine.require_database()
            prepared = bundle.prepare(engine)
            plain = prepared.execute_incremental(p=2)
            analysed = prepared.execute_incremental(p=2)
            db.insert_many("friend", [(2, 59), (59, 3)])
            db.delete_many("friend", db.lookup("friend", {0: 2})[:1])
            plain.refresh()
            analysed.refresh(analyze=True)
            assert analysed.rows == plain.rows
            assert analysed.stats == plain.stats
            operators = [op for p in analysed.profiles for op in p.operators]
            faces = [op.operator.split(" ", 1)[0] for op in operators]
            assert all(
                face.split("[")[0] in {"new", "Δ", "old", "filter", "project/dedup"}
                for face in faces
            )
            assert any(face.startswith("Δ[") for face in faces)
            assert sum(op.tuples_accessed for op in operators) == plain.stats.tuples_accessed
            assert sum(op.indexed_lookups for op in operators) == plain.stats.indexed_lookups
            # The slice join touches no stored tuples.
            assert all(
                op.tuples_accessed == 0
                for op in operators
                if op.operator.startswith("Δ[")
            )


class TestExecutionContext:
    """The per-execution context: double-entry accounting and the change
    slice the delta faces and the old-state wrapper read."""

    def test_reads_charge_context_and_database(self, social_db, social_access):
        social_db.reset_stats()
        ctx = ExecutionContext(social_db)
        execute_plan(compile_plan(Q1, social_access, ["p"]), ctx, p=1)
        assert ctx.stats == social_db.stats
        # friend(1, .) holds 2 rows; of persons 2 and 3 only 2 is in NYC.
        assert ctx.stats.tuples_accessed == 3 and ctx.stats.indexed_lookups == 3

    def test_two_contexts_do_not_share_stats(self, social_db, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        a, b = ExecutionContext(social_db), ExecutionContext(social_db)
        execute_plan(plan, a, p=1)
        assert b.stats.tuples_accessed == 0
        assert a.stats.tuples_accessed == 3

    def test_delta_index_groups_by_positions(self, social_db):
        delta = {"friend": {(1, 9): 1, (1, 8): -1, (2, 9): 1}}
        ctx = ExecutionContext(social_db, delta=delta)
        index = ctx.slice.index("friend", (0,))
        assert set(index) == {(1,), (2,)}
        assert set(index[(1,)]) == {((1, 9), 1), ((1, 8), -1)}
        assert ctx.slice.index("friend", (0,)) is index  # memoized
        assert ctx.slice.sizes == {"friend": 3}

    def test_empty_slice(self, social_db):
        assert ExecutionContext(social_db).slice is None  # never touched
        ctx = ExecutionContext(social_db, delta={})
        assert ctx.slice.net == {}
        assert ctx.slice.index("friend", (0,)) == {}
        assert "ExecutionContext" in repr(ctx)

    def test_the_only_reads_are_the_backend_pair(self):
        forwarded = {"lookup", "lookup_many", "lookup_keys", "contains"}
        forwarded |= {"contains_many", "contains_rows", "scan"}
        names = set(dir(ExecutionContext))
        assert not names & forwarded
        assert not any(n.endswith("_old") or n.startswith("view_") for n in names)
        # A context holds only what a run reads; profiling sets ``profile``.
        assert set(ExecutionContext.__slots__) == {"db", "stats", "slice", "views", "profile"}
        assert ExecutionContext(None).profile is None


class TestOldState:
    """The one pre-delta snapshot wrapper, over any read source."""

    def _mutated(self, social_db):
        mark = social_db.change_log.watermark
        social_db.insert_many("friend", [(1, 9), (2, 9)])
        social_db.delete_many("friend", [(1, 2)])
        delta = social_db.change_log.net_since(mark)
        ctx = ExecutionContext(social_db, delta=delta)
        return ctx, OldState(social_db, ctx.slice)

    def test_drops_inserts_and_restores_deletes_under_their_key_only(self, social_db):
        ctx, old = self._mutated(social_db)
        keys = [(1,), (2,), (1,), (3,)]
        groups = old.lookup_keys("friend", (0,), keys, ctx.stats)
        # (1, 9) and (2, 9) did not exist then; (1, 2) did -- once, under
        # key (1,) only (a repeated key shares the rewound group).
        assert [sorted(g) for g in groups] == [
            [(1, 2), (1, 3)],
            [(2, 4)],
            [(1, 2), (1, 3)],
            [(3, 4)],
        ]
        assert groups[0] is groups[2]
        (new,) = social_db.lookup_keys("friend", (0,), [(1,)])
        assert sorted(new) == [(1, 3), (1, 9)]
        # Rewinding probed the slice index, not every deleted row per key.
        assert ("friend", (0,)) in ctx.slice._index

    def test_live_reads_are_accounted_as_usual(self, social_db):
        ctx, old = self._mutated(social_db)
        social_db.reset_stats()
        old.lookup_keys("friend", (0,), [(1,), (3,)], ctx.stats)
        assert ctx.stats == social_db.stats
        assert (ctx.stats.tuples_accessed, ctx.stats.indexed_lookups) == (3, 2)

    def test_none_valued_key_components_match(self):
        schema = DatabaseSchema([RelationSchema("r", ["a", "b"])])
        db = Database(schema, {"r": [(None, 1), (None, 2), (3, None)]})
        mark = db.change_log.watermark
        db.delete_many("r", [(None, 1), (3, None)])
        db.insert_many("r", [(None, 7)])
        ctx = ExecutionContext(db, delta=db.change_log.net_since(mark))
        old = OldState(db, ctx.slice)
        (by_a,) = old.lookup_keys("r", (0,), [(None,)])
        assert sorted(by_a, key=str) == [(None, 1), (None, 2)]
        (by_b,) = old.lookup_keys("r", (1,), [(None,)])
        assert list(by_b) == [(3, None)]

    def test_keyless_lookup_rewinds_the_whole_relation(self, social_db):
        ctx, old = self._mutated(social_db)
        groups = old.lookup_keys("friend", (), [(), ()])
        assert groups[0] is groups[1]
        assert sorted(groups[0]) == [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 1)]

    def test_membership_is_answered_from_the_slice_first(self, social_db):
        ctx, old = self._mutated(social_db)
        verdicts = old.contains_rows(
            "friend", [(1, 9), (1, 2), (2, 4), (7, 7)], ctx.stats
        )
        assert verdicts == (False, True, True, False)
        # Only the two slice-unknown rows were probed.
        assert ctx.stats.indexed_lookups == 2

    def test_empty_slice_passes_live_answers_through_untouched(self, social_db):
        ctx = ExecutionContext(social_db, delta={})
        old = OldState(social_db, ctx.slice)
        live = social_db.lookup_keys("friend", (0,), [(1,), (2,)])
        rewound = old.lookup_keys("friend", (0,), [(1,), (2,)])
        # The memory backend hands out its live buckets; no copy was made.
        assert all(a is b for a, b in zip(live, rewound))
        assert old.contains_rows("friend", [(1, 2), (9, 9)]) == (True, False)
        assert not ctx.slice._index  # the slice index was never built


class TestDeltaFaces:
    def test_keyless_fetch_delta_joins_every_slice_row(self, social_db):
        q = ConjunctiveQuery(["x", "y"], [Atom("friend", ["?x", "?y"])])
        access = AccessSchema(social_db.schema, [AccessRule("friend", [], bound=100)])
        plan = compile_plan(q, access)
        fetch = next(op for op in pipeline_for(plan) if isinstance(op, FetchOp))
        assert fetch.key_positions == ()
        ctx = ExecutionContext(social_db, delta={"friend": {(8, 9): 1, (1, 2): -1}})
        program = delta_program(plan)
        assert program.join(ctx, program.seed({})) == {(8, 9): 1, (1, 2): -1}
        assert ctx.stats == AccessStats()  # the slice lives in memory

    def test_embedded_fetch_is_rejected_by_both_signed_entry_points(
        self, social_schema, social_db
    ):
        access = AccessSchema(
            social_schema,
            [
                EmbeddedAccessRule("friend", ["pid1"], ["pid2"], bound=100),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        plan = compile_plan(Q1, access, ["p"])
        # Eagerly: before any data is read or any slice is looked at --
        # there is no delta program for counting or delta runs to use.
        with pytest.raises(IncrementalError, match="embedded"):
            delta_program(plan)
        engine = Engine(social_schema, access, {})
        with pytest.raises(IncrementalError, match="embedded"):
            engine.query(Q1).execute_incremental(p=1)
        # ... while its counting pass still profiles the execute.
        assert profile_plan(plan, social_db, p=1).rows == execute_plan(plan, social_db, p=1)

    def test_probe_delta_carries_the_change_sign(self, social_db, social_access):
        # "mutual friends of ?p": the second atom is fully bound -> a probe.
        q = ConjunctiveQuery(
            ["x"], [Atom("friend", ["?p", "?x"]), Atom("friend", ["?x", "?p"])]
        )
        plan = compile_plan(q, social_access, ["p"])
        assert any(isinstance(op, ProbeOp) for op in pipeline_for(plan))
        social_db.insert_many("friend", [(2, 1), (3, 1)])
        before = counting(plan, social_db, {P: 1})
        assert before == {(2,): 1, (3,): 1}
        mark = social_db.change_log.watermark
        social_db.delete_many("friend", [(2, 1), (1, 3)])
        social_db.insert_many("friend", [(1, 5)])
        ctx = ExecutionContext(social_db, delta=social_db.change_log.net_since(mark))
        program = delta_program(plan)
        changes = program.join(ctx, program.seed({P: 1}))
        # x=2 lost its back edge (probe level), x=3 its out edge (fetch
        # level), x=5 gained both a fresh out edge and an existing back one.
        assert changes == {(2,): -1, (3,): -1, (5,): 1}
        after = counting(plan, social_db, {P: 1})
        merged = {row: before.get(row, 0) + changes.get(row, 0) for row in {*before, *changes}}
        assert {row: c for row, c in merged.items() if c} == after

    def test_faces_share_levels_and_multiply_signs(self, social_db, social_access):
        """Drive one level's closures directly: the delta face multiplies
        the batch's signs by the slice's, and old + delta telescopes to
        new -- the identity the delta rule rests on."""
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        plan = compile_plan(q, social_access, ["p"])
        pipe = pipeline_for(plan)
        ((view, step, delta, _),), accumulate = pipe.signed()
        assert view is None
        mark = social_db.change_log.watermark
        social_db.insert_many("friend", [(1, 9), (2, 9)])
        social_db.delete_many("friend", [(1, 2)])
        ctx = ExecutionContext(social_db, delta=social_db.change_log.net_since(mark))
        p_slot = pipe.slots.slot(pipe.seed_slots[0][1])

        def batch(pids, signs):
            columns = [None] * pipe.width
            columns[p_slot] = list(pids)
            columns[-1] = list(signs)
            return columns

        def folded(face, source, pids, signs):
            into = {}
            columns, n = face(source, ctx.stats, batch(pids, signs), len(pids))
            if n:
                accumulate(columns, n, into)
            return into

        # Signs multiply: a -1 input row joined with a +1 slice row is -1.
        assert folded(delta, ctx.slice, [1, 2, 3], [-1, 1, 1]) == {(9,): 0, (2,): 1}
        assert folded(delta, ctx.slice, [1], [-1]) == {(9,): -1, (2,): 1}
        for pid in (1, 2, 3):
            new = folded(step, social_db, [pid], [1])
            old = folded(step, OldState(social_db, ctx.slice), [pid], [1])
            change = folded(delta, ctx.slice, [pid], [1])
            telescoped = {r: old.get(r, 0) + change.get(r, 0) for r in {*old, *change}}
            assert {r: c for r, c in telescoped.items() if c} == new


#: Constants a query text can carry that would change generated code if
#: it were spliced in as text.
HOSTILE = (
    "it's",
    'say "hi"',
    "back\\slash",
    "new\nline",
    '"""',
    "{} %s",
    "__import__('os').system('x')",
)
SHAPES = (
    "Q(y) :- friend(p, y), person(y, n, {c})",
    "Q(z, c) :- friend(p, y), friend(y, z), person(z, n, c), c = {c}",
)


class TestGeneratedCode:
    """One emitter writes every face as Python source whose values are all
    bound arguments: the text is a function of the plan's structure."""

    @staticmethod
    def sources(pipe):
        """The unsigned pipeline's text and the signed lowering's."""
        levels, _ = pipe.signed()
        return pipe.source, "".join(linecache.getlines(levels[0][1].__code__.co_filename))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_no_constant_reaches_the_source(self, shape, backend_factory):
        schema = DatabaseSchema.parse(SOCIAL_SCHEMA)
        access = AccessSchema.parse(schema, SOCIAL_ACCESS)
        cities = ("NYC", *HOSTILE)
        persons = [(pid, f"n{pid}", cities[pid % len(cities)]) for pid in range(24)]
        friends = [(a, (a * 7 + k) % 24) for a in range(24) for k in (1, 2, 5)]
        data = {"person": persons, "friend": friends, "visits": []}
        engine = Engine(schema, access, data=data, backend=backend_factory())
        oracle = SqlOracle(schema, data)

        def lowered(city):
            query = parse_query(shape.format(c=str(Constant(city))), schema)
            return query, pipeline_for(compile_plan(query, access, ["p"]))

        _, plain = lowered("NYC")
        for city in HOSTILE:
            query, pipe = lowered(city)
            assert self.sources(pipe) == self.sources(plain)
            assert not any(city in text for text in self.sources(pipe))
            assert pipe.run.__code__ is plain.run.__code__  # one compile per text
            prepared = engine.query(query)
            for pid in range(24):
                assert set(prepared.execute(p=pid).rows) == oracle.answers(query, {"p": pid})

    def test_generated_frames_count_as_the_package(self, social_access):
        import repro

        pipe = pipeline_for(compile_plan(Q1, social_access, ["p"]))
        levels, accumulate = pipe.signed()
        for function in (pipe.run, accumulate, *(face for level in levels for face in level[1:3])):
            code = function.__code__
            assert code.co_filename.startswith(os.path.dirname(repro.__file__))
            assert not code.co_name.startswith("<")

    def test_a_traceback_shows_the_generated_line(self):
        engine = social_engine(40, seed=1)
        register_workload_views(engine)
        plan = VIEW_QUERIES[0].prepare(engine).plan(["p"])  # Q4 reads V1
        with pytest.raises(SchemaError) as failed:
            execute_plan(plan, ExecutionContext(engine.require_database()), p=1)
        assert str(failed.value) == (
            "plan reads materialized view 'V1' but the execution context carries no "
            "state for it; execute view-assisted plans through the Engine (or pass "
            "views= when opening the ExecutionContext)"
        )
        text = "".join(traceback.format_exception(failed.value))
        assert "src = ctx.store(a0)" in text
