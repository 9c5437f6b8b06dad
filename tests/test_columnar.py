"""Tests for the columnar executor layer (repro.core.columnar and the
compiled pipeline built on it).

Covers slot-table compilation (variable -> column index, fixed per
plan), constant interning identity, fused-vs-unfused lowering equivalence
on seeded workloads, delta-join vectorization under mixed churn, and the
lowering a plan keeps (``pipeline_for``).
"""

import gc
import threading
import weakref
from sys import intern as sys_intern

import pytest

from reference_executor import execute_per_tuple
from repro import (
    AccessRule,
    AccessSchema,
    Atom,
    ConjunctiveQuery,
    Database,
    DatabaseSchema,
    RelationSchema,
    compile_plan,
)
from repro.core.columnar import SlotTable
from repro.core.executor import (
    ExecutionContext,
    FetchOp,
    OldState,
    PlanProfile,
    ProjectDedupOp,
    build_pipeline,
    delta_program,
    execute_plan,
    merge_parameter_values,
    pipeline_cache_stats,
    pipeline_for,
)
from repro.logic.terms import Constant, Variable
from repro.relational.interning import intern_row, intern_rows, intern_value
from repro.workloads import (
    RUNNING_QUERIES,
    generate_churn,
    generate_social_network,
    social_engine,
)

P, X, N = Variable("p"), Variable("x"), Variable("n")


class TestSlotTable:
    def test_first_seen_order_and_dedup(self):
        table = SlotTable([P, X, P, N, X])
        assert table.variables == (P, X, N)
        assert [table.slot(v) for v in (P, X, N)] == [0, 1, 2]

    def test_container_protocol(self):
        table = SlotTable([P, X])
        assert len(table) == 2
        assert P in table and N not in table
        assert list(table) == [P, X]


class TestSlotCompilation:
    """The per-plan slot table compiled at lowering time."""

    def q1_plan(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
        )
        return compile_plan(q, social_access, ["p"])

    def test_slots_cover_parameters_atoms_and_head(self, social_access):
        pipe = build_pipeline(self.q1_plan(social_access))
        assert set(pipe.slots.variables) == {P, X, N}
        assert pipe.slots.variables[0] == P  # parameters lead
        # One column per variable slot plus the trailing sign slot.
        assert pipe.width == len(pipe.slots.variables) + 1

    def test_seed_slots_are_the_declared_parameters(self, social_access):
        pipe = build_pipeline(self.q1_plan(social_access))
        assert [(slot, var) for slot, var in pipe.seed_slots] == [
            (pipe.slots.slot(P), P)
        ]
        assert pipe.params == frozenset([P])

    def test_unsatisfiable_plan_lowers_to_the_empty_pipeline(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"])],
            [
                # ?p equated to two distinct constants: unsatisfiable.
                *(
                    __import__("repro").Equality(P, Constant(value))
                    for value in (1, 2)
                )
            ],
        )
        plan = compile_plan(q, social_access, ["p"])
        pipe = build_pipeline(plan)
        assert pipe == ()
        assert pipe.source == ""  # nothing generated
        assert pipe.run(ExecutionContext(None), pipe.seed({P: 1})) == ()


class TestInterningIdentity:
    def test_merge_parameter_values_interns_exact_strings(self):
        # A runtime-built string is a distinct object pre-interning.
        city = "".join(["N", "Y", "C"])
        values = merge_parameter_values({"c": city}, {})
        assert values[Variable("c")] is sys_intern("NYC")

    def test_kwargs_and_constant_wrappers_intern_too(self):
        values = merge_parameter_values(
            {"a": Constant("".join(["S", "F"]))}, {"b": "".join(["L", "A"])}
        )
        assert values[Variable("a")] is sys_intern("SF")
        assert values[Variable("b")] is sys_intern("LA")

    def test_str_subclasses_and_non_strings_pass_through(self):
        class Label(str):
            pass

        label = Label("NYC")
        assert intern_value(label) is label  # sys.intern rejects subclasses
        assert intern_value(42) == 42

    def test_intern_row_returns_original_tuple_when_all_numeric(self):
        row = (1, 2.5, 3)
        assert intern_row(row) is row

    def test_intern_rows_matches_intern_row_column_by_column(self):
        class Label(str):
            pass

        url, label = "".join(["u", "1"]), Label("u1")
        rows = [(url, 1, None), ("".join(["u", "1"]), 2, label), (url, 3, "x")]
        interned = intern_rows(rows)
        assert interned == [intern_row(row) for row in rows] == rows
        assert all(row[0] is sys_intern("u1") for row in interned)  # an all-str column
        assert interned[1][2] is label and interned[2][2] is sys_intern("x")  # a mixed one
        numeric = [(1, 2.5), (3, 4.5)]
        assert intern_rows(numeric) == numeric
        assert intern_rows({(): 1}) == [()] and intern_rows([]) == []

    def test_stored_rows_share_the_parameter_string_object(self):
        schema = DatabaseSchema([RelationSchema("person", ["pid", "city"])])
        db = Database(schema, {"person": [(1, "".join(["N", "Y", "C"]))]})
        ((row,),) = db.lookup_keys("person", (0,), [(1,)])
        values = merge_parameter_values({"c": "".join(["N", "Y", "C"])}, {})
        # Both sides funneled through interning: identity, not just equality.
        assert row[1] is values[Variable("c")]


class TestFusion:
    def test_trailing_fetch_and_project_fuse(self, social_access):
        q = ConjunctiveQuery(
            ["x"],
            [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])],
        )
        pipe = build_pipeline(compile_plan(q, social_access, ["p"]))
        # The descriptions stay addressable one by one...
        assert isinstance(pipe[-2], FetchOp)
        assert isinstance(pipe[-1], ProjectDedupOp)
        # ...while the generated terminal is written from the pair: the
        # last fetch builds the answer rows inside its loop over the groups
        # it read, with no projection statement of its own.
        lines = [line.strip() for line in pipe.source.splitlines()]
        read, terminal = lines[lines.index("return rows") - 2 : lines.index("return rows")]
        assert read.startswith("groups = src.lookup_keys(")
        assert terminal.startswith("rows = list(dict.fromkeys([") and "groups" in terminal
        # The counting pass a profile measures runs the pair unfused: one
        # line per operator, the same rows in the same order.
        db = social_engine(60, seed=1).require_database()
        ctx = ExecutionContext(db)
        ctx.profile = profile = PlanProfile(pipe.plan)
        program = pipe.program()
        counts = program.count(ctx, program.seed({P: 1}))
        assert tuple(counts) == execute_plan(pipe.plan, db, p=1)
        assert [line.operator for line in profile.operators] == list(map(str, pipe))

    @pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
    def test_fused_equals_unfused_on_seeded_workload(self, bundle):
        """The fused lowering (execute_plan) against the unfused one (the
        signed levels the counting pass runs) and the per-tuple reference."""
        engine = social_engine(60, seed=1)
        db = engine.require_database()
        prepared = bundle.prepare(engine)
        plan = prepared.plan(bundle.parameters)
        param = bundle.parameters[0]
        for pid in range(0, 60, 7):
            values = {param: pid}
            fused = execute_plan(plan, db, values)
            program = delta_program(plan)
            seeded = program.seed(merge_parameter_values(values, {}))
            unfused = program.count(ExecutionContext(db), seeded)
            reference = set(execute_per_tuple(plan, db, values))
            assert list(unfused) == list(fused), f"{bundle.name} at pid={pid}"
            assert set(fused) == reference, f"{bundle.name} diverges at pid={pid}"

    def test_fused_terminal_keys_on_every_bound_position(self, social_db):
        # ?c is a parameter at a non-input position of the terminal atom:
        # the fused terminal must constrain it exactly like the reference.
        schema = social_db.schema
        access = AccessSchema(
            schema,
            [
                AccessRule("friend", ["pid1"], bound=10),
                AccessRule("person", ["pid"], bound=1),
            ],
        )
        q = ConjunctiveQuery(
            ["x", "m"],
            [
                Atom("friend", ["?p", "?x"]),
                Atom("person", ["?x", "?m", "?c"]),
            ],
        )
        plan = compile_plan(q, access, ["p", "c"])
        for city in ("NYC", "SF", "nowhere"):
            values = {"p": 1, "c": city}
            assert set(execute_plan(plan, social_db, values)) == set(
                execute_per_tuple(plan, social_db, values)
            )


class TestDeltaVectorization:
    """The delta face over a many-row signed batch must equal the
    row-at-a-time decomposition -- vectorization changes the batching,
    never the multiset of signed derivations."""

    def _delta_ctx(self, persons=50, seed=2):
        engine = social_engine(persons, seed=seed)
        db = engine.require_database()
        mark = db.change_log.watermark
        for batch in generate_churn(
            generate_social_network(persons, seed=seed),
            batches=3,
            batch_size=15,
            seed=seed + 1,
            delete_fraction=0.5,  # mixed churn: inserts and deletes
        ):
            batch.apply(db)
        delta = db.change_log.net_since(mark)
        assert any(sign > 0 for net in delta.values() for sign in net.values())
        assert any(sign < 0 for net in delta.values() for sign in net.values())
        return engine, db, delta

    @staticmethod
    def _friends_level(engine):
        """The single signed level of ``Q(x) :- friend(p, x)`` plus a
        helper applying one of its faces to ``(pid, sign)`` pairs and
        returning the signed multiset of ``(pid, x, sign)`` derivations."""
        q = ConjunctiveQuery(["p", "x"], [Atom("friend", ["?p", "?x"])])
        plan = compile_plan(q, engine.access, ["p"])
        pipe = pipeline_for(plan)
        ((_, step, delta, _),), _ = pipe.signed()
        p_slot, x_slot = pipe.slots.slot(P), pipe.slots.slot(X)

        def apply(face, source, stats, pairs):
            columns = [None] * pipe.width
            columns[p_slot] = [pid for pid, _ in pairs]
            columns[-1] = [sign for _, sign in pairs]
            out, n = face(source, stats, columns, len(pairs))
            if not n:
                return []
            return sorted(zip(out[p_slot], out[x_slot], out[-1]))

        return step, delta, apply

    def test_batched_delta_equals_row_at_a_time(self):
        engine, db, delta = self._delta_ctx()
        _, delta_face, apply = self._friends_level(engine)
        pairs = [(pid, 1 if pid % 2 else -1) for pid in range(12)]
        ctx = ExecutionContext(db, delta=delta)
        vectorized = apply(delta_face, ctx.slice, ctx.stats, pairs)
        one_by_one = []
        for pair in pairs:
            ctx1 = ExecutionContext(db, delta=delta)
            one_by_one.extend(apply(delta_face, ctx1.slice, ctx1.stats, [pair]))
        assert vectorized and vectorized == sorted(one_by_one)
        assert ctx.stats.tuples_accessed == 0  # the slice lives in memory

    def test_old_and_delta_telescope_to_the_new_state(self):
        """old + delta == new, as multisets of derivations, for a fetch
        over the mutated relation -- the telescoping identity the
        incremental driver relies on, checked at the level closures."""
        engine, db, delta = self._delta_ctx()
        step, delta_face, apply = self._friends_level(engine)
        for pid in range(0, 50, 11):
            seed = [(pid, 1)]
            ctx = ExecutionContext(db, delta=delta)
            new_rows = sorted(x for _, x, _ in apply(step, db, ctx.stats, seed))
            counts: dict = {}
            for face, source in ((step, OldState(db, ctx.slice)), (delta_face, ctx.slice)):
                for _, x, sign in apply(face, source, ctx.stats, seed):
                    counts[x] = counts.get(x, 0) + sign
            telescoped = sorted(v for v, c in counts.items() for _ in range(c))
            assert telescoped == new_rows, f"telescoping fails at pid={pid}"


Q1 = ConjunctiveQuery(
    ["x"], [Atom("friend", ["?p", "?x"]), Atom("person", ["?x", "?n", "NYC"])]
)


class TestPipelineCache:
    def test_pipeline_for_is_cached_with_observable_stats(self, social_access):
        q = ConjunctiveQuery(["x"], [Atom("friend", ["?p", "?x"])])
        plan = compile_plan(q, social_access, ["p"])
        first = pipeline_for(plan)
        before = pipeline_cache_stats()
        assert pipeline_for(plan) is first
        after = pipeline_cache_stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_a_lowering_dies_with_its_plan(self, social_access):
        plan = compile_plan(Q1, social_access, ["p"])
        pipe = pipeline_for(plan)
        # A Pipeline is a tuple subclass (no weak references): watch the
        # function generated for it instead.
        closure = weakref.ref(pipe.run)
        assert closure() is not None
        del plan, pipe
        gc.collect()
        assert closure() is None

    def test_racing_first_uses_agree_and_one_lowering_stays(self, social_access, social_db):
        plan = compile_plan(Q1, social_access, ["p"])
        start = threading.Barrier(8)
        answers: list[object] = []

        def lower_and_run():
            start.wait()
            pipe = pipeline_for(plan)
            answers.append(tuple(pipe.run(ExecutionContext(social_db), pipe.seed({P: 1}))))

        threads = [threading.Thread(target=lower_and_run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert answers == [((2,),)] * 8
        assert pipeline_for(plan) is pipeline_for(plan)

    def test_a_renamed_plan_inherits_no_lowering(self, social_access, social_db):
        plan = compile_plan(Q1, social_access, ["p"])
        assert plan._pipeline is None and pipeline_for(plan) is plan._pipeline
        twin = ConjunctiveQuery(
            ["y"], [Atom("friend", ["?p", "?y"]), Atom("person", ["?y", "?m", "NYC"])]
        )
        renaming = {"x": Variable("y"), "n": Variable("m")}
        written = plan.renamed(twin, renaming, twin.body)
        assert written._pipeline is None
        assert pipeline_for(written) is not pipeline_for(plan)
        assert Variable("y") in pipeline_for(written).slots
        assert Variable("x") not in pipeline_for(written).slots
        assert execute_plan(written, social_db, p=1) == execute_plan(plan, social_db, p=1)
