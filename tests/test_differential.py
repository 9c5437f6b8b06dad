"""Differential testing: the operator pipeline vs naive evaluation.

Every workload query (Q1/Q2/Q3) runs on small seeded social networks
through three executors -- the batched pipeline, the per-tuple reference
path, and naive active-domain join evaluation -- and must produce the
identical answer set for every parameter value.  Separately, every
controlled execution must stay within the plan's a-priori fanout bound.

Both differential tests are additionally parametrized over every storage
backend (via the ``backend_factory`` fixture): the executor is
backend-agnostic, so the answer sets and the bound compliance must be
identical whether the tuples live in dict indexes, SQLite, or shards.

A third test covers the plan cache's sharing: 640 renamed and reordered
writings of Q1-Q5 execute 26 shared plans, and each must answer like the
reference interpreter -- and charge like the pipeline -- on a plan
compiled from that writing itself.
"""

import itertools
import random

import pytest

from reference_executor import execute_per_tuple
from repro import Variable
from repro.core.executor import ExecutionContext, execute_plan
from repro.logic.parser import parse_query
from repro.workloads import (
    CITIES,
    RUNNING_QUERIES,
    generate_social_network,
    register_workload_views,
    social_engine,
)

SIZES_AND_SEEDS = [(20, 0), (20, 7), (60, 1), (120, 3)]


def _engines(backend_factory):
    for persons, seed in SIZES_AND_SEEDS:
        yield persons, seed, social_engine(
            persons, seed=seed, backend=backend_factory()
        )


@pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
def test_pipeline_matches_naive_evaluation_on_all_parameters(
    bundle, backend_factory
):
    for persons, seed, engine in _engines(backend_factory):
        prepared = bundle.prepare(engine)
        plan = prepared.plan(bundle.parameters)
        db = engine.require_database()
        query = parse_query(bundle.query, schema=engine.schema)
        param = bundle.parameters[0]
        for pid in range(persons):
            batched = set(execute_plan(plan, db, {param: pid}))
            per_tuple = set(execute_per_tuple(plan, db, {param: pid}))
            naive = set(query.evaluate(db, {param: pid}))
            assert batched == per_tuple == naive, (
                f"{bundle.name} disagrees at persons={persons} seed={seed} "
                f"pid={pid}"
            )


@pytest.mark.parametrize("bundle", RUNNING_QUERIES, ids=lambda b: b.name)
def test_every_controlled_execution_stays_within_fanout_bound(
    bundle, backend_factory
):
    for persons, seed, engine in _engines(backend_factory):
        prepared = bundle.prepare(engine)
        db = engine.require_database()
        param = bundle.parameters[0]
        for pid in range(persons):
            result = prepared.execute({param: pid})
            assert result.fanout_bound is not None
            assert result.stats.tuples_accessed <= result.fanout_bound, (
                f"{bundle.name} over bound at persons={persons} seed={seed} "
                f"pid={pid}: {result.stats.tuples_accessed} > "
                f"{result.fanout_bound}"
            )
            assert result.stats.full_scans == 0


def test_generated_instances_respect_declared_bounds():
    """The generator must keep the access schema truthful: the per-key
    group sizes can never exceed the declared rule bounds."""
    from repro.workloads import DEFAULT_MAX_FRIENDS, DEFAULT_MAX_VISITS

    for persons, seed in SIZES_AND_SEEDS:
        data = generate_social_network(persons, seed=seed)
        by_pid1: dict[object, int] = {}
        for pid1, _pid2 in data["friend"]:
            by_pid1[pid1] = by_pid1.get(pid1, 0) + 1
        assert all(n <= DEFAULT_MAX_FRIENDS for n in by_pid1.values())
        by_visitor: dict[object, int] = {}
        for pid, _url in data["visits"]:
            by_visitor[pid] = by_visitor.get(pid, 0) + 1
        assert all(n <= DEFAULT_MAX_VISITS for n in by_visitor.values())
        pids = [row[0] for row in data["person"]]
        assert len(set(pids)) == len(pids) == persons  # pid is a key


# Q1-Q5 as templates: head variable, body atoms (a quoted term is the city
# constant), parameter -- the shapes of the repository benchmark's ad-hoc
# text workloads.
SHAPES = (
    ("y", (("friend", "p", "y"), ("person", "y", "n", "'city'")), "p"),
    ("u", (("friend", "p", "y"), ("visits", "y", "u")), "p"),
    ("z", (("friend", "p", "y"), ("friend", "y", "z"), ("person", "z", "n", "'city'")), "p"),
    ("f", (("friend", "f", "p"), ("person", "f", "n", "'city'")), "p"),
    ("y", (("visits", "y", "u"),), "u"),
)


def shape_variants(seed: int, per_shape: int = 128, renames: int = 128):
    """``per_shape`` distinct writings of each shape, drawn from renaming
    x city x body order: ``(parameter, text)`` pairs."""
    rng = random.Random(seed)
    for head, atoms, parameter in SHAPES:
        variants = {}  # Q2 and Q5 mention no city: keep one of each text
        for rename, city, order in itertools.product(
            range(renames), CITIES, itertools.permutations(atoms)
        ):
            def term(t):
                if t.startswith("'"):
                    return f"'{city}'"
                return t if t == parameter or not rename else f"{t}{rename}"

            body = ", ".join(f"{a[0]}({', '.join(map(term, a[1:]))})" for a in order)
            variants[parameter, f"Q({term(head)}) :- {body}"] = None
        yield from rng.sample(list(variants), per_shape)


def test_renamed_and_reordered_writings_share_plans_and_match_the_reference(
    backend_factory,
):
    persons = 40
    engine = social_engine(persons, seed=3, backend=backend_factory())
    register_workload_views(engine)
    db = engine.require_database()
    urls = sorted({url for _, url in db.scan("visits")})
    variants = list(shape_variants(seed=1))
    assert len(variants) == len(set(variants)) == 640
    for i, (parameter, text) in enumerate(variants):
        values = {parameter: urls[i % len(urls)] if parameter == "u" else i % persons}
        result = engine.execute(text, values)
        # The reference: the caller's own query compiled as written (the
        # engine's selection included), run one tuple at a time for the
        # rows and -- the per-tuple interpreter does not batch equal keys,
        # so it may charge more -- through the pipeline for the accounting.
        names = frozenset({Variable(parameter)})
        _, state = engine._plan_key(None, names)
        (own,) = engine._compile(parse_query(text, schema=engine.schema), names, *state)
        views = engine.views.prepare(db, own.view_relations)
        reference = execute_per_tuple(own, ExecutionContext(db, views=views), values)
        assert set(result.rows) == set(reference), text
        assert len(result.rows) == len(reference), text
        ctx = ExecutionContext(db, views=views)
        assert set(execute_plan(own, ctx, values)) == set(reference), text
        assert result.stats == ctx.stats and not ctx.stats.full_scans, text
    stats = engine.cache_stats()
    # 5 shapes x 8 cities, less Q2 and Q5 which mention no city
    assert stats.misses == stats.size == 26
    assert stats.hits == 640 - 26
