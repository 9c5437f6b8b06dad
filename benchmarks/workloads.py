"""The five benchmark workloads, from generated inputs to checked rows.

Every workload is a closed loop with one client: the next operation is
issued when the previous one has returned.  A workload is set up from a
seed alone (``setup``), checked against naive evaluation (``oracle``)
and then measured in *segments*: a segment is a fixed sequence of
operations, identical on every commit and on every repetition, so the
exact counts (tuples accessed, cache hits) of a segment repeat bit for
bit while its timings are summarised per segment and the medians over
segments are reported.  The traced variants run the same operations with
spans around each public call (see :mod:`trace`) plus *probes*: the same
layer function called again in isolation next to the operation.

Why these five -- each stresses a different set of layers, so that an
optimisation has one workload that exercises it and one that bypasses it:

* ``warm_prepared``: the hot path; executor + memory backend do all the
  work, parser/planner/cost/certifier none.
* ``adhoc_text_fits``: text in, rows out, 40 distinct texts -- fits the
  128-entry plan cache; parser + schema validation dominate.
* ``adhoc_text_overflow``: 640 distinct texts visited cyclically, so the
  LRU plan cache misses on every operation; planner, view rewriting,
  cost selection, certifier and pipeline lowering dominate.
* ``churn_refresh``: writes beside reads; the delta faces of the
  executor, the change log and view maintenance.
* ``scale_sqlite``: the paper's headline on the out-of-core backend at
  two database sizes; SQL round trips dominate and set-up is expensive.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from repro import (
    Database,
    DatabaseSchema,
    Engine,
    ExecutionContext,
    MemoryBackend,
    NotControlledError,
    SqliteBackend,
    Variable,
    build_pipeline,
    compile_plan,
    execute_plan,
    parse_query,
)
from repro.analysis.certify import check_plan
from repro.analysis.cost import check_selection, estimate_plan
from repro.core.executor import pipeline_cache_stats
from repro.views import compile_with_views
from repro.workloads import (
    CITIES,
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    SOCIAL_ACCESS,
    SOCIAL_SCHEMA,
    generate_churn,
    generate_social_network,
    register_workload_views,
    sample_pids,
    sample_urls,
    stream_social_network,
)

from trace import TimedBackend, Tracer

QUERIES = (Q1, Q2, Q3, Q4, Q5)


@dataclass(frozen=True)
class Sizes:
    """Every size of a run.  Segment lengths are operation counts and are
    the same on every commit; ``--seconds`` only decides how many whole
    segments are measured."""

    persons: int  # memory instance; also the reference SQLite size and block
    large_persons: int  # the measured SQLite size
    stream: int  # length of each parameter stream
    warm_segment: int  # warm_prepared operations per segment
    fits_segment: int  # adhoc_text_fits operations per segment
    overflow_segment: int  # adhoc_text_overflow operations per segment
    churn_pids: int  # persons with maintained results (3 results each)
    churn_batches: int  # generated batches B; a period (= a segment) is 2B cycles
    churn_warmup: int  # cycles run untimed by a set-up
    sqlite_ref_segment: int  # reference-size operations per segment
    sqlite_large_segment: int  # large-size operations per segment
    oracle: int  # parameters per query checked against naive evaluation
    exact: int  # block-0 parameters per query replayed at both SQLite sizes
    min_segments: int  # segments measured however short --seconds is
    setups: int  # set-ups per untraced run; setup_s is their median


FULL = Sizes(
    persons=10_000,
    large_persons=30_000,
    stream=4096,
    warm_segment=20_480,
    fits_segment=4_096,
    overflow_segment=2_560,
    churn_pids=16,
    churn_batches=512,
    churn_warmup=128,
    sqlite_ref_segment=5_120,
    sqlite_large_segment=10_240,
    oracle=64,
    exact=1_024,
    min_segments=3,
    setups=3,
)
SMOKE = Sizes(
    persons=400,
    large_persons=1_200,
    stream=64,
    warm_segment=200,
    fits_segment=80,
    overflow_segment=50,
    churn_pids=4,
    churn_batches=4,
    churn_warmup=4,
    sqlite_ref_segment=50,
    sqlite_large_segment=100,
    oracle=8,
    exact=32,
    min_segments=2,
    setups=1,
)


def percentile(ordered: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


#: What :func:`host_probe_ns` takes on this box in its fast state.
NOMINAL_PROBE_NS = 3_250_000


def host_probe_ns() -> int:
    """Time a fixed pure-CPU loop: the speed of the host right now.

    The sandbox's host switches, for seconds to minutes at a time, between
    states in which the same code runs up to 50 % slower (other tenants on
    the core); whole 8 s runs land in one state or another, so raw wall
    times of one commit spread by 20-35 % between runs.  Every timed chunk
    is therefore bracketed by this probe and its times are scaled to the
    nominal host speed (see :func:`timed_chunks`).  The loop is small and
    allocation-free on purpose: its own time does not depend on what the
    workload did to the heap or the caches.
    """
    begin = perf_counter_ns()
    total = 0
    for i in range(60_000):
        total += i * i
    return perf_counter_ns() - begin


def timed_chunks(count: int, chunk: int, run_chunk) -> dict:
    """Run operations ``0..count`` in chunks of ``chunk`` and summarise.

    ``run_chunk(lo, hi)`` times operations ``lo..hi`` and returns
    ``(series, wall_ns)``: named lists of per-operation ns samples and the
    chunk's wall time.  Each chunk is scaled by ``NOMINAL_PROBE_NS`` over
    the mean of the host probes before and after it -- a chunk lasts
    ~0.15 s, well under the host's state changes.  Returns
    ``<series>_p50_us`` / ``_p99_us`` of the scaled samples and
    ``ops_per_s`` over the scaled wall time, with the raw ``op`` median
    and the mean scale beside them.
    """
    scaled: dict[str, list[float]] = {}
    raw_op: list[int] = []
    wall = raw_wall = 0.0
    probe = host_probe_ns()
    for lo in range(0, count, chunk):
        series, chunk_wall = run_chunk(lo, min(lo + chunk, count))
        after = host_probe_ns()
        scale = 2 * NOMINAL_PROBE_NS / (probe + after)
        probe = after
        for name, samples in series.items():
            scaled.setdefault(name, []).extend([sample * scale for sample in samples])
        raw_op += series["op"]
        wall += chunk_wall * scale
        raw_wall += chunk_wall
    out = {
        "ops": len(raw_op),
        "ops_per_s": len(raw_op) / (wall / 1e9),
        "host_scale": wall / raw_wall,
    }
    for name, samples in scaled.items():
        samples.sort()
        out[name + "_p50_us"] = percentile(samples, 0.50) / 1e3
        out[name + "_p99_us"] = percentile(samples, 0.99) / 1e3
    out["raw_op_p50_us"] = percentile(sorted(raw_op), 0.50) / 1e3
    return out


def record_calls(calls: list[tuple]) -> list[tuple]:
    """One untimed pass over ``calls`` (``(function, arguments)`` pairs
    returning a ``ResultSet``): the rows and tuple count of each, which is
    what every later pass must return."""
    expected = []
    for function, arguments in calls:
        result = function(*arguments)
        expected.append((result.rows, result.stats.tuples_accessed))
    return expected


def run_calls(calls: list[tuple], expected: list[tuple], chunk: int) -> dict:
    """The untraced timed loop of the query workloads: every call timed on
    its own, then -- outside its time -- checked against ``expected`` and
    the accounting rules.  The loop calls ``function(*arguments)`` directly
    so that no benchmark frame sits inside the timed region."""
    counts = {"tuples": 0, "failed": 0}

    def run_chunk(lo: int, hi: int):
        latencies = [0] * (hi - lo)
        tuples = failed = 0
        clock = perf_counter_ns
        begin = clock()
        for i in range(lo, hi):
            function, arguments = calls[i]
            t0 = clock()
            result = function(*arguments)
            latencies[i - lo] = clock() - t0
            stats = result.stats
            tuples += stats.tuples_accessed
            rows, touched = expected[i]
            if (
                result.rows != rows
                or stats.tuples_accessed != touched
                or touched > result.fanout_bound
                or stats.full_scans
            ):
                failed += 1
        wall = clock() - begin
        counts["tuples"] += tuples
        counts["failed"] += failed
        return {"op": latencies}, wall

    return {**timed_chunks(len(calls), chunk, run_chunk), **counts}


def same_rows(left, right) -> bool:
    """Row-set equality for answers whose order may legitimately differ."""
    return len(left) == len(right) and set(left) == set(right)


class Workload:
    """Shared shape: seed -> set-up -> oracle -> segments -> close."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, tracer: Tracer | None, workdir: str):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        #: Set-up time by layer, seconds (filled by ``setup``).
        self.layers: dict[str, float] = {}
        self.ops_done = 0  # traced operations so far (the trace's op ids)

    # -- helpers ---------------------------------------------------------

    def _backend(self, inner):
        return inner if self.tracer is None else TimedBackend(inner, self.tracer)

    def _timed(self, layer: str, start: float) -> float:
        now = perf_counter()
        self.layers[layer] = self.layers.get(layer, 0.0) + now - start
        return now

    def _memory_engine(self) -> tuple[Engine, dict]:
        """The social network at ``persons`` in a memory-backed engine
        with V1/V2 registered and materialised."""
        t = perf_counter()
        data = generate_social_network(self.sizes.persons, seed=self.seed)
        t = self._timed("workloads.generate_s", t)
        engine = Engine(
            SOCIAL_SCHEMA,
            SOCIAL_ACCESS,
            data,
            backend=self._backend(MemoryBackend()),
            certify=True,
        )
        self.rows_loaded = sum(len(rows) for rows in data.values())
        t = self._timed("relational.load_s", t)
        register_workload_views(engine)
        engine.views.refresh(engine.database)
        self._timed("views.materialize_s", t)
        return engine, data

    def _streams(self, data) -> list[list[dict]]:
        """One parameter stream per query (Q1-Q4 by person, Q5 by url)."""
        sizes = self.sizes
        pids = [{"p": p} for p in sample_pids(sizes.persons, sizes.stream, seed=self.seed)]
        urls = [{"u": u} for u in sample_urls(data, sizes.stream, seed=self.seed)]
        return [pids, pids, pids, pids, urls]

    def _oracle_db(self, data) -> Database:
        """A separate memory instance for naive evaluation: evaluating
        naively builds indexes the measured database must not carry."""
        return Database(DatabaseSchema.parse(SOCIAL_SCHEMA), data)

    def counters(self) -> dict[str, float]:
        """Exact counters of the program's own caches and stores."""
        cache = self.engine.cache_stats()
        pipe = pipeline_cache_stats()
        db = self.engine.database
        return {
            "plan_hits": cache.hits,
            "plan_misses": cache.misses,
            "plan_evictions": cache.evictions,
            "pipe_hits": pipe.hits,
            "pipe_misses": pipe.misses,
            "changelog_entries": len(db.change_log),
            "view_rows": sum(
                len(self.engine.views.state(name) or ())
                for name in self.engine.views.names()
            ),
        }

    def close(self) -> None:
        """Release what outlives the object (files, connections)."""

    def setup(self) -> None:
        raise NotImplementedError

    def oracle(self) -> tuple[int, int]:
        """``(checked, mismatched)`` against naive evaluation."""
        raise NotImplementedError

    def segment(self) -> dict:
        raise NotImplementedError

    def traced_segment(self) -> dict:
        raise NotImplementedError


# -- prepared queries (warm_prepared, both sizes of scale_sqlite) ---------


class PreparedOps:
    """A fixed round-robin sequence of ``prepared.execute(params)`` over
    Q1-Q5, with the rows and tuple counts every repetition must return."""

    def __init__(self, engine: Engine, streams: list[list[dict]], count: int):
        self.engine = engine
        self.prepared = [bundle.prepare(engine) for bundle in QUERIES]
        self.names = [bundle.parameters for bundle in QUERIES]
        self.ops = [
            (i % 5, self.prepared[i % 5], streams[i % 5][(i // 5) % len(streams[i % 5])])
            for i in range(count)
        ]
        executes = [prepared.execute for prepared in self.prepared]
        self.calls = [(executes[qi], (params,)) for qi, _, params in self.ops]
        self.expected: list[tuple] = []

    #: Operations per timed chunk (~0.15 s on either backend).
    chunk = 8_192

    def warm_up(self) -> None:
        self.expected = record_calls(self.calls)

    def run(self) -> dict:
        return run_calls(self.calls, self.expected, self.chunk)

    def run_traced(self, tracer: Tracer, first_op: int) -> dict:
        """The same operations under spans, each followed by its probes:
        ``prepared.plan`` (a plan-cache hit) and ``execute_plan`` on that
        plan, whose rows and tuple count must equal the operation's."""
        ops, expected = self.ops, self.expected
        engine, db = self.engine, self.engine.database
        api_execute = tracer.name_id("api.execute")
        probe = tracer.name_id("probe")
        plan_hit = tracer.name_id("api.plan.hit")
        execute = [tracer.name_id(f"executor.execute.{b.name}") for b in QUERIES]
        counts = {"tuples": 0, "failed": 0, "rows_out": 0, "headroom": 0.0, "cost_estimate": 0.0}

        def run_chunk(lo: int, hi: int):
            latencies = [0] * (hi - lo)
            tracer.active = True
            for i in range(lo, hi):
                qi, prepared, params = ops[i]
                tracer.op_id = first_op + i
                span = tracer.begin(api_execute)
                result = prepared.execute(params)
                tracer.end(span)
                latencies[i - lo] = tracer.stop[span] - tracer.start[span]
                stats = result.stats
                counts["tuples"] += stats.tuples_accessed
                counts["rows_out"] += len(result.rows)
                counts["headroom"] += stats.tuples_accessed / result.fanout_bound

                tracer.op_id = ~(first_op + i)
                outer = tracer.begin(probe)
                span = tracer.begin(plan_hit)
                plan = prepared.plan(self.names[qi])
                tracer.end(span)
                views = plan.view_relations
                ctx = ExecutionContext(
                    db, views=engine.views.prepare(db, views) if views else None
                )
                span = tracer.begin(execute[qi])
                probed = execute_plan(plan, ctx, params)
                tracer.end(span)
                tracer.end(outer)
                counts["cost_estimate"] += plan.cost_estimate

                rows, touched = expected[i]
                if (
                    result.rows != rows
                    or probed != rows
                    or stats.tuples_accessed != touched
                    or ctx.stats.tuples_accessed != touched
                    or stats.full_scans
                ):
                    counts["failed"] += 1
            tracer.active = False
            return {"op": latencies}, sum(latencies)

        return {**timed_chunks(len(ops), self.chunk, run_chunk), **counts}

    def check(self, oracle_db: Database, count: int) -> tuple[int, int]:
        """The first ``count`` parameters of every query against naive
        evaluation on ``oracle_db``."""
        checked = mismatched = 0
        for qi, prepared in enumerate(self.prepared):
            for _, _, params in self.ops[qi::5][:count]:
                checked += 1
                naive = prepared.query.evaluate(oracle_db, params)
                if not same_rows(prepared.execute(params).rows, naive):
                    mismatched += 1
        return checked, mismatched


class WarmPrepared(Workload):
    name = "warm_prepared"

    def setup(self) -> None:
        self.engine, self.data = self._memory_engine()
        self.run = PreparedOps(
            self.engine, self._streams(self.data), self.sizes.warm_segment
        )
        self.run.warm_up()

    def oracle(self) -> tuple[int, int]:
        return self.run.check(self._oracle_db(self.data), self.sizes.oracle)

    def segment(self) -> dict:
        return self.run.run()

    def traced_segment(self) -> dict:
        out = self.run.run_traced(self.tracer, self.ops_done)
        self.ops_done += out["ops"]
        return out


# -- ad-hoc query text (adhoc_text_fits, adhoc_text_overflow) -------------

#: Q1-Q5 as templates: head variable, body atoms, parameter.  A quoted
#: term is the city constant.
_SHAPES = (
    ("Q1", "y", (("friend", ("p", "y")), ("person", ("y", "n", "'city'"))), "p"),
    ("Q2", "u", (("friend", ("p", "y")), ("visits", ("y", "u"))), "p"),
    (
        "Q3",
        "z",
        (
            ("friend", ("p", "y")),
            ("friend", ("y", "z")),
            ("person", ("z", "n", "'city'")),
        ),
        "p",
    ),
    ("Q4", "f", (("friend", ("f", "p")), ("person", ("f", "n", "'city'"))), "p"),
    ("Q5", "y", (("visits", ("y", "u")),), "u"),
)


def query_text(shape, rename: int, city: str, order) -> str:
    """One variant of a shape: non-parameter variables suffixed with
    ``rename``, the city constant replaced, the body atoms permuted."""
    _, head, atoms, parameter = shape

    def term(t: str) -> str:
        if t.startswith("'"):
            return f"'{city}'"
        return t if t == parameter or not rename else f"{t}{rename}"

    body = ", ".join(
        f"{relation}({', '.join(map(term, terms))})"
        for relation, terms in (atoms[i] for i in order)
    )
    return f"Q({term(head)}) :- {body}"


def text_pool(seed: int, per_shape: int, renames: int, reorder: bool) -> list[tuple[int, str]]:
    """``per_shape`` distinct texts of each Q1-Q5 shape, drawn with
    ``seed`` from renaming x city x (optionally) body order."""
    rng = random.Random(seed * 7919 + per_shape)
    pool: list[tuple[int, str]] = []
    for qi, shape in enumerate(_SHAPES):
        identity = tuple(range(len(shape[2])))
        orders = list(itertools.permutations(identity)) if reorder else [identity]
        variants = list(
            dict.fromkeys(
                query_text(shape, rename, city, order)
                for rename in range(renames)
                for city in CITIES
                for order in orders
            )
        )
        pool.extend((qi, text) for text in rng.sample(variants, per_shape))
    rng.shuffle(pool)
    return pool


class AdhocText(Workload):
    """``engine.execute(text, params)`` over a seeded pool of texts."""

    per_shape = 0  # texts per shape; the pool is five times this
    renames = 0
    reorder = False
    cyclic = False  # visit the pool cyclically (else seeded random draws)
    chunk = 0  # operations per timed chunk (~0.15 s)

    def setup(self) -> None:
        self.engine, self.data = self._memory_engine()
        sizes = self.sizes
        count = sizes.fits_segment if not self.cyclic else sizes.overflow_segment
        streams = self._streams(self.data)
        pool = text_pool(self.seed, self.per_shape, self.renames, self.reorder)
        rng = random.Random(self.seed * 104729 + 7)
        picks = (
            [i % len(pool) for i in range(count)]
            if self.cyclic
            else rng.choices(range(len(pool)), k=count)
        )
        self.ops = [
            (pool[pick][0], pool[pick][1], streams[pool[pick][0]][i % sizes.stream])
            for i, pick in enumerate(picks)
        ]
        execute = self.engine.execute
        self.calls = [(execute, (text, params)) for _, text, params in self.ops]
        self.expected = record_calls(self.calls)

    def oracle(self) -> tuple[int, int]:
        oracle_db = self._oracle_db(self.data)
        mismatched = 0
        ops = self.ops[: self.sizes.oracle * 5]
        for _, text, params in ops:
            naive = parse_query(text).evaluate(oracle_db, params)
            if not same_rows(self.engine.execute(text, params).rows, naive):
                mismatched += 1
        return len(ops), mismatched

    def segment(self) -> dict:
        return run_calls(self.calls, self.expected, self.chunk)

    def traced_segment(self) -> dict:
        """Each operation as its three public calls -- ``engine.query``,
        ``prepared.plan``, ``prepared.execute`` (what ``engine.execute``
        does, plus one plan-cache hit) -- then the probes: parse and
        validate on their own, every compile stage when ``prepared.plan``
        missed the cache, and ``execute_plan`` on the plan."""
        tracer, engine = self.tracer, self.engine
        db, schema, access = engine.database, engine.schema, engine.access
        catalog = engine.views.snapshot()
        definitions = catalog.definitions()
        ids = {
            name: tracer.name_id(name)
            for name in (
                "op",
                "api.query",
                "api.plan.hit",
                "api.plan.cold",
                "api.execute",
                "probe",
                "logic.parse",
                "schema.validate",
                "plans.compile",
                "views.rewrite.compile",
                "cost.estimate",
                "certify.check",
                "executor.lower",
            )
        }
        execute = [tracer.name_id(f"executor.execute.{b.name}") for b in QUERIES]
        begin_span, end_span = tracer.begin, tracer.end
        ops, expected = self.ops, self.expected
        first_op = self.ops_done
        counts = {"tuples": 0, "failed": 0, "rows_out": 0, "headroom": 0.0, "cost_estimate": 0.0}

        def run_chunk(lo: int, hi: int):
            latencies = [0] * (hi - lo)
            tracer.active = True
            for i in range(lo, hi):
                latencies[i - lo] = traced_op(i)
            tracer.active = False
            return {"op": latencies}, sum(latencies)

        def traced_op(i: int) -> int:
            qi, text, params = ops[i]
            names = QUERIES[qi].parameters
            misses = engine.cache_stats().misses
            tracer.op_id = first_op + i
            outer = begin_span(ids["op"])
            span = begin_span(ids["api.query"])
            prepared = engine.query(text)
            end_span(span)
            plan_span = begin_span(ids["api.plan.hit"])
            plan = prepared.plan(names)
            end_span(plan_span)
            span = begin_span(ids["api.execute"])
            result = prepared.execute(params)
            end_span(span)
            end_span(outer)
            latency = tracer.stop[outer] - tracer.start[outer]
            cold = engine.cache_stats().misses != misses
            if cold:
                tracer.name[plan_span] = ids["api.plan.cold"]
            stats = result.stats
            counts["tuples"] += stats.tuples_accessed
            counts["rows_out"] += len(result.rows)
            counts["headroom"] += stats.tuples_accessed / result.fanout_bound
            counts["cost_estimate"] += plan.cost_estimate

            tracer.op_id = ~(first_op + i)
            outer = begin_span(ids["probe"])
            span = begin_span(ids["logic.parse"])
            query = parse_query(text)
            end_span(span)
            span = begin_span(ids["schema.validate"])
            schema.validate_query(query)
            end_span(span)
            if cold:
                parameters = tuple(Variable(name) for name in names)
                span = begin_span(ids["plans.compile"])
                try:
                    base = compile_plan(query, access, parameters)
                except NotControlledError:
                    base = None
                end_span(span)
                span = begin_span(ids["views.rewrite.compile"])
                try:
                    augmented = compile_with_views(query, access, catalog, parameters)
                except NotControlledError:
                    augmented = None
                end_span(span)
                if base is not None and augmented is not None:
                    span = begin_span(ids["cost.estimate"])
                    estimates = sorted(
                        (estimate_plan(base), estimate_plan(augmented)),
                        key=lambda estimate: estimate.total,
                    )
                    check_selection(estimates[0], estimates[1:])
                    end_span(span)
                span = begin_span(ids["certify.check"])
                check_plan(plan, access, definitions)
                end_span(span)
                span = begin_span(ids["executor.lower"])
                build_pipeline(plan)
                end_span(span)
            views = plan.view_relations
            ctx = ExecutionContext(
                db, views=engine.views.prepare(db, views) if views else None
            )
            span = begin_span(execute[qi])
            probed = execute_plan(plan, ctx, params)
            end_span(span)
            end_span(outer)

            rows, touched = expected[i]
            if (
                result.rows != rows
                or probed != rows
                or stats.tuples_accessed != touched
                or ctx.stats.tuples_accessed != touched
                or stats.full_scans
            ):
                counts["failed"] += 1
            return latency

        out = {**timed_chunks(len(ops), self.chunk, run_chunk), **counts}
        self.ops_done += len(ops)
        return out


class AdhocTextFits(AdhocText):
    name = "adhoc_text_fits"
    per_shape = 8  # 40 texts < the 128-entry plan cache
    renames = 16
    chunk = 1_024


class AdhocTextOverflow(AdhocText):
    name = "adhoc_text_overflow"
    per_shape = 128  # 640 texts, visited cyclically: LRU(128) always misses
    renames = 128
    reorder = True
    cyclic = True
    chunk = 256


# -- writes beside reads (churn_refresh) -----------------------------------

#: Mutations per batch: half over the maintained results' neighbourhood,
#: half over the rest of the instance.
BATCH = 16


def _restrict(data: dict, sources: set) -> dict:
    """The sub-instance of ``sources``: those persons and *all* their
    out-edges, so out-degrees (hence the access caps) stay truthful."""
    return {
        "person": [row for row in data["person"] if row[0] in sources],
        "friend": [row for row in data["friend"] if row[0] in sources],
        "visits": [row for row in data["visits"] if row[0] in sources],
    }


class ChurnRefresh(Workload):
    """Each cycle: apply one 16-mutation batch, refresh every maintained
    result, read Q4 and Q5 (which brings V1/V2 up to date), then --
    outside the operation's time -- recompute every maintained result,
    which gives ``refresh_vs_recompute`` and is the oracle.

    ``churn_batches`` generated batches are replayed forward and then
    inverted in reverse order, so after one *period* the database is back
    in its initial state: the stream never ends, the caps hold at every
    point, and every period does identical logical work."""

    name = "churn_refresh"

    def setup(self) -> None:
        sizes = self.sizes
        self.engine, self.data = self._memory_engine()
        engine, data = self.engine, self.data
        self.db = engine.database
        t = perf_counter()
        friends: dict[object, list] = {}
        for source, target in data["friend"]:
            friends.setdefault(source, []).append(target)
        visits: dict[object, int] = {}
        for source, _ in data["visits"]:
            visits[source] = visits.get(source, 0) + 1
        # Maintained persons are drawn evenly over the out-degree
        # distribution (ties: over how many edges their results depend on).
        # Every refresh that sees a non-empty slice fetches its person's
        # friends, so with persons drawn blindly the seed, not the program,
        # would set tuples and time per cycle (27 % spread over ten seeds).
        candidates = list(
            dict.fromkeys(sample_pids(sizes.persons, 16 * sizes.churn_pids, seed=self.seed))
        )

        def dependencies(pid) -> int:
            near = friends.get(pid, ())
            return len(near) + sum(len(friends.get(y, ())) + visits.get(y, 0) for y in near)

        candidates.sort(key=lambda pid: (len(friends.get(pid, ())), dependencies(pid), pid))
        step = len(candidates) / sizes.churn_pids
        pids = [candidates[int((i + 0.5) * step)] for i in range(sizes.churn_pids)]
        hot = set(pids)
        frontier = set(pids)
        for _ in range(2):
            frontier = {t for s in frontier for t in friends.get(s, ())} - hot
            hot |= frontier
        cold = {row[0] for row in data["person"]} - hot
        if not cold:
            raise ValueError("the maintained neighbourhood covers the whole instance")
        half = BATCH // 2
        streams = [
            generate_churn(_restrict(data, part), batches=sizes.churn_batches,
                           batch_size=half, seed=self.seed + offset)
            for offset, part in enumerate((hot, cold))
        ]
        forward = []
        for hot_batch, cold_batch in zip(*streams):
            deletes = {
                rel: hot_batch.deletes.get(rel, ()) + cold_batch.deletes.get(rel, ())
                for rel in ("friend", "visits")
            }
            inserts = {
                rel: hot_batch.inserts.get(rel, ()) + cold_batch.inserts.get(rel, ())
                for rel in ("friend", "visits")
            }
            forward.append((deletes, inserts))
        # Inverting a batch swaps its deletes and inserts; replaying the
        # inverses last-first walks the states back to the initial one.
        self.batches = forward + [(ins, dels) for dels, ins in reversed(forward)]
        t = self._timed("workloads.churn_generate_s", t)

        prepared = [bundle.prepare(engine) for bundle in QUERIES]
        self.maintained = [
            (prepared[qi], {"p": pid}) for qi in range(3) for pid in pids
        ]
        self.live = [q.execute_incremental(params) for q, params in self.maintained]
        self._timed("incremental.build_s", t)
        streams = self._streams(data)
        period = len(self.batches)
        self.reads = [
            (prepared[3], streams[3][j % sizes.stream], prepared[4], streams[4][j % sizes.stream])
            for j in range(period)
        ]
        # What cycle ``j`` of a period returned when first run; every later
        # period must return the same.
        self.expected: list[tuple] = [None] * period
        self.cursor = 0  # cycles run so far; segments carry on where warm-up stopped
        self._run(sizes.churn_warmup, None)

    def oracle(self) -> tuple[int, int]:
        # Naive evaluation on a copy brought to the state the warm-up left.
        oracle_db = self._oracle_db(self.data)
        for index in range(self.cursor):
            deletes, inserts = self.batches[index % len(self.batches)]
            for relation, rows in deletes.items():
                oracle_db.delete_many(relation, rows)
            for relation, rows in inserts.items():
                oracle_db.insert_many(relation, rows)
        mismatched = 0
        for (prepared, params), live in zip(self.maintained, self.live):
            if not same_rows(live.rows, prepared.query.evaluate(oracle_db, params)):
                mismatched += 1
        checked = len(self.live)
        for q4, p4, q5, p5 in self.reads[: self.sizes.oracle]:
            for prepared, params in ((q4, p4), (q5, p5)):
                checked += 1
                naive = prepared.query.evaluate(oracle_db, params)
                if not same_rows(prepared.execute(params).rows, naive):
                    mismatched += 1
        return checked, mismatched

    def segment(self) -> dict:
        return self._run(len(self.batches), None)

    def traced_segment(self) -> dict:
        return self._run(len(self.batches), self.tracer)

    #: Cycles per timed chunk (~0.12 s timed, as much again untimed).
    chunk = 64

    def _run(self, cycles: int, tracer: Tracer | None) -> dict:
        """Run the next ``cycles`` cycles.  A segment is one whole period,
        so it runs every cycle of the period once wherever it starts."""
        live = self.live
        period = len(self.batches)
        first = self.cursor
        self.cursor += cycles
        cycle = self._cycle if tracer is None else self._traced_cycle
        counts = dict.fromkeys(
            ("tuples", "failed", "refreshes", "nonzero_refreshes", "delta_tuples", "delta_bound"), 0
        )

        def run_chunk(lo: int, hi: int):
            series = {
                name: []
                for name in ("op", "write_batch", "refresh", "fresh_read", "recompute")
            }
            wall = 0
            for index in range(first + lo, first + hi):
                j = index % period
                t0, t1, t2, t3, r4, r5 = cycle(j)
                wall += t3 - t0
                series["op"].append(t3 - t0)
                series["write_batch"].append(t1 - t0)
                series["refresh"].append((t2 - t1) // len(live))
                series["fresh_read"].append((t3 - t2) // 2)
                series["recompute"].append(self._check(j, r4, r5, counts))
            return series, wall

        out = {**timed_chunks(cycles, self.chunk, run_chunk), **counts}
        out["refresh_vs_recompute"] = out["recompute_p50_us"] / out["refresh_p50_us"]
        return out

    def _cycle(self, j: int):
        db = self.db
        deletes, inserts = self.batches[j]
        q4, p4, q5, p5 = self.reads[j]
        clock = perf_counter_ns
        t0 = clock()
        for relation, rows in deletes.items():
            db.delete_many(relation, rows)
        for relation, rows in inserts.items():
            db.insert_many(relation, rows)
        t1 = clock()
        for result in self.live:
            result.refresh()
        t2 = clock()
        r4 = q4.execute(p4)
        r5 = q5.execute(p5)
        return t0, t1, t2, clock(), r4, r5

    def _traced_cycle(self, j: int):
        """The same cycle under spans, with ``engine.views.refresh(db)`` --
        what the two reads would do implicitly -- made a span of its own."""
        db, tracer = self.db, self.tracer
        deletes, inserts = self.batches[j]
        q4, p4, q5, p5 = self.reads[j]
        name_id, begin_span, end_span = tracer.name_id, tracer.begin, tracer.end
        clock = perf_counter_ns
        # A probe first: slicing the log one entry further back costs what
        # the refreshes' own (memoised) slice costs.
        tracer.op_id = ~self.ops_done
        outer = begin_span(name_id("probe"))
        span = begin_span(name_id("changelog.net_since"))
        db.change_log.net_since(max(self.live[0].watermark - 1, 0))
        end_span(span)
        end_span(outer)
        tracer.op_id = self.ops_done
        self.ops_done += 1
        tracer.active = True
        t0 = clock()
        outer = begin_span(name_id("op"))
        for relation, rows in deletes.items():
            span = begin_span(name_id("relational.delete_many"), len(rows))
            db.delete_many(relation, rows)
            end_span(span)
        for relation, rows in inserts.items():
            span = begin_span(name_id("relational.insert_many"), len(rows))
            db.insert_many(relation, rows)
            end_span(span)
        t1 = clock()
        refresh = name_id("incremental.refresh")
        for result in self.live:
            span = begin_span(refresh)
            result.refresh()
            end_span(span)
        t2 = clock()
        span = begin_span(name_id("views.refresh"))
        self.engine.views.refresh(db)
        end_span(span)
        span = begin_span(name_id("api.execute"))
        r4 = q4.execute(p4)
        end_span(span)
        span = begin_span(name_id("api.execute"))
        r5 = q5.execute(p5)
        end_span(span)
        end_span(outer)
        t3 = clock()
        tracer.active = False  # the recompute that follows is not the operation
        return t0, t1, t2, t3, r4, r5

    def _check(self, j: int, r4, r5, counts: dict) -> int:
        """Outside the operation's time: accounting, then the oracle --
        recompute every maintained result.  Returns the recompute time per
        result, ns."""
        bad = False
        touched = r4.stats.tuples_accessed + r5.stats.tuples_accessed
        for result in (r4, r5):
            if result.stats.tuples_accessed > result.fanout_bound or result.stats.full_scans:
                bad = True
        for result in self.live:
            used = result.stats.tuples_accessed
            bound = result.delta_bound
            touched += used
            counts["refreshes"] += 1
            counts["nonzero_refreshes"] += used > 0
            counts["delta_tuples"] += used
            counts["delta_bound"] += bound
            if used > bound or result.stats.full_scans:
                bad = True
        begin = perf_counter_ns()
        for (prepared, params), result in zip(self.maintained, self.live):
            if not same_rows(prepared.execute(params).rows, result):
                bad = True
        recompute = (perf_counter_ns() - begin) // len(self.live)
        observed = (set(r4.rows), set(r5.rows), touched)
        if self.expected[j] is None:
            self.expected[j] = observed
        elif observed != self.expected[j]:
            bad = True
        counts["tuples"] += touched
        counts["failed"] += bad
        return recompute


# -- the out-of-core backend at two sizes (scale_sqlite) ------------------


class ScaleSqlite(Workload):
    """Prepared Q1-Q5 on SQLite files at ``persons`` (reference) and
    ``large_persons`` (measured).  A segment runs a reference stretch and
    then a large stretch, so ``scale_latency_ratio`` compares latencies
    taken seconds apart.  The large stretch draws parameters uniformly
    over all blocks; a separate exact pass (in ``oracle``) replays the
    block-0 parameters at both sizes and must find identical rows and
    tuple counts."""

    name = "scale_sqlite"

    def _load(self, persons: int, tag: str, traced: bool):
        """Stream-load ``persons`` into a fresh file; returns the engine,
        its backend handle and the urls sampled per block."""
        path = os.path.join(self.workdir, f"{tag}.db")
        if os.path.exists(path):
            os.remove(path)
        backend = SqliteBackend(path)
        if traced:
            backend = self._backend(backend)
        engine = Engine(SOCIAL_SCHEMA, SOCIAL_ACCESS, backend=backend, certify=True)
        db = engine.database
        rng = random.Random(self.seed * 31 + 5)
        per_block = max(1, self.sizes.stream // max(1, persons // self.sizes.persons))
        urls: list[list[str]] = []
        rows = 0
        stream = stream_social_network(persons, seed=self.seed, block=self.sizes.persons)
        t = perf_counter()
        for relation, chunk in stream:
            t = self._timed("workloads.generate_s", t)
            rows += db.bulk_load(relation, chunk)
            t = self._timed("relational.load_s", t)
            if relation == "visits":
                seen = sorted({row[1] for row in chunk})
                urls.append(rng.sample(seen, min(per_block, len(seen))))
                t = perf_counter()
        register_workload_views(engine)
        engine.views.refresh(db)
        self._timed("views.materialize_s", t)
        return engine, backend, urls, rows, os.path.getsize(path)

    def setup(self) -> None:
        sizes, seed = self.sizes, self.seed
        # Only the large database is the measured one, so only it is traced.
        ref, self.ref_backend, ref_urls, _, _ = self._load(sizes.persons, "reference", False)
        large, self.large_backend, urls, rows, size = self._load(
            sizes.large_persons, "large", True
        )
        self.engine = large
        self.rows_loaded, self.store_bytes = rows, size
        block0 = [{"p": p} for p in sample_pids(sizes.persons, sizes.stream, seed=seed)]
        rng = random.Random(seed * 31 + 11)
        block0_urls = [{"u": rng.choice(ref_urls[0])} for _ in range(sizes.stream)]
        self.block0 = [block0] * 4 + [block0_urls]
        everywhere = [
            {"p": p} for p in sample_pids(sizes.large_persons, sizes.stream, seed=seed + 1)
        ]
        all_urls = [u for block in urls for u in block]
        everywhere_urls = [{"u": rng.choice(all_urls)} for _ in range(sizes.stream)]
        self.ref = PreparedOps(ref, self.block0, sizes.sqlite_ref_segment)
        self.large = PreparedOps(
            large, [everywhere] * 4 + [everywhere_urls], sizes.sqlite_large_segment
        )
        self.ref.warm_up()
        self.large.warm_up()

    def close(self) -> None:
        for backend in (self.ref_backend, self.large_backend):
            backend.close()

    def oracle(self) -> tuple[int, int]:
        """Naive evaluation on the reference-size memory instance, then
        the exact pass: block-0 parameters at both sizes."""
        sizes = self.sizes
        oracle_db = self._oracle_db(generate_social_network(sizes.persons, seed=self.seed))
        checked, mismatched = self.ref.check(oracle_db, sizes.oracle)
        self.tuples_delta = 0
        for qi in range(5):
            small, big = self.ref.prepared[qi], self.large.prepared[qi]
            for params in self.block0[qi][: sizes.exact]:
                a, b = small.execute(params), big.execute(params)
                checked += 1
                delta = b.stats.tuples_accessed - a.stats.tuples_accessed
                self.tuples_delta += delta
                if delta or not same_rows(a.rows, b.rows):
                    mismatched += 1
        return checked, mismatched

    def _both(self, ref: dict, large: dict) -> dict:
        large["ref_p50_us"] = ref["op_p50_us"]
        large["scale_latency_ratio"] = large["op_p50_us"] / ref["op_p50_us"]
        large["failed"] += ref["failed"]
        return large

    def segment(self) -> dict:
        return self._both(self.ref.run(), self.large.run())

    def traced_segment(self) -> dict:
        ref = self.ref.run()
        out = self.large.run_traced(self.tracer, self.ops_done)
        self.ops_done += out["ops"]
        return self._both(ref, out)


WORKLOADS = {
    cls.name: cls
    for cls in (WarmPrepared, AdhocTextFits, AdhocTextOverflow, ChurnRefresh, ScaleSqlite)
}
