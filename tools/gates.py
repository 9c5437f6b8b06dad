"""CI's gates: one function per gate, the one place its code, threshold and
history live.  ``python tools/gates.py NAME`` runs one gate, prints its figures
and exits nonzero if it fails; with no name it runs every gate, each in its own
process, so no exact count depends on which gate ran first (generated code and
row key getters are memoised process-wide).  A ratio divides two timings from
one process, so the runner's speed cancels out; a count is the same anywhere.
"""

import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402
from repro import SqliteBackend  # noqa: E402
from repro.core.executor import DeltaProgram, ExecutionContext, execute_plan  # noqa: E402
from repro.workloads import RUNNING_QUERIES, VIEW_QUERIES, generate_churn, generate_social_network  # noqa: E402
from repro.workloads import register_workload_views, sample_pids, sample_urls, social_engine  # noqa: E402

REPRO = os.path.dirname(repro.__file__)
Q1 = "Q(y) :- friend(p, y), person(y, n, 'NYC')"

#: The line budget only moves down: min(previous budget, figure reached).
#: 10,781 before a view handed its answer changes to its readers; 10,748
#: before the maintainability verdict was rendered where it is decided.
BUDGET = 10_655

#: Deleted code that must not come back, one regular expression each: the
#: pipeline LRU (a plan owns its lowering); the VIW003 guess and the view advisor
#: (view selection, which the paper leaves open); three state versions one
#: engine generation replaced; the first-order layer (SQLite is the oracle); the
#: shape-key object; the second controllability fixpoint, its re-check, result
#: type and module (the planner's walk is the one); the sort a covering index
#: makes needless; the per-cell text callback; the second profiling entry point
#: and unread watermark; the hash-sharded composite (no parallelism in one
#: interpreter); the style lints; the weighted cost model and second refresh
#: verdict (a rule carries one number, its bound); the closure lowering; the
#: profiled twin of every generated run, its measuring shim and the runner that
#: chose between the two (a profile is the counting pass, measured); the view
#: answer ledger and its replay (a view hands its answer change to its readers);
#: the maintainability classifier and its two wrappers (analyze_prepared renders
#: the executor's delta_blockers).
DELETED = (
    "PipelineCache", "advise_covering_view", "VIW003", "_plan_key", "_access_state", "_cost_state",
    "FirstOrderQuery", "satisfying_assignments", "UndecidableError", "to_formula", "ShapeKey",
    "CoverageStep", "_normalize_vars", "_check_parameters", "ORDER BY rowid", "BindingFlow",
    "binding_flow", "explain_uncontrolled", r"analysis\.dataflow", "text_factory", "profile_pipeline",
    "_watermark", "ShardedBackend", "shard_stats", "stable_shard_hash", "analyze_access",
    "analyze_plan", "analyze_views", "fix_query", "ABSURD_BOUND", "BLOWUP_THRESHOLD",
    "SELECTIVITY_RATIO", "PROBE_COST", "COST_TOLERANCE", "StepEstimate", "_cost_estimate",
    "check_maintainable", "_compile_fetch", "_compile_probe", "_compile_project", "_compile_fused",
    "_compile_row_builder", r"_take\b", "_delta_face", "advise_views", "ViewAdvice", "advice_report",
    "workload_advice", "VIW004", "VIW005", "MAX_VIEW_ATOMS", "EXPENSIVE_COST", "_measured", r"\.profiled\b",
    "run_pipeline", "changes_since", "_ledger", "classify_incremental", "IncrementalSupport",
    "MaintainBlocker", r"analysis\.maintain",
)


class _Calls:
    """Call events into ``src/repro`` while profiling: ``frames`` counts all
    (generator resumptions too), ``named`` per ``phase`` those not named
    ``<...>`` (comprehensions and lambdas, which 3.12 inlines)."""

    def __init__(self):
        self.named, self.frames, self.phase = Counter(), 0, None

    def __enter__(self):
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)

    def _count(self, frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(REPRO):
            self.frames += 1
            if not code.co_name.startswith("<"):
                self.named[self.phase] += 1


def _alternating_us(left, right, rounds=5, setup=None):
    """Microseconds per op of the two sides of a ratio, each a ``(run, ops)``
    pair: the fastest of ``rounds`` ``run()`` calls per side.  The sides
    alternate round by round, and so does which goes first, so a slow phase
    of the host meets both; ``setup(i)``, if given, runs untimed before
    ``left``'s i-th call."""
    best = [float("inf")] * 2
    for i in range(rounds):
        for side in (0, 1) if i % 2 else (1, 0):
            if side == 0 and setup:
                setup(i)
            run, ops = (left, right)[side]
            start = time.perf_counter()
            run()
            best[side] = min(best[side], (time.perf_counter() - start) / ops)
    return [seconds * 1e6 for seconds in best]


def _traced(workload):
    """``correct`` and the metrics by name of a traced 2 s run on seed 1."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1", "--seconds", "2"]
    out = subprocess.run([*command, "--trace", "1"], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return result["correct"], {name: metric["value"] for name, metric in result["metrics"].items()}


def _lines(pattern):
    """Lines per file, by path from the root, of the files ``pattern`` matches."""
    counts = {}
    for path in sorted(glob.glob(pattern, root_dir=ROOT, recursive=True)):
        with open(os.path.join(ROOT, path), "rb") as file:
            counts[path] = file.read().count(b"\n")
    return counts


def line_budget():
    """Line count per module is a tracked metric (ROADMAP north star): print
    the largest modules and hold the src/ total to ``BUDGET``; fail on any
    ``DELETED`` name in src/ or README.md.  The tests total is not gated."""
    sizes = _lines("src/**/*.py")
    for path in sorted(sizes, key=sizes.get, reverse=True)[:15]:
        print(f"{sizes[path]:7d} {path}")
    total, deleted, found = sum(sizes.values()), re.compile("|".join(DELETED)), 0
    print(f"src total: {total} lines (budget {BUDGET})")
    print(f"tests total: {sum(_lines('tests/**/*.py').values())} lines (not gated)")
    for path in [*sizes, "README.md"]:
        with open(os.path.join(ROOT, path), encoding="utf-8") as file:
            for number, line in enumerate(file, 1):
                if deleted.search(line):
                    found += 1
                    print(f"{path}:{number}:{line.rstrip()}")
    return total <= BUDGET and not found


def refresh_vs_recompute():
    """Refresh must beat recompute (paper section 5, in wall-clock) on a
    traced ``churn_refresh`` run.  Fifteen runs after PR 27 (a result holds
    its level-0 group) read 2.81-2.99, thirty before 1.95-2.15 (1.29 before
    PR 21 staged the rule): the loosest floor that fails the best of those.
    A refresh that changes nothing reads nothing, so its tuples are gated
    too: 0.0684 per refresh on this seed, 1.668 while each re-fetched level 0."""
    correct, metrics = _traced("churn_refresh")
    ratio, tuples = metrics["refresh_vs_recompute"], metrics["incremental.delta_tuples_per_refresh"]
    print("correct:", correct, " refresh_vs_recompute:", round(ratio, 3),
          " delta_tuples_per_refresh:", round(tuples, 4))
    return correct and ratio >= 2.2 and tuples <= 0.2


def text_path():
    """A repeated text must cost less on the way in than the bounded work it
    asks for (the text memo), on a traced ``adhoc_text_fits`` run."""
    correct, metrics = _traced("adhoc_text_fits")
    query_us, executor_us = metrics["api.query_us"], metrics["core.executor.self_us"]
    print("correct:", correct, " api.query_us:", round(query_us, 2), " core.executor.self_us:", round(executor_us, 2))
    return correct and query_us <= executor_us


def plan_sharing():
    """One compile per query shape: ``adhoc_text_overflow``'s 640 renamed
    and reordered texts are 26 shapes, all compiled during set-up, so the
    measured segments of a traced run compile nothing.  Counts, not times."""
    correct, metrics = _traced("adhoc_text_overflow")
    compilations, hit_rate = metrics["api.plan_cache.compilations"], metrics["api.plan_cache.hit_rate"]
    print("correct:", correct, " api.plan_cache.compilations:", compilations, " api.plan_cache.hit_rate:", hit_rate)
    return correct and compilations == 0 and hit_rate == 1


def scale_and_bulk_load():
    """The paper's headline claim, in both currencies, on a traced
    ``scale_sqlite`` run: tuples accessed are bit-identical at the two
    database sizes, and the large instance is no slower per operation than
    the small one beyond noise.  Same run, the one step allowed to cost |D|:
    loading a row into the out-of-core store against generating it.  One
    transaction per load chunk (PR 22) reads 1.83-2.09 over fifteen runs,
    one per row read 7.4-8.1."""
    correct, metrics = _traced("scale_sqlite")
    delta, ratio = metrics["scale_tuples_delta"], metrics["scale_latency_ratio"]
    load = metrics["relational.load_s"] / metrics["workloads.generate_s"]
    print("correct:", correct, " scale_tuples_delta:", delta, " scale_latency_ratio:", round(ratio, 3),
          " load_s / generate_s:", round(load, 2))
    return correct and delta == 0 and ratio <= 1.25 and load <= 3.0


def owned_file():
    """An open store has one owner: the file is locked at attach, so a
    bounded read on it pays no lock / change-counter / unlock system calls
    and costs what it costs on an in-memory SQLite database (20,000 one-key
    ``lookup_keys`` at 10,000 persons, file / memory).  Fifteen runs on PR 23
    read 0.97-1.06; a lock per read (its parent) read 2.08-2.14.  Timed side
    after side (best of five each), one run in six read 1.729: a slow host
    phase had met the file's rounds only.  The sides now alternate, best of
    fifteen rounds each: twelve runs read 0.984-1.028 on a 2-vCPU host, and
    six under a forced load there (two busy processes, 0.7 s on, 0.7 s off)
    1.001-1.007, where side after side read 0.684-2.047 under that load."""

    def reads(backend):
        read, keys = backend.lookup_keys, [(7,)]

        def run():
            for _ in range(20_000):
                read("friend", (0,), keys)

        return run, 20_000

    with tempfile.TemporaryDirectory() as tmp:
        on_file, in_memory = SqliteBackend(os.path.join(tmp, "store.sqlite3")), SqliteBackend()
        for backend in (on_file, in_memory):
            social_engine(10_000, seed=1, backend=backend)
        file_us, memory_us = _alternating_us(reads(on_file), reads(in_memory), rounds=15)
        on_file.close()
    print("file:", round(file_us, 2), "us  memory:", round(memory_us, 2), "us  ratio:", round(file_us / memory_us, 3))
    return file_us / memory_us <= 1.35


def new_text():
    """A new text costs its tokens: 4,000 texts no memo has seen against one
    held PreparedQuery on the same parameters, at 10,000 persons.  A Token per
    lexeme read 11.20-12.56; one scan and a flat key 5.92-7.92; a held execute
    bound once (a cheaper denominator) 9.46-11.91, so the gate moved from 9.5
    to 14.  Term lists read 6.72-9.27 over fifteen runs (three slow-phase runs
    11.99-12.33), the call-per-term parent 9.08-10.48: no threshold parts
    them, so it stays at 14, which compiling per text (30.9-35.5) still fails.
    A plain rule read by regex: six runs interleaved with the token parser's
    read 8.34-8.83 against 10.64-11.28; still gated at 14.  Timed side after
    side, one run read held 10.3 us (5.0-5.4 in thirteen others), a slow phase
    met by one side only.  The sides now alternate (best of five each): twenty
    runs on a noisy 2-vCPU host read 6.51-10.1, ten in a row 7.53-8.73, where
    fifteen side-after-side runs interleaved with them read 4.76-8.55, four of
    them (4.76-6.26) with a slow phase met by the held side alone."""
    engine = social_engine(10_000, seed=1)
    pids = sample_pids(10_000, 4_000, seed=1)
    texts = [f"Q(y{i}) :- friend(p, y{i}), person(y{i}, n{i}, 'NYC')" for i in range(4_000)]
    held = engine.query(Q1)

    def new_texts():
        execute = engine.execute
        for text, pid in zip(texts, pids):
            execute(text, p=pid)

    def held_query():
        execute = held.execute
        for pid in pids:
            execute(p=pid)

    held_us, text_us = _alternating_us((held_query, 4_000), (new_texts, 4_000))
    memo, plans = engine.text_cache_stats(), engine.cache_stats()
    print("new text:", round(text_us, 1), "us  held:", round(held_us, 1), "us  ratio:", round(text_us / held_us, 2),
          " memo hits:", memo.hits, " compilations:", plans.misses)
    return memo.hits == 0 and plans.misses == 1 and text_us / held_us <= 14


def view_answers():
    """A view answers for its atoms: Q5 (who visited ?u) is one fetch of the
    non-projecting view V2, held in memory, so on a SQLite file it costs what
    it costs on a memory engine (10,000 persons, 1,000 urls).  Counts first
    (bounds, steps, base lookups), then file / memory: 0.94-1.06 and once 1.33
    over fifteen runs on PR 25; its parent (probing visits on the base store
    per row: 19,730 base lookups, bounds 192 / 128) 1.84-2.24 over six.  Gated
    at the loosest value that still fails the parent's best.  With the two
    sides alternating (best of five each), five runs read 0.977-1.029."""
    urls = sample_urls(generate_social_network(10_000, seed=1), 1_000, seed=1)

    def q5_loop(engine):
        execute = VIEW_QUERIES[1].prepare(engine).execute

        def run():
            for url in urls:
                execute(u=url)

        return run, len(urls)

    with tempfile.TemporaryDirectory() as tmp:
        on_file = social_engine(10_000, seed=1, backend=SqliteBackend(os.path.join(tmp, "store.sqlite3")))
        in_memory = social_engine(10_000, seed=1)
        for engine in (on_file, in_memory):
            register_workload_views(engine)
        q4, q5 = (bundle.prepare(on_file) for bundle in VIEW_QUERIES)
        bounds = q4.execute(p=7).fanout_bound, q5.execute(u=urls[0]).fanout_bound
        steps, before = len(q5.plan(["u"]).steps), on_file.database.stats.indexed_lookups
        file_us, memory_us = _alternating_us(q5_loop(on_file), q5_loop(in_memory))
        base_reads = on_file.database.stats.indexed_lookups - before
        on_file.database.backend.close()
    print("bounds:", bounds, " Q5 steps:", steps, " base lookups:", base_reads, " file:", round(file_us, 2),
          "us  memory:", round(memory_us, 2), "us  ratio:", round(file_us / memory_us, 3))
    return bounds == (128, 64) and steps == 1 and base_reads == 0 and file_us / memory_us <= 1.7


def untouched_results():
    """A churn cycle costs what its batch touches: a write marks the results
    whose footprint it meets, and an unmarked refresh stages and joins
    nothing.  480 results (Q1-Q3 for 160 of 10,000 persons) refresh after each
    of five batches among new person ids: counts first (no DeltaProgram.join
    call, no tuple read, every answer a recompute's), then refresh over held
    execute, best of five each, the two alternating.  With write-side marks
    fifteen runs read 0.092-0.104, without (2,400 joins, each a pull-side
    footprint test) 0.244-0.266: the loosest value that still fails the best
    run without."""
    engine = social_engine(10_000, seed=1)
    db = engine.database
    pids = list(dict.fromkeys(sample_pids(10_000, 400, seed=1)))[:160]
    maintained = [(bundle.prepare(engine), pid) for bundle in RUNNING_QUERIES for pid in pids]
    live = [prepared.execute_incremental(p=pid) for prepared, pid in maintained]
    held = maintained[0][0]
    joins, read, join = [], [], DeltaProgram.join
    DeltaProgram.join = lambda self, *args: joins.append(self) or join(self, *args)

    def write(batch):
        if batch:  # the tuples the previous batch's refreshes read
            read.append(sum(result.stats.tuples_accessed for result in live))
        new = 20_000 + 100 * batch  # persons no maintained result has met
        db.insert_many("friend", [(new + i, new + i + 1) for i in range(8)])
        db.insert_many("visits", [(new + i, f"url-{new}") for i in range(8)])

    def refresh():
        for result in live:
            result.refresh()

    def execute():
        run = held.execute
        for pid in pids:
            run(p=pid)

    refresh_us, execute_us = _alternating_us((refresh, len(live)), (execute, len(pids)), setup=write)
    read.append(sum(result.stats.tuples_accessed for result in live))
    fresh = all(set(r.rows) == set(q.execute(p=pid).rows) for (q, pid), r in zip(maintained, live))
    ratio = refresh_us / execute_us
    print("joins:", len(joins), " tuples:", sum(read), " fresh:", fresh, " refresh:", round(refresh_us, 3),
          "us  held execute:", round(execute_us, 2), "us  ratio:", round(ratio, 3))
    return not joins and sum(read) == 0 and fresh and ratio <= 0.24


def held_execute_calls():
    """A held execute costs its pipeline: values -> seed columns -> one
    generated function.  Named calls (``_Calls``) per execute over 2,000 held
    Q1-Q5 executes at 2,000 persons with the workload views, each checked
    against execute_plan (rows and tuples): 8.184, gated exactly; 10.752 with
    the closure lowering, 17.752 before a PreparedQuery bound per key tuple."""
    engine = social_engine(2_000, seed=1)
    register_workload_views(engine)
    db = engine.database
    bundles = (*RUNNING_QUERIES, *VIEW_QUERIES)
    prepared = [bundle.prepare(engine) for bundle in bundles]
    pids = [{"p": p} for p in sample_pids(2_000, 400, seed=1)]
    urls = [{"u": u} for u in sample_urls(generate_social_network(2_000, seed=1), 400, seed=1)]
    ops = [(i % 5, (urls if i % 5 == 4 else pids)[(i // 5) % 400]) for i in range(2_000)]
    for qi, params in ops:  # warm: every key tuple bound, every view materialised
        prepared[qi].execute(params)
    results = []
    with _Calls() as calls:
        for qi, params in ops:
            results.append(prepared[qi].execute(params))
    wrong = 0
    for (qi, params), result in zip(ops, results):
        plan = prepared[qi].plan(bundles[qi].parameters)
        views = plan.view_relations
        ctx = ExecutionContext(db, views=engine.views.prepare(db, views) if views else None)
        rows = execute_plan(plan, ctx, params)
        wrong += rows != result.rows or ctx.stats.tuples_accessed != result.stats.tuples_accessed
    per_execute = sum(calls.named.values()) / len(ops)
    print("named repro calls per held execute:", per_execute, " executes unlike execute_plan:", wrong)
    return wrong == 0 and per_execute <= 8.184


def churn_cycle_calls():
    """A churn cycle pays for what its changes ask for: a one-atom view
    refreshes as its slice permuted, an unmarked result reads the log's latest
    slice, a batch is logged and marked in one ChangeLog.extend call, the
    delta driver calls its faces directly unless profiling, a stale view
    refreshes lock-free.  Named calls per cycle of a fixed 256-cycle replay at
    2,000 persons -- a 16-mutation batch (8 near the 48 maintained Q1-Q3
    results, 8 elsewhere), their refreshes, Q4 and Q5 through V1/V2 -- every
    result checked against a recompute; Q4 and Q5 run once before, so their
    compile is not counted.  write + refresh + reads: 306.246 (83.8 + 197.5 +
    24.9); 308.246 with the view answer ledger (reads 26.9: a view refresh
    read the log's floor); 314.996 with that compile (reads 33.7); 354.332
    with closures (refresh 234.1, reads 36.4); 461.578 before the latest slice
    and the C key getter (99.8 + 315.4 + 46.4); 489.859 before that.  All call
    events: 487.855 on 3.11 (509.215 on 3.10/3.11 with the ledger and a count
    dict per disjunct, 520.609, 641.609, 878.984 at the steps before); 362.293
    on 3.12 with the ledger (372.609, 439.641, 570.570), not re-measured since.  A call is not a cost: a one-slot key
    list stays a comprehension, faster than list(zip(...)) for 1-3 keys."""
    data = generate_social_network(2_000, seed=1)
    engine = social_engine(2_000, seed=1)
    register_workload_views(engine)
    db = engine.database
    pids = list(dict.fromkeys(sample_pids(2_000, 64, seed=1)))[:16]
    hot = set(pids) | {b for a, b in data["friend"] if a in pids}
    near = {name: [row for row in rows if row[0] in hot] for name, rows in data.items()}
    far = {name: [row for row in rows if row[0] not in hot] for name, rows in data.items()}
    cycles = list(zip(generate_churn(near, batches=256, batch_size=8, seed=1),
                      generate_churn(far, batches=256, batch_size=8, seed=2)))
    maintained = [(bundle.prepare(engine), pid) for bundle in RUNNING_QUERIES for pid in pids]
    live = [prepared.execute_incremental(p=pid) for prepared, pid in maintained]
    q4, q5 = (bundle.prepare(engine) for bundle in VIEW_QUERIES)
    readers, urls = sample_pids(2_000, 256, seed=2), sample_urls(data, 256, seed=2)
    q4.execute(p=readers[0])
    q5.execute(u=urls[0])
    calls, wrong = _Calls(), 0
    for j, batches in enumerate(cycles):
        with calls:
            calls.phase = "write"
            for batch in batches:
                batch.apply(db)
            calls.phase = "refresh"
            for result in live:
                result.refresh()
            calls.phase = "reads"
            q4.execute(p=readers[j])
            q5.execute(u=urls[j])
        wrong += sum(set(r.rows) != set(prepared.execute(p=pid).rows) for (prepared, pid), r in zip(maintained, live))
    split = {phase: calls.named[phase] / len(cycles) for phase in ("write", "refresh", "reads")}
    per_cycle, all_frames = sum(split.values()), calls.frames / len(cycles)
    print("named repro calls per churn cycle:", per_cycle, split, " all repro frames:", all_frames,
          " results unlike a recompute:", wrong)
    return wrong == 0 and per_cycle <= 306.25 and all_frames <= 487.9


def new_text_calls():
    """A never-seen text costs its atoms (a plain rule: one whole-text match,
    one match and one arity lookup per atom, one Variable per name, a safety
    check by name, one canonical walk to a tuple key, one probe of the
    compiled shape).  Named calls per engine.execute of 2,000 ``new_text``
    texts at 2,000 persons, each result's rows and tuples a held query's, no
    memo hit, one compile: 30.0; 39.0 through the token parser (one scan, one
    routine per term list); 42.0 through the closure lowering; 80.0 with a
    call per term, a schema lookup per atom and a ShapeKey per text."""
    engine = social_engine(2_000, seed=1)
    pids = sample_pids(2_000, 2_000, seed=1)
    texts = [f"Q(y{i}) :- friend(p, y{i}), person(y{i}, n{i}, 'NYC')" for i in range(2_000)]
    held = engine.query(Q1)
    expected = [held.execute(p=pid) for pid in pids]
    results, execute = [], engine.execute
    with _Calls() as calls:
        for text, pid in zip(texts, pids):
            results.append(execute(text, p=pid))
    wrong = sum(r.rows != e.rows or r.stats.tuples_accessed != e.stats.tuples_accessed
                for r, e in zip(results, expected))
    memo, plans = engine.text_cache_stats(), engine.cache_stats()
    per_text = sum(calls.named.values()) / len(texts)
    print("named repro calls per never-seen text:", per_text, " results unlike the held query:", wrong,
          " memo hits:", memo.hits, " compilations:", plans.misses)
    return wrong == 0 and memo.hits == 0 and plans.misses == 1 and per_text <= 30


#: Every gate, in the order CI runs them; every public function here is one.
GATES = {check.__name__: check for check in (
    line_budget, refresh_vs_recompute, text_path, plan_sharing, scale_and_bulk_load, owned_file, new_text,
    view_answers, untouched_results, held_execute_calls, churn_cycle_calls, new_text_calls,
)}

if __name__ == "__main__":
    if len(sys.argv) == 1:
        failed = []
        for name in GATES:
            print(f"== {name}", flush=True)
            if subprocess.run([sys.executable, __file__, name]).returncode:
                failed.append(name)
        print("failed:", " ".join(failed) or "none")
        sys.exit(1 if failed else 0)
    if len(sys.argv) != 2 or sys.argv[1] not in GATES:
        sys.exit(f"usage: python tools/gates.py [{' | '.join(GATES)}]")
    sys.exit(0 if GATES[sys.argv[1]]() else 1)
