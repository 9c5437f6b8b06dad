"""The repository benchmark: five workloads from query text to rows.

Three ways to run it, all from the root of a checkout:

``python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload in this process (what ``BENCHMARK.json`` declares).  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: every end-to-end metric
    with ``--trace 0``, every per-layer metric with ``--trace 1``.

``python3 benchmarks/run.py --seed S [--out FILE] [--smoke]``
    Every workload, each in its own subprocess, first untraced and then
    traced; prints every metric by name with its unit and writes the
    result file plus ``benchmarks/out/trace_<workload>.jsonl``.

``python3 benchmarks/run.py --compare A.json B.json``
    Judge result file B against A with the directions and bounds of
    ``BENCHMARK.json``; exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

#: End-to-end figures the driver cannot gate.  Its contract wants every
#: end-to-end metric from every workload, never 0, and within its bound
#: (25 % at most) over ten different seeds on this host.  These exist on one
#: workload only, are 0 by design, follow the seed's data more than the
#: program (``tuples_per_op``: 10-24 % spread on ``churn_refresh``) or the
#: host's phases (``op_p99_us``: up to 22 % spread, 35 % between two runs
#: of one seed).  They are listed under ``per_layer`` in BENCHMARK.json,
#: which carries no bounds; ``--compare`` takes theirs from here.
SECONDARY_BOUNDS = {
    "op_p99_us": 0.25,
    "tuples_per_op": 0.25,
    "write_batch_p50_us": 0.15,
    "refresh_p50_us": 0.15,
    "refresh_p99_us": 0.25,
    "refresh_vs_recompute": 0.15,
    "fresh_read_p50_us": 0.15,
    "scale_latency_ratio": 0.15,
    "scale_tuples_delta": 0.0,
    "failed_ops_share": 0.0,
}
#: How many operations' spans a trace file holds (the layer numbers use
#: every span; the file is for reading span trees by eye).
TRACE_DUMP_OPS = 2000
#: Counts that must repeat bit for bit on one seed and one commit.
EXACT = {
    "tuples_per_op",
    "scale_tuples_delta",
    "failed_ops_share",
    "relational.backend.calls_per_op",
    "relational.backend.keys_per_call",
    "api.plan_cache.hit_rate",
    "api.plan_cache.compilations",
    "api.plan_cache.evictions",
    "core.executor.pipeline_cache_hit_rate",
    "core.executor.rows_out_per_op",
    "core.plans.bound_headroom",
    "analysis.cost.calibration",
    "views.rows",
    "incremental.delta_tuples_per_refresh",
    "incremental.delta_headroom",
    "incremental.nonzero_access_share",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- measuring one workload ------------------------------------------------


def measure(segment, seconds: float, min_segments: int) -> list[dict]:
    """Run whole segments until ``seconds`` have passed (at least
    ``min_segments``)."""
    segments = []
    begin = perf_counter()
    while len(segments) < min_segments or perf_counter() - begin < seconds:
        segments.append(segment())
    return segments


def summary(values: list[float]) -> dict:
    """The median of repeated measurements, with their range and every
    value."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "segments": values,
    }


def over_segments(segments: list[dict], key: str) -> dict:
    """The median over segments of a per-segment figure."""
    return summary([segment[key] for segment in segments])


def end_to_end(segments: list[dict], setups: list[float]) -> dict[str, dict]:
    return {
        "setup_s": summary(setups),
        "op_p50_us": over_segments(segments, "op_p50_us"),
        "ops_per_s": over_segments(segments, "ops_per_s"),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        },
    }


def secondary(segments: list[dict], workload, failed: int, attempted: int) -> dict:
    """The end-to-end figures only this workload produces, taken with
    tracing off."""
    out = {
        key: over_segments(segments, key)
        for key in SECONDARY_BOUNDS
        if key in segments[0]
    }
    out["tuples_per_op"] = {
        "value": sum(s["tuples"] for s in segments) / sum(s["ops"] for s in segments)
    }
    out["failed_ops_share"] = {"value": failed / attempted}
    if hasattr(workload, "tuples_delta"):
        out["scale_tuples_delta"] = {"value": float(workload.tuples_delta)}
    return out


def per_layer(base, traced, base_segments, traced_segments, before, after):
    """Per-layer figures from the traced set-up's spans, the untraced
    set-up's exact counters and both set-ups' segment sums."""
    spans = traced.tracer.aggregate()

    def entry(name: str, probe: bool | None = None) -> dict:
        total = {"count": 0, "total": 0, "self": 0, "n": 0}
        for flag in (False, True) if probe is None else (probe,):
            for field, value in spans.get((name, flag), total).items():
                total[field] += value
        return total

    def mean_us(name: str, probe: bool | None = None, field: str = "total") -> float:
        found = entry(name, probe)
        return found[field] / found["count"] / 1e3 if found["count"] else 0.0

    def summed(key: str) -> float:
        return sum(segment.get(key, 0) for segment in traced_segments)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    ops = summed("ops")
    base_ops = sum(segment["ops"] for segment in base_segments)
    op = entry("", False)  # the operations' root spans
    reads = [entry(f"backend.{kind}", False) for kind in ("lookup_keys", "contains_rows", "scan")]
    writes = [entry(f"backend.{kind}", False) for kind in ("insert_rows", "delete_rows")]
    executes = [entry(f"executor.execute.Q{k}", True) for k in range(1, 6)]
    execute_count = sum(e["count"] for e in executes)
    delta = {key: after[key] - before[key] for key in after}
    layers = base.layers
    live = len(getattr(base, "live", ()))
    out = {
        "workloads.generate_s": layers.get("workloads.generate_s", 0.0),
        "workloads.churn_generate_s": layers.get("workloads.churn_generate_s", 0.0),
        "relational.load_s": layers["relational.load_s"],
        "relational.load_rows_per_s": base.rows_loaded / layers["relational.load_s"],
        "relational.store_bytes_per_row": ratio(
            getattr(base, "store_bytes", 0), base.rows_loaded
        ),
        "relational.backend.lookup_keys_us": mean_us("backend.lookup_keys", False),
        "relational.backend.contains_rows_us": mean_us("backend.contains_rows", False),
        "relational.backend.calls_per_op": ratio(sum(r["count"] for r in reads), ops),
        "relational.backend.keys_per_call": ratio(
            sum(r["n"] for r in reads), sum(r["count"] for r in reads)
        ),
        "relational.backend.time_share": ratio(
            sum(r["total"] for r in reads + writes), op["total"]
        ),
        "relational.insert_many_us": mean_us("relational.insert_many"),
        "relational.delete_many_us": mean_us("relational.delete_many"),
        "relational.changelog.net_since_us": mean_us("changelog.net_since"),
        "relational.changelog.entries": after["changelog_entries"],
        "relational.schema.validate_us": mean_us("schema.validate"),
        "logic.parse_us": mean_us("logic.parse"),
        "api.query_us": mean_us("api.query"),
        "api.plan_cache.hit_us": mean_us("api.plan.hit"),
        "api.prepare_cold_us": mean_us("api.plan.cold"),
        "api.plan_cache.hit_rate": ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
        ),
        "api.plan_cache.compilations": delta["plan_misses"] / base_ops,
        "api.plan_cache.evictions": delta["plan_evictions"] / base_ops,
        "api.execute_overhead_us": (
            mean_us("api.execute", False)
            - sum(e["total"] for e in executes) / execute_count / 1e3
            if execute_count
            else 0.0
        ),
        "core.plans.compile_us": mean_us("plans.compile"),
        "core.plans.bound_headroom": ratio(summed("headroom"), ops),
        "core.executor.lower_us": mean_us("executor.lower"),
        "core.executor.pipeline_cache_hit_rate": ratio(
            delta["pipe_hits"], delta["pipe_hits"] + delta["pipe_misses"]
        ),
        "core.executor.self_us": ratio(sum(e["self"] for e in executes), execute_count)
        / 1e3,
        "core.executor.rows_out_per_op": ratio(summed("rows_out"), ops),
        "core.executor.delta_us": mean_us("incremental.refresh", field="self"),
        "views.rewrite.compile_us": mean_us("views.rewrite.compile"),
        "views.materialize_s": layers["views.materialize_s"],
        "views.refresh_us": mean_us("views.refresh"),
        "views.rows": after["view_rows"],
        "analysis.cost.estimate_us": mean_us("cost.estimate"),
        "analysis.certify.check_us": mean_us("certify.check"),
        "analysis.cost.calibration": ratio(summed("cost_estimate"), summed("tuples")),
        "incremental.build_us": ratio(layers.get("incremental.build_s", 0.0), live) * 1e6,
        "incremental.delta_tuples_per_refresh": ratio(
            summed("delta_tuples"), summed("refreshes")
        ),
        "incremental.delta_headroom": ratio(summed("delta_tuples"), summed("delta_bound")),
        "incremental.nonzero_access_share": ratio(
            summed("nonzero_refreshes"), summed("refreshes")
        ),
        "trace_overhead_ratio": statistics.median(s["op_p50_us"] for s in traced_segments)
        / statistics.median(s["op_p50_us"] for s in base_segments),
    }
    for k, found in enumerate(executes, 1):
        out[f"core.executor.execute_us.Q{k}"] = ratio(found["total"], found["count"]) / 1e3
    # Every span of an operation lies inside its root span, so the self
    # times must add up to the root spans' time exactly.
    own = sum(v["self"] for (name, probe), v in spans.items() if name and not probe)
    spans_summary = {
        "coverage": ratio(own, op["total"]),
        # the base for "share of the operation" when reading the layer times
        "op_mean_us": ratio(op["total"], op["count"]) / 1e3,
    }
    return {name: {"value": float(value)} for name, value in out.items()}, spans_summary


def run_workload(args) -> int:
    try:
        from workloads import (
            FULL,
            NOMINAL_PROBE_NS,
            SMOKE,
            WORKLOADS,
            host_probe_ns,
        )
        from trace import Tracer
    except ImportError as exc:  # the program under test is not in this checkout
        print(f"benchmark cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    sizes = SMOKE if args.smoke else FULL
    # A traced run splits its window: an untraced half, then a traced half.
    seconds = 0.0 if args.smoke else args.seconds / 2 if args.trace else args.seconds
    min_segments = 2 if args.trace else sizes.min_segments
    cls = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work_", dir=OUT)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        setups: list[float] = []
        workload = None
        for _ in range(1 if args.trace else sizes.setups):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            probes = [host_probe_ns() for _ in range(3)]
            begin = perf_counter()
            workload = cls(sizes, args.seed, None, workdir)
            workload.setup()
            elapsed = perf_counter() - begin
            probes += [host_probe_ns() for _ in range(3)]
            # Scaled to the nominal host speed, like every timed chunk (a
            # set-up has only these six probes, hence their median).
            setups.append(elapsed * NOMINAL_PROBE_NS / statistics.median(probes))
        checked, mismatched = workload.oracle()
        before = workload.counters()
        segments = measure(workload.segment, seconds, min_segments)
        after = workload.counters()
        workload.close()
        attempted = checked + sum(s["ops"] for s in segments)
        failed = mismatched + sum(s["failed"] for s in segments)
        if not args.trace:
            reported = spec["end_to_end"]
            metrics = end_to_end(segments, setups)
        else:
            reported = spec["per_layer"]
            tracer = Tracer()
            traced = cls(sizes, args.seed, tracer, workdir)
            traced.setup()
            traced_segments = measure(traced.traced_segment, seconds, min_segments)
            traced.close()
            attempted += sum(s["ops"] for s in traced_segments)
            failed += sum(s["failed"] for s in traced_segments)
            metrics, detail["spans"] = per_layer(
                workload, traced, segments, traced_segments, before, after
            )
            # Fidelity: the traced operations returned the untraced rows and
            # tuple counts (checked per operation, counted in ``failed``) and
            # the spans of an operation account for all of its time.
            if abs(detail["spans"]["coverage"] - 1) > 0.05:
                failed += 1
            # ... and the traced segments touched exactly the untraced tuples.
            if sum(s["tuples"] for s in traced_segments) * len(segments) != sum(
                s["tuples"] for s in segments
            ) * len(traced_segments):
                failed += 1
            if args.trace_out:
                detail["trace_lines"] = tracer.dump(args.trace_out, TRACE_DUMP_OPS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The untraced run prints the workload-specific end-to-end figures (it
    # measured them over a full window); the traced run's result line
    # carries them too, 0 where the workload has no such figure.
    extra = secondary(segments, workload, failed, attempted)
    shown = list(metrics) + ([] if args.trace else list(extra))
    metrics.update(extra)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in metrics.items():
        metric["unit"] = units[name]
    for name in shown:
        print(f"{args.workload:20s} {name:42s} {metrics[name]['value']:.6g} {units[name]}")
    detail.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        segments=len(segments),
        ops_per_segment=segments[0]["ops"],
        setups=setups,
        # What the host-speed scaling did: the factor per segment, and the
        # median operation latency as the wall clock saw it.
        host_scale=over_segments(segments, "host_scale"),
        raw_op_p50_us=over_segments(segments, "raw_op_p50_us"),
    )
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {
                        "value": metrics.get(m["name"], {"value": 0.0})["value"],
                        "unit": m["unit"],
                    }
                    for m in reported
                },
            }
        )
    )
    return 0


# -- every workload, untraced then traced ----------------------------------


def environment(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_all(args) -> int:
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    result = {"env": environment(args), "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        merged: dict = {}
        for trace in (0, 1):
            detail = os.path.join(OUT, f"detail_{workload}_{trace}.json")
            command = [
                sys.executable,
                os.path.join(HERE, "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--detail", detail,
            ]
            if trace:
                command += ["--trace-out", os.path.join(OUT, f"trace_{workload}.jsonl")]
            if args.smoke:
                command.append("--smoke")
            code = subprocess.run(command, cwd=ROOT).returncode
            if code:
                print(f"{workload} --trace {trace} exited with {code}", file=sys.stderr)
                return code
            with open(detail) as handle:
                merged["traced" if trace else "untraced"] = json.load(handle)
            os.remove(detail)
        untraced, traced = merged["untraced"], merged["traced"]
        result["workloads"][workload] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "traced_failed": traced["failed"],
            "segments": untraced["segments"],
            "ops_per_segment": untraced["ops_per_segment"],
            "host_scale": untraced["host_scale"],
            "raw_op_p50_us": untraced["raw_op_p50_us"],
            "end_to_end": untraced["metrics"],
            "per_layer": {
                name: value
                for name, value in traced["metrics"].items()
                if name not in SECONDARY_BOUNDS
            },
            "spans": traced["spans"],
        }
        if not result["workloads"][workload]["correct"]:
            status = 1
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {args.out}")
    return status


# -- judging one result file against another -------------------------------


def spread(metric: dict) -> float:
    """Interquartile range of the per-segment values over their median."""
    values = metric.get("segments", ())
    if len(values) < 2 or not metric["value"]:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(metric["value"])


def compare(args) -> int:
    spec = load_spec()
    with open(args.compare[0]) as handle:
        old = json.load(handle)
    with open(args.compare[1]) as handle:
        new = json.load(handle)
    same_seed = old["env"]["seed"] == new["env"]["seed"]
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        rules[m["name"]] = (m["better"], SECONDARY_BOUNDS.get(m["name"]))
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = old["workloads"][workload], new["workloads"][workload]
        for section in ("end_to_end", "per_layer"):
            for name, before in a[section].items():
                after = b[section][name]
                better, bound = rules[name]
                x, y = before["value"], after["value"]
                worse = (y - x if better == "lower" else x - y) / abs(x) if x else y - x
                exact = name in EXACT and same_seed
                # (sums of floats over a different number of identical
                # segments may differ in the last bits)
                if exact and math.isclose(x, y, rel_tol=1e-9):
                    verdict = "unchanged"
                elif bound is None:
                    verdict = "changed" if exact else "info"
                elif not exact and max(spread(before), spread(after)) > bound:
                    verdict = "unresolved"
                elif worse > (0 if exact else bound):
                    verdict = "regressed"
                elif -worse > (0 if exact else bound):
                    verdict = "improved"
                else:
                    verdict = "unchanged"
                regressed += verdict == "regressed"
                print(
                    f"{workload:20s} {name:42s} {x:14.6g} -> {y:14.6g} "
                    f"{-worse:+8.2%} {verdict}"
                )
    print(f"{regressed} regression(s)")
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two segments")
    parser.add_argument("--out", default=os.path.join(OUT, "result.json"))
    parser.add_argument("--detail", help="also write this run's full detail here")
    parser.add_argument("--trace-out", help="write the first spans here (traced run)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if not args.workload:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0" or "REPRO_CERTIFY" in os.environ:
        # String hashing decides dict and set layouts; pin it (and drop the
        # certifier switch: engines are built with certify=True) so that
        # every run of one seed does the same work.
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CERTIFY"}
        env["PYTHONHASHSEED"] = "0"
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
