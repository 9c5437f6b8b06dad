"""Smoke test of the benchmark itself: ``python -m pytest benchmarks -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``): it runs every
workload twice at the ``--smoke`` sizes, untraced and traced.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from run import EXACT, SECONDARY_BOUNDS  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two smoke runs of one seed: their text output and result files."""
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("smoke") / f"result_{index}.json"
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "7",
             "--out", str(out)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        with open(out) as handle:
            runs.append((done.stdout, json.load(handle)))
    return runs


def test_every_name_is_reported_with_its_unit(spec, smoke_runs):
    text, result = smoke_runs[0]
    printed = {
        (line[0], line[1]): line[-1] for line in map(str.split, text.splitlines()) if len(line) == 4
    }
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        reporting = [w["name"] for w in spec["workloads"] if (w["name"], name) in printed]
        # A workload-specific end-to-end figure is omitted where it cannot
        # be produced; everything else comes from every workload.
        assert reporting if name in SECONDARY_BOUNDS else len(reporting) == len(spec["workloads"])
        for workload in reporting:
            assert printed[workload, name] == unit
            section = result["workloads"][workload]
            assert {**section["end_to_end"], **section["per_layer"]}[name]["unit"] == unit


def test_outputs_are_correct(smoke_runs):
    for _, result in smoke_runs:
        for name, workload in result["workloads"].items():
            assert workload["correct"], name
            assert workload["end_to_end"]["failed_ops_share"]["value"] == 0
    assert result["workloads"]["scale_sqlite"]["end_to_end"]["scale_tuples_delta"]["value"] == 0


def test_exact_counts_repeat(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for name, workload in first["workloads"].items():
        other = second["workloads"][name]
        for section in ("end_to_end", "per_layer"):
            for metric in EXACT & workload[section].keys():
                assert (
                    workload[section][metric]["value"] == other[section][metric]["value"]
                ), f"{name} {metric} differs between two runs of one seed"


def test_compare_accepts_a_run_against_itself(smoke_runs, tmp_path):
    path = tmp_path / "result.json"
    path.write_text(json.dumps(smoke_runs[0][1]))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--compare", str(path), str(path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout
    assert "regressed" not in done.stdout
