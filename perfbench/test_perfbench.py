"""Self-test of the benchmark, at tiny sizes (about a minute on 2 cores).

    python3 -m pytest -q perfbench

It checks the benchmark itself, not the library: every metric named in
BENCHMARK.json is printed with its unit, every traced span has a parent
that exists, no self time is negative, and a directory holding only the
benchmark fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import self_times  # noqa: E402

SEED = 3
WORKLOADS = ("frames", "scatter-anm", "scatter-rcc", "nlp")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_have_parents_and_nonnegative_self_time(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-tiny-{SEED}.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    ids = {s["id"] for s in spans}
    main_thread = spans[0]["thread"] if spans else None
    for s in spans:
        assert s["parent"] is None or s["parent"] in ids, s
        assert s["end"] >= s["start"], s
        if s["thread"] != main_thread:
            assert s["parent"] is not None, f"pool-thread span without parent: {s}"
    # 1 ns absorbs float rounding in interval sums; a child counted outside
    # its parent would show up as far more.
    assert min(self_times(spans).values()) >= -1e-9


def test_fails_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("frames", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
