"""Self-test of the benchmark.

Run it by path (like the ``benchmarks/bench_*.py`` files, it is not
collected by a bare ``pytest``); it takes about three minutes::

    python3 -m pytest perfbench/selftest.py -q

Each benchmark run is a fresh process, as the benchmark is meant to be
run, and serves only the workload's exact prefix (``--seconds 0``).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-mixed", "warm-stream", "exec-reuse")
TIMES = ("ms", "%", "s")


def _run(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


def _exact(result: dict) -> dict:
    """Every metric that must repeat exactly: costs, block reads and every
    count (times excluded)."""
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] not in TIMES}


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    plain, traced = _run("warm-stream", 1, 0), _run("warm-stream", 1, 1)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, metric["unit"]) for name, metric in plain["metrics"].items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, metric["unit"]) for name, metric in traced["metrics"].items()]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly_and_spans_account(workload):
    first, second = _run(workload, 11, 1), _run(workload, 11, 1)
    assert first["failed"] == second["failed"] == 0
    assert _exact(first) == _exact(second)

    # The end-to-end exact metrics are sums of the repeated layer counts.
    plain = _run(workload, 11, 0)["metrics"]
    layers = first["metrics"]
    assert plain["plan_cost_s"]["value"] == pytest.approx(sum(
        layers[f"optimizer.{alg}.cost_s"]["value"]
        for alg in ("volcano", "volcano_sh", "volcano_ru", "greedy")), rel=1e-12)
    executed = layers["execution.blocks_read"]["value"]
    assert plain["blocks_read"]["value"] == (executed if executed else 1)

    # Self times of each request's spans add up to the request's duration,
    # and the layers, not the benchmark's glue, take that time.
    with open(os.path.join(HERE, "traces", f"{workload}-seed11.json")) as handle:
        spans = json.load(handle)
    duration = [span["end"] - span["start"] for span in spans]
    total = list(duration)  # self times first, then summed up the tree
    for span, length in zip(spans, duration):
        if span["parent"] is not None:
            total[span["parent"]] -= length
    for index in reversed(range(len(spans))):  # children follow parents
        if spans[index]["parent"] is not None:
            total[spans[index]["parent"]] += total[index]
    for index, span in enumerate(spans):
        if span["name"] == "request":
            assert math.isclose(total[index], duration[index], rel_tol=1e-9, abs_tol=1e-12)
    assert layers["trace.accounted_pct"]["value"] > 90.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_every_check(workload):
    result = _run(workload, 12, 0)
    assert result["correct"] and result["failed"] == 0
