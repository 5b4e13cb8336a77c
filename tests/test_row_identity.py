"""Executed rows do not depend on the process that computes them.

Rows are dictionaries keyed by interned :class:`~repro.algebra.columns.ColumnRef`
objects whose hash derives from ``str`` hashes, which ``PYTHONHASHSEED``
changes.  Row and column order must not follow it: two interpreter processes
with different hash seeds execute CQ1–CQ5 and BQ1–BQ5 (greedy plans, result
cache off and on) and must print the same row digests — values, row order
and column order — and the same :class:`ExecutionStats`.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import dataclasses, hashlib, sys
sys.path[:0] = ["src", "benchmarks"]
from harness import _rows_digest
from repro import MQOptimizer
from repro.catalog import psp_catalog, tpcd_catalog
from repro.execution import Executor, generate_psp_data, generate_tpcd_data
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries

def report(label, execution):
    stats = [(f.name, getattr(execution.stats, f.name))
             for f in dataclasses.fields(execution.stats)]
    print(label, _rows_digest(execution.per_query_rows), repr(stats))

for name, catalog, database, batch in (
    ("CQ", psp_catalog(), generate_psp_data(rows_per_table=80, seed=1), scaleup_queries),
    ("BQ", tpcd_catalog(), generate_tpcd_data(scale=0.001, seed=7), batched_queries),
):
    session = OptimizerSession(catalog, cache_plans=False, result_cache=True)
    cached = Executor(database, catalog, result_cache=session.result_cache)
    for n in range(1, 6):
        queries = batch(n)
        plan = MQOptimizer(catalog).optimize(queries, "greedy").plan
        report(f"{name}{n} off", Executor(database, catalog).run(plan))
        report(f"{name}{n} on", cached.run(session.optimize(queries, "greedy").plan))
    print(name, "result cache", session.result_cache.counters())
"""


def test_rows_and_stats_identical_across_hashseeds():
    processes = {
        seed: subprocess.Popen(
            [sys.executable, "-c", _SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            cwd=REPO_ROOT,
        )
        for seed in ("0", "12345")
    }
    outputs = {}
    for seed, process in processes.items():
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
        outputs[seed] = stdout
    lines = outputs["0"].splitlines()
    assert len(lines) == 22, outputs["0"]
    # The result cache served something, so the "on" rows went through it.
    assert "'exec_serves': 0," not in outputs["0"]
    assert outputs["0"] == outputs["12345"]
