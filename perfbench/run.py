"""The repository benchmark: batch in, plans (and rows) out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-mixed --seed 1 --seconds 20 --trace 0

One client, closed loop: the next request is sent when the previous one
returns; no threads, no worker processes.  A run sets the workload up
``SETUPS`` times (``setup_s`` is the median), then serves requests until
``--seconds`` of request time have been measured and the workload's exact
prefix (``exact_requests``) is complete.  Every answer is checked outside
the timed intervals.  Reported times are scaled to a reference host speed
(see ``CALIBRATION_REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced pass (layer counters, read after the exact prefix) and then a
traced pass on a fresh set-up (layer self times from spans around each call
into a layer), and prints the per-layer metrics; the spans are written to
``perfbench/traces/``.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from repro.dag.sharability import sharing_degrees  # noqa: E402
from repro.service.session import SessionCacheLimits  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ALGORITHM_LAYERS, WORKLOADS, CheckFailed  # noqa: E402

SETUPS = 3

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END: List[Tuple[str, str]] = [
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("batches_per_s", "1/s"),
    ("post_write_p50_ms", "ms"),
    ("plan_cost_s", "est_s"),
    ("blocks_read", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_FAMILIES = [field.name for field in dataclasses.fields(SessionCacheLimits)
             if field.name != "max_interned"]
_TIMED_LAYERS = ["dag.build", "optimizer.engine_freeze"] + [
    f"optimizer.{layer}" for layer in ALGORITHM_LAYERS.values()] + [
    "service.optimize", "execution.run"]

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
#: Layers a workload does not call read 0.
PER_LAYER: List[Tuple[str, str]] = (
    [(f"{layer}_ms", "ms") for layer in _TIMED_LAYERS]
    + [("dag.sharability_ms", "ms"),
       ("catalog.update_statistics_ms", "ms"),
       ("service.snapshot_ms", "ms"),
       ("service.restore_ms", "ms"),
       ("trace.request_ms", "ms"),
       ("trace.accounted_pct", "%"),
       ("trace.overhead_pct", "%"),
       ("dag.eq_nodes", "count"),
       ("dag.op_nodes", "count")]
    + [(f"optimizer.{layer}.cost_s", "est_s") for layer in ALGORITHM_LAYERS.values()]
    + [("optimizer.greedy.benefit_recomputations", "count"),
       ("optimizer.greedy.cost_propagations", "count"),
       ("optimizer.greedy.candidates", "count"),
       ("optimizer.volcano_ru.orders_tried", "count"),
       ("service.fragment_hit_ratio", "ratio"),
       ("service.plan_hit_ratio", "ratio"),
       ("service.lru_evictions", "count"),
       ("service.recipe_quarantines", "count"),
       ("service.quarantined", "count"),
       ("service.interner_resets", "count"),
       ("service.snapshot_bytes", "bytes")]
    + [(f"service.family.{family}", "count") for family in _FAMILIES]
    + [("execution.blocks_read", "count"),
       ("execution.rows_scanned", "count"),
       ("execution.rows_processed", "count"),
       ("execution.reuses", "count"),
       ("execution.simulated_s", "sim_s"),
       ("result_cache.hit_ratio", "ratio"),
       ("result_cache.exact_injections", "count"),
       ("result_cache.covering_injections", "count"),
       ("result_cache.adoptions", "count"),
       ("result_cache.stores", "count"),
       ("result_cache.entries", "count")]
)


#: Host-speed calibration.  The benchmark runs on shared cores, where the
#: speed of a pure-Python loop drifts by up to ~1.5x within seconds.  Each
#: request is followed, outside its timed interval, by a fixed loop; each
#: time is multiplied by CALIBRATION_REFERENCE_S over the median loop time
#: of the surrounding requests.  Times are so reported in milliseconds at
#: the speed at which the loop takes CALIBRATION_REFERENCE_S; the raw
#: wall-clock figures are printed beside them.  0.8 ms is about the loop's
#: time on an uncontended core of the 2-vCPU Xeon container the bounds in
#: BENCHMARK.json were set on, so there the figures read close to wall clock.
CALIBRATION_ITERATIONS = 10_000
CALIBRATION_REFERENCE_S = 0.0008
CALIBRATION_WINDOW = 5


def calibration_loop() -> float:
    """Seconds taken by a fixed integer loop.  It touches no memory beyond
    a few cache lines, so its time does not depend on what the requests
    left in the caches, and it allocates no containers, so it triggers no
    garbage collection."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scales(samples: List[float]) -> List[float]:
    """Per sample: the reference time over the median of its neighbours."""
    window = CALIBRATION_WINDOW
    return [CALIBRATION_REFERENCE_S / statistics.median(samples[max(0, i - window):i + window + 1])
            for i in range(len(samples))]


def run_pass(workload, state, seconds: float, tracer: Optional[Tracer] = None):
    """Serve requests until *seconds* of request and write time have been
    measured and the exact prefix is complete."""
    measured = SimpleNamespace(latencies=[], writes={}, calibration=[], failed=0,
                               totals=defaultdict(float), counts={})
    busy = 0.0
    index = 0
    while busy < seconds or index < workload.exact_requests:
        if tracer is not None:
            tracer.request = index
        write = workload.write(index)
        if write is not None:
            table, rows = write
            start = time.perf_counter()
            if tracer is None:
                state.session.catalog.update_statistics(table, row_count=rows)
            else:
                with tracer.span("catalog.update_statistics"):
                    state.session.catalog.update_statistics(table, row_count=rows)
            measured.writes[index] = time.perf_counter() - start
            busy += measured.writes[index]
        key = workload.key(index)
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.serve(state, key)
            else:
                with tracer.span("request"):
                    outcome = workload.serve_traced(state, key, tracer)
        except Exception:  # a failed request is counted, and the loop goes on
            traceback.print_exc()
            outcome = None
        elapsed = time.perf_counter() - start
        busy += elapsed
        measured.latencies.append(elapsed)
        if outcome is None:
            measured.failed += 1
        else:
            try:
                workload.check(state, index, key, outcome)
            except (AssertionError, CheckFailed) as exc:
                print(f"check failed: request {index} {key}: {exc}", file=sys.stderr)
                measured.failed += 1
            if index < workload.exact_requests:
                workload.account(measured.totals, outcome)
            if tracer is not None:
                # Outside the request tree: greedy runs this sweep itself.
                with tracer.span("dag.sharability"):
                    sharing_degrees(workload.dag_of(outcome))
        measured.calibration.append(calibration_loop())
        index += 1
        if index == workload.exact_requests:
            measured.counts = workload.counts(state)
    measured.scale = speed_scales(measured.calibration)
    measured.scaled = [t * f for t, f in zip(measured.latencies, measured.scale)]
    return measured


def _setups(workload, keep: int, tracer: Tracer):
    """Set the workload up SETUPS times; return the calibrated times, the
    speed scale of each set-up and the last *keep* states."""
    times: List[float] = []
    scales: List[float] = []
    states: List[object] = []
    for number in range(SETUPS):
        tracer.request = number
        start = time.perf_counter()
        states.append(workload.setup(tracer))
        elapsed = time.perf_counter() - start
        del states[:-keep]
        samples = [calibration_loop() for _ in range(2 * CALIBRATION_WINDOW + 1)]
        scales.append(CALIBRATION_REFERENCE_S / statistics.median(samples))
        times.append(elapsed * scales[-1])
    gc.collect()
    return times, scales, states


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, measured, setup_times) -> Dict[str, float]:
    latencies = measured.scaled
    writes = [t * measured.scale[i] for i, t in measured.writes.items()]
    p50 = statistics.median(latencies) * 1e3
    executes = "execution.run" in workload.layers
    return {
        "batch_p50_ms": p50,
        "batch_p90_ms": _p90(latencies) * 1e3,
        "batches_per_s": len(latencies) / (sum(latencies) + sum(writes)),
        # Without writes every request reads the catalog it was set up
        # with, so the post-write median is the ordinary median.
        "post_write_p50_ms": (statistics.median(latencies[i] for i in measured.writes) * 1e3
                              if measured.writes else p50),
        "plan_cost_s": measured.totals["plan_cost_s"],
        # Not applicable without execution: fixed at 1 so the key is present.
        "blocks_read": measured.totals["blocks_read"] if executes else 1,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, plain, traced, tracer: Tracer, setup_tracer: Tracer,
              setup_scales: List[float]) -> Dict[str, float]:
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    self_time = tracer.self_time_by_name(traced.scale)
    requests = len(traced.latencies)
    for layer in workload.layers:
        metrics[f"{layer}_ms"] = self_time.get(layer, 0.0) / requests * 1e3
    metrics["dag.sharability_ms"] = self_time.get("dag.sharability", 0.0) / requests * 1e3
    if traced.writes:
        metrics["catalog.update_statistics_ms"] = (
            self_time["catalog.update_statistics"] / len(traced.writes) * 1e3)
    setup_spans: Dict[str, List[float]] = defaultdict(list)
    for name, start, end, _, number in setup_tracer.spans:
        setup_spans[name].append((end - start) * setup_scales[number])
    for name in ("service.snapshot", "service.restore"):
        if setup_spans[name]:
            metrics[f"{name}_ms"] = statistics.median(setup_spans[name]) * 1e3
    request_s = self_time["request"] + sum(
        self_time.get(layer, 0.0) for layer in workload.layers)
    metrics["trace.request_ms"] = request_s / requests * 1e3
    metrics["trace.accounted_pct"] = (request_s - self_time["request"]) / request_s * 100.0
    common = min(len(plain.latencies), requests)
    metrics["trace.overhead_pct"] = (
        sum(traced.scaled[:common]) / sum(plain.scaled[:common]) - 1.0) * 100.0

    totals = plain.totals
    n = workload.exact_requests
    metrics["dag.eq_nodes"] = totals["dag.eq_nodes"] / n
    metrics["dag.op_nodes"] = totals["dag.op_nodes"] / n
    for name, _ in PER_LAYER:
        if name.startswith(("optimizer.", "execution.")) and name in totals:
            metrics[name] = totals[name]
    metrics.update(plain.counts)
    return metrics


def environment() -> Dict[str, object]:
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path) as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        # NumPy present selects the dense sharability sweep.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "src_lines": src_lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns everything measured (the CLI prints a
    subset).  A traced run keeps two set-ups: one state per pass."""
    workload = WORKLOADS[name](seed)
    setup_tracer = Tracer()
    setup_times, setup_scales, states = _setups(workload, 2 if trace else 1, setup_tracer)
    plain = run_pass(workload, states[0], seconds)
    report = SimpleNamespace(workload=workload, plain=plain, tracer=None)
    report.inputs = dict(
        workload.inputs(states[0]), seed=seed,
        dag_eq_nodes=plain.totals["dag.eq_nodes"] / workload.exact_requests,
        dag_op_nodes=plain.totals["dag.op_nodes"] / workload.exact_requests)
    report.end_to_end = end_to_end(workload, plain, setup_times)
    passes = [plain]
    if trace:
        del states[0]
        gc.collect()
        report.tracer = Tracer()
        traced = run_pass(workload, states[0], seconds, report.tracer)
        passes.append(traced)
        report.per_layer = per_layer(workload, plain, traced, report.tracer, setup_tracer,
                                     setup_scales)
    report.attempted = sum(len(p.latencies) for p in passes)
    report.failed = sum(p.failed for p in passes)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps(report.inputs, sort_keys=True))
    print(f"error_rate {report.failed / report.attempted:.6f} "
          f"({report.failed} failed of {report.attempted} requests)")
    plain = report.plain
    print(f"wall clock: batch_p50 {statistics.median(plain.latencies) * 1e3:.3f} ms, "
          f"batch_p90 {_p90(plain.latencies) * 1e3:.3f} ms, calibration loop "
          f"{statistics.median(plain.calibration) * 1e3:.3f} ms "
          f"(reference {CALIBRATION_REFERENCE_S * 1e3:g} ms)")
    if args.trace:
        spec, values = PER_LAYER, report.per_layer
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        report.tracer.dump(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        spec, values = END_TO_END, report.end_to_end
    metrics = {}
    for name, unit in spec:
        print(f"  {name:<42s} {values[name]:>16.6f} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
