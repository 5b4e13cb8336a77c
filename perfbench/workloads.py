"""The three benchmark workloads: ``cold-mixed``, ``warm-stream``, ``exec-reuse``.

Each workload turns the ``--seed`` into a request stream (inputs are built
here, before set-up, and are not timed), builds the system state in
:meth:`setup` (timed as ``setup_s``), and serves one request per call of
:meth:`serve`.  :meth:`serve_traced` issues the same work as separate calls
into each layer's public functions, each wrapped in a span.  Checks and
accounting run outside the timed intervals.

Request streams are seeded shuffles of a fixed *deck* of batches: every
whole deck holds each batch the same number of times, so sums over whole
decks (``plan_cost_s``, ``blocks_read``) and the latency mix do not drift
with the seed, while the order — which decides what each cache holds when
a batch arrives — does.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from harness import (
    SERVICE_MAX_PLANS,
    _rows_digest,
    _service_batch_queries,
    _service_batch_specs,
    assert_cost_ordering,
)
from repro import MQOptimizer, PAPER_ALGORITHMS
from repro.catalog import psp_catalog, tpcd_catalog
from repro.catalog.psp import DEFAULT_RELATION_COUNT, psp_table_names
from repro.execution import Executor, generate_psp_data
from repro.optimizer.costing import bestcost
from repro.optimizer.engine import get_engine
from repro.service.session import OptimizerSession, SessionCacheLimits
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries

#: Span / metric name of each paper algorithm, keyed by ``result.algorithm``.
ALGORITHM_LAYERS = {
    "Volcano": "volcano",
    "Volcano-SH": "volcano_sh",
    "Volcano-RU": "volcano_ru",
    "Greedy": "greedy",
}

#: The ``bounded()`` profile's cap on the results family.
RESULTS_CAP = SessionCacheLimits.bounded().results


class CheckFailed(Exception):
    """An answer the benchmark found wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _window_specs() -> List[Tuple[int, int]]:
    """The distinct CQ5 component windows of the harness service stream."""
    return sorted(set(_service_batch_specs(51)))


class Workload:
    name = ""
    #: Requests whose outcomes make up the exact metrics: every run serves
    #: at least this many, whatever ``--seconds`` is.
    exact_requests = 0
    #: Layers a traced request is split into, in call order.
    layers: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(f"{self.name}:{seed}:order")
        self._order: List = []
        self.deck: List = []

    # -- request stream -------------------------------------------------------
    def key(self, index: int):
        """The batch served by request *index* (streams are unbounded)."""
        while len(self._order) <= index:
            cycle = list(self.deck)
            self._rng.shuffle(cycle)
            self._order.extend(cycle)
        return self._order[index]

    def write(self, index: int) -> Optional[Tuple[str, int]]:
        """The statistics write issued just before request *index*, if any."""
        return None

    # -- system under test ----------------------------------------------------
    def setup(self, tracer) -> SimpleNamespace:
        raise NotImplementedError

    def serve(self, state, key):
        raise NotImplementedError

    def serve_traced(self, state, key, tracer):
        raise NotImplementedError

    def check(self, state, index: int, key, outcome) -> None:
        """Raise :class:`CheckFailed` (or the harness's ``AssertionError``)
        when *outcome* is wrong."""

    def account(self, totals: Dict[str, float], outcome) -> None:
        raise NotImplementedError

    def counts(self, state) -> Dict[str, float]:
        """Layer counters read after the exact prefix."""
        return {}

    def dag_of(self, outcome):
        raise NotImplementedError

    def inputs(self, state) -> Dict[str, float]:
        """Input properties the workload's behaviour depends on."""
        keys = [self.key(i) for i in range(self.exact_requests)]
        seen = set()
        repeats = 0
        for key in keys:
            repeats += key in seen
            seen.add(key)
        writes = sum(self.write(i) is not None for i in range(self.exact_requests))
        return {
            "distinct_batches": len(set(self.deck)),
            "exact_repeat_share": repeats / len(keys),
            "write_share": writes / len(keys),
        }


def _account_result(totals: Dict[str, float], result) -> None:
    layer = ALGORITHM_LAYERS[result.algorithm]
    totals["plan_cost_s"] += result.cost
    totals[f"optimizer.{layer}.cost_s"] += result.cost
    for name, value in result.counters.items():
        totals[f"optimizer.{layer}.{name}"] += value


class ColdMixed(Workload):
    """Every request: a fresh :class:`MQOptimizer` runs all four paper
    algorithms on one DAG.  No session, result cache or executor."""

    name = "cold-mixed"
    layers = ("dag.build", "optimizer.engine_freeze") + tuple(
        f"optimizer.{layer}" for layer in ALGORITHM_LAYERS.values())
    #: Batch mix, weighted so that the median and the 90th percentile fall
    #: inside a group of equally slow batches (CQ3 and CQ5), not on the gap
    #: between two groups, where they would jump from run to run.
    DECK = (("CQ1",) * 2 + ("CQ2",) * 2 + ("CQ3",) * 4 + ("CQ4",) * 2
            + ("CQ5",) * 4 + ("BQ1", "BQ2", "BQ2", "BQ3", "BQ4", "BQ5"))
    exact_requests = 5 * len(DECK)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.deck = list(self.DECK)
        self._queries = {f"CQ{i}": scaleup_queries(i, seed=seed) for i in range(1, 6)}
        self._queries.update({f"BQ{i}": batched_queries(i) for i in range(1, 6)})

    def setup(self, tracer):
        state = SimpleNamespace(catalogs={"CQ": psp_catalog(), "BQ": tpcd_catalog()})
        for key in sorted(set(self.deck)):  # warm-up pass
            self.serve(state, key)
        return state

    def serve(self, state, key):
        return MQOptimizer(state.catalogs[key[:2]]).optimize_all(self._queries[key])

    def serve_traced(self, state, key, tracer):
        optimizer = MQOptimizer(state.catalogs[key[:2]])
        queries = self._queries[key]
        with tracer.span("dag.build"):
            dag = optimizer.build_dag(queries)
        with tracer.span("optimizer.engine_freeze"):
            get_engine(dag)
        results = {}
        for algorithm in PAPER_ALGORITHMS:
            layer = algorithm.value.replace("-", "_")
            with tracer.span(f"optimizer.{layer}"):
                result = optimizer.optimize(queries, algorithm, dag=dag)
            results[result.algorithm] = result
        return results

    def check(self, state, index, key, outcome):
        assert_cost_ordering(outcome)
        greedy = outcome["Greedy"]
        _require(greedy.cost == bestcost(greedy.plan.dag, greedy.plan.materialized),
                 f"request {index} ({key}): greedy cost is not bestcost of its plan")

    def account(self, totals, outcome):
        for result in outcome.values():
            _account_result(totals, result)
        greedy = outcome["Greedy"]
        totals["dag.eq_nodes"] += greedy.dag_equivalence_nodes
        totals["dag.op_nodes"] += greedy.dag_operation_nodes

    def dag_of(self, outcome):
        return outcome["Greedy"].plan.dag


class _WindowStream(Workload):
    """Shared by the session workloads: seeded shuffles of the distinct
    overlapping CQ5 component windows, served by one long-lived
    :class:`OptimizerSession` restored from a bounded snapshot."""

    exact_requests = 96
    result_cache = False
    #: One request in CHECK_EVERY, at seeded positions, is checked against
    #: a one-shot reference (the reference is what costs).
    CHECK_EVERY = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.deck = _window_specs()
        self._queries = {spec: _service_batch_queries(spec) for spec in self.deck}
        self._check_rng = random.Random(f"{self.name}:{seed}:checks")
        self._checked: List[bool] = []

    def _sampled(self, index: int) -> bool:
        while len(self._checked) <= index:
            self._checked.append(self._check_rng.randrange(self.CHECK_EVERY) == 0)
        return self._checked[index]

    def _warm(self, session, catalog, state):
        """The warm-up pass on the snapshot donor."""
        for spec in self.deck:
            session.build_dag(self._queries[spec])

    def setup(self, tracer):
        catalog = psp_catalog()
        parent = OptimizerSession(catalog, cache_plans=False,
                                  limits=SessionCacheLimits.bounded(),
                                  result_cache=self.result_cache)
        state = SimpleNamespace()
        self._warm(parent, catalog, state)
        with tracer.span("service.snapshot"):
            snapshot = parent.snapshot_state()
        with tracer.span("service.restore"):
            state.session = OptimizerSession.from_snapshot(
                snapshot, cache_plans=True, max_plans=SERVICE_MAX_PLANS,
                result_cache=self.result_cache)
        state.snapshot_bytes = len(snapshot)
        state.results_working_set = parent.cache.family_sizes()["results"]
        return state

    def counts(self, state):
        session = state.session
        stats = session.cache_stats()
        plan_lookups = session.plan_hits + session.plan_misses
        counts = {
            "service.fragment_hit_ratio": stats.hit_rate,
            "service.plan_hit_ratio": session.plan_hits / plan_lookups if plan_lookups else 0.0,
            "service.lru_evictions": stats.lru_evictions,
            "service.recipe_quarantines": stats.recipe_quarantines,
            "service.quarantined": stats.quarantined,
            "service.interner_resets": stats.interner_resets,
            "service.snapshot_bytes": state.snapshot_bytes,
        }
        for family, size in session.cache.family_sizes().items():
            counts[f"service.family.{family}"] = size
        return counts

    def inputs(self, state):
        inputs = super().inputs(state)
        inputs["plan_cache_cap"] = SERVICE_MAX_PLANS
        return inputs


class WarmStream(_WindowStream):
    """Greedy on overlapping windows, with statistics writes interleaved."""

    name = "warm-stream"
    layers = ("dag.build", "service.optimize")
    #: One request in WRITE_EVERY is preceded by a write.
    WRITE_EVERY = 10
    #: Writes alternate: one scales a seeded relation's row count by a
    #: seeded factor from WRITE_FACTORS, the next restores it.  Values come
    #: from a small set, so statistics digests recur, and at most one
    #: relation is off its catalog value, so that plan costs
    #: (``plan_cost_s``) move little with the seed.
    WRITE_FACTORS = (0.9, 1.1)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._writes: Dict[int, Tuple[str, int]] = {}
        self._write_rng = random.Random(f"{self.name}:{seed}:writes")
        catalog = psp_catalog()
        self._base_rows = {table: catalog.table(table).row_count
                           for table in psp_table_names(DEFAULT_RELATION_COUNT)}
        self._changed: Optional[str] = None
        self._planned = 0

    def write(self, index):
        # Planned a block of WRITE_EVERY requests at a time: one write per
        # block, at a seeded position.
        while self._planned <= index:
            position = self._planned + self._write_rng.randrange(self.WRITE_EVERY)
            if self._changed is None:
                table = self._write_rng.choice(list(self._base_rows))
                factor = self._write_rng.choice(self.WRITE_FACTORS)
                self._changed = table
            else:
                table, factor = self._changed, 1.0
                self._changed = None
            self._writes[position] = (table, round(self._base_rows[table] * factor))
            self._planned += self.WRITE_EVERY
        return self._writes.get(index)

    def serve(self, state, key):
        return state.session.optimize(self._queries[key], "greedy")

    def serve_traced(self, state, key, tracer):
        queries = self._queries[key]
        with tracer.span("dag.build"):
            state.session.build_dag(queries)
        with tracer.span("service.optimize"):
            return state.session.optimize(queries, "greedy")

    def check(self, state, index, key, outcome):
        if not self._sampled(index):
            return
        reference = MQOptimizer(state.session.catalog).optimize(self._queries[key], "greedy")
        _require(outcome.cost == reference.cost,
                 f"request {index} {key}: session cost {outcome.cost!r} != "
                 f"one-shot cost {reference.cost!r}")

    def account(self, totals, outcome):
        _account_result(totals, outcome)
        totals["dag.eq_nodes"] += outcome.dag_equivalence_nodes
        totals["dag.op_nodes"] += outcome.dag_operation_nodes

    def dag_of(self, outcome):
        return outcome.plan.dag


class ExecReuse(_WindowStream):
    """Batch in, rows out: optimize through a result-caching session, then
    execute on seeded generated PSP data."""

    name = "exec-reuse"
    layers = ("dag.build", "service.optimize", "execution.run")
    result_cache = True
    #: Rows per generated PSP relation.
    ROWS_PER_TABLE = 600
    #: A reference costs a one-shot optimize, a cold execution and two
    #: digests, about 0.4 s at 600 rows, so fewer requests are checked.
    CHECK_EVERY = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._reference: Dict[Tuple[int, int], str] = {}

    def _warm(self, session, catalog, state):
        state.database = generate_psp_data(DEFAULT_RELATION_COUNT,
                                           self.ROWS_PER_TABLE, seed=self.seed)
        executor = Executor(state.database, catalog, result_cache=session.result_cache)
        for spec in self.deck:
            executor.run(session.optimize(self._queries[spec], "greedy").plan)

    def setup(self, tracer):
        state = super().setup(tracer)
        state.executor = Executor(state.database, state.session.catalog,
                                  result_cache=state.session.result_cache)
        return state

    def serve(self, state, key):
        result = state.session.optimize(self._queries[key], "greedy")
        return result, state.executor.run(result.plan)

    def serve_traced(self, state, key, tracer):
        queries = self._queries[key]
        with tracer.span("dag.build"):
            state.session.build_dag(queries)
        with tracer.span("service.optimize"):
            result = state.session.optimize(queries, "greedy")
        with tracer.span("execution.run"):
            return result, state.executor.run(result.plan)

    def check(self, state, index, key, outcome):
        if not self._sampled(index):
            return
        if key not in self._reference:
            # The catalog and data never change in this workload, so one
            # cache-less cold execution per window serves every request.
            plan = MQOptimizer(state.session.catalog).optimize(self._queries[key], "greedy").plan
            cold = Executor(state.database, state.session.catalog).run(plan)
            self._reference[key] = _rows_digest(cold.per_query_rows)
        _require(_rows_digest(outcome[1].per_query_rows) == self._reference[key],
                 f"request {index} {key}: cached execution rows differ from a cold execution")

    def account(self, totals, outcome):
        result, execution = outcome
        _account_result(totals, result)
        totals["dag.eq_nodes"] += result.dag_equivalence_nodes
        totals["dag.op_nodes"] += result.dag_operation_nodes
        stats = execution.stats
        totals["blocks_read"] += stats.blocks_read
        for name in ("blocks_read", "rows_scanned", "rows_processed", "reuses"):
            totals[f"execution.{name}"] += getattr(stats, name)
        totals["execution.simulated_s"] += stats.simulated_seconds

    def counts(self, state):
        counts = super().counts(state)
        rc = state.session.result_cache.counters()
        lookups = rc["hits"] + rc["misses"]
        counts["result_cache.hit_ratio"] = rc["hits"] / lookups if lookups else 0.0
        for name in ("exact_injections", "covering_injections", "adoptions",
                     "stores", "entries"):
            counts[f"result_cache.{name}"] = rc[name]
        return counts

    def dag_of(self, outcome):
        return outcome[0].plan.dag

    def inputs(self, state):
        inputs = super().inputs(state)
        inputs["results_working_set"] = state.results_working_set
        inputs["results_cap"] = RESULTS_CAP
        inputs["rows_per_table"] = self.ROWS_PER_TABLE
        return inputs


WORKLOADS = {cls.name: cls for cls in (ColdMixed, WarmStream, ExecReuse)}
