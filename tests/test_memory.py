"""A served DAG is freed by reference counting, never by the cycle collector.

Every request builds an AND-OR DAG, its arena and cost engine, the views the
searches return, and a plan.  None of it may form a reference cycle: cyclic
garbage is freed only by CPython's cycle collector, whose full collections
pause every request that happens to trigger one.  The invariant is checked
the direct way — after a warm-up, with automatic collection disabled, a
manual ``gc.collect()`` after each request must find nothing to free.

The same file checks the view contract that makes this possible: views are
canonical while their DAG lives, a view held past its DAG still reads its
own columns, and the searches create views only for the operations they
choose.
"""

import gc
import weakref

import pytest

from repro import MQOptimizer
from repro.catalog import psp_catalog, tpcd_catalog
from repro.dag.nodes import OperationNode
from repro.execution import Executor, generate_psp_data
from repro.optimizer.engine import get_engine
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import component_query, scaleup_queries


def _window_queries(count):
    """Overlapping windows of CQ5 components ``(start, width)``, the shape of
    the benchmark's warm stream."""
    windows = []
    for i in range(count):
        start = (i * 7) % 17 + 1
        width = min(2 + i % 3, 19 - start)
        windows.append(
            [query for c in range(start, start + width) for query in component_query(c)]
        )
    return windows


@pytest.fixture()
def no_automatic_gc():
    """Collect once, then leave collection to the test's explicit calls."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestNoCyclicGarbagePerRequest:
    @pytest.mark.parametrize(
        "catalog, queries",
        [
            (psp_catalog, lambda: scaleup_queries(5)),
            (tpcd_catalog, lambda: batched_queries(5)),
        ],
        ids=["CQ5", "BQ5"],
    )
    def test_optimize_all(self, no_automatic_gc, catalog, queries):
        catalog, queries = catalog(), queries()
        MQOptimizer(catalog).optimize_all(queries)  # warm-up
        gc.collect()
        for _ in range(2):
            results = MQOptimizer(catalog).optimize_all(queries)
            assert results["Greedy"].cost > 0
            del results
            assert gc.collect() == 0

    def test_session_stream_with_evictions_and_a_write(self, no_automatic_gc):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=True, max_plans=8)
        windows = _window_queries(40)
        session.optimize(windows[0], "greedy")  # warm-up
        gc.collect()
        for index, queries in enumerate(windows):
            if index == 20:
                table = catalog.table_names()[0]
                catalog.update_statistics(
                    table, row_count=round(catalog.table(table).row_count * 0.9)
                )
            session.optimize(queries, "greedy")
            assert gc.collect() == 0, f"request {index} left cyclic garbage"

    def test_executor_run_through_result_cache(self, no_automatic_gc):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=True, max_plans=8, result_cache=True)
        database = generate_psp_data(rows_per_table=100, seed=3)
        executor = Executor(database, catalog, result_cache=session.result_cache)
        windows = _window_queries(6)
        executor.run(session.optimize(windows[0], "greedy").plan)  # warm-up
        gc.collect()
        for index, queries in enumerate(windows):
            executor.run(session.optimize(queries, "greedy").plan)
            assert gc.collect() == 0, f"request {index} left cyclic garbage"


class TestDagLifetime:
    def test_dag_is_freed_on_last_reference(self, no_automatic_gc):
        results = MQOptimizer(psp_catalog()).optimize_all(scaleup_queries(2))
        dag = results["Greedy"].plan.dag
        get_engine(dag)
        ref = weakref.ref(dag)
        del dag
        assert ref() is not None  # the results still hold it
        del results
        assert ref() is None  # freed at once, no gc.collect()

    def test_views_are_canonical_while_the_dag_lives(self):
        dag = MQOptimizer(psp_catalog()).build_dag(scaleup_queries(2))
        engine = get_engine(dag)
        for node in dag.equivalence_nodes():
            assert engine.nodes[node.id] is dag.node_by_id(node.id) is node
            for operation in node.operations:
                assert dag.arena.op_view(operation.id) is operation

    def test_view_held_past_its_dag_reads_its_columns(self):
        dag = MQOptimizer(psp_catalog()).build_dag(scaleup_queries(2))
        node = dag.query_roots[0]
        label, rows, node_id = node.label, node.rows, node.id
        operation = node.operations[0]
        operator, children = operation.operator, [c.id for c in operation.children]
        ref = weakref.ref(dag)
        del dag
        assert ref() is None
        assert (node.label, node.rows, node.id) == (label, rows, node_id)
        assert operation.operator == operator
        assert [c.id for c in operation.children] == children


def test_searches_create_views_only_for_chosen_operations():
    catalog, queries = psp_catalog(), scaleup_queries(5)
    results = MQOptimizer(catalog).optimize_all(queries)
    dag = results["Greedy"].plan.dag
    views = sum(view is not None for view in dag.arena._op_views)
    assert all(isinstance(v, OperationNode) for v in dag.arena._op_views if v is not None)
    assert 0 < views < dag.num_operation_nodes
