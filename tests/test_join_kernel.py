"""The scalar join-costing kernel against its ``Cost``-object oracle.

:func:`repro.cost.algorithms.choose_join` prices a join from two per-node
:class:`~repro.cost.algorithms.JoinInput` summaries with plain float
arithmetic.  ``tests/oracles/join_costing.py`` keeps the formulation it
replaced, which builds a :class:`~repro.cost.model.Cost` per candidate from
the model's primitives.  For every join operation the builder prices — on
the sessionless and the session path — the kernel's ``(algorithm, total)``
must equal the oracle's bit for bit (``==``, never a tolerance), and the
operation's predicates must be exactly the predicates applied in the result
node but in neither child (the set difference the block-level predicate
bitmasks replace).
"""

import itertools

import pytest

from repro import MQOptimizer
from repro.algebra import col, eq, ge
from repro.catalog import Catalog, psp_catalog, tpcd_catalog
from repro.catalog.schema import make_table
from repro.cost import algorithms as alg
from repro.cost.estimation import Estimator
from repro.cost.model import CostModel
from repro.dag.nodes import JoinOp
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries
from tests.generators import random_query_workload
from tests.oracles import join_costing as oracle


@pytest.fixture(scope="module")
def catalogs():
    return {"psp": psp_catalog(), "tpcd": tpcd_catalog(1.0)}


def _workloads():
    for seed in (1, 5, 9):
        for i in range(1, 6):
            yield f"CQ{i}-seed{seed}", "psp", lambda i=i, seed=seed: scaleup_queries(i, seed=seed)
    for i in range(1, 6):
        yield f"BQ{i}", "tpcd", lambda i=i: batched_queries(i)
    for seed in range(40):
        yield f"random-{seed}", "psp", lambda seed=seed: random_query_workload(seed)


WORKLOADS = list(_workloads())


def _applied(key):
    return key[2] if isinstance(key, tuple) and key and key[0] == "join" else frozenset()


def _delivered_order(catalog, table, alias):
    if table is None or alias is None:
        return ()
    index = catalog.table(table).clustered_index()
    return () if index is None else (col(alias, index.column),)


def _check_join_operations(dag, catalog, model):
    """Every join operation of *dag* against the oracle; returns their count."""
    arena = dag.arena
    count = 0
    for op_id, operator in enumerate(arena.op_operator):
        if not isinstance(operator, JoinOp):
            continue
        count += 1
        owner = arena.op_owner[op_id]
        left, right = arena.op_children[op_id]
        connecting = (
            _applied(arena.eq_key[owner])
            - _applied(arena.eq_key[left])
            - _applied(arena.eq_key[right])
        )
        assert operator.predicates == tuple(sorted(connecting, key=str)), op_id
        expected = oracle.choose_join(
            model,
            catalog,
            arena.eq_props[left],
            arena.eq_props[right],
            operator.predicates,
            arena.eq_props[owner].rows,
            left_order=_delivered_order(
                catalog, arena.eq_base_table[left], arena.eq_scan_alias[left]
            ),
            right_order=_delivered_order(
                catalog, arena.eq_base_table[right], arena.eq_scan_alias[right]
            ),
            right_base_table=arena.eq_base_table[right],
            right_alias=arena.eq_scan_alias[right],
        )
        assert (operator.algorithm, arena.op_local_cost[op_id]) == expected, op_id
    return count


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Count the kernel calls the builder makes."""
    calls = []
    kernel = alg.choose_join

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(alg, "choose_join", counting)
    return calls


@pytest.mark.parametrize("path", ["sessionless", "session"])
@pytest.mark.parametrize("name, catalog_name, queries", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_kernel_matches_oracle_on_every_priced_join(
    catalogs, kernel_calls, path, name, catalog_name, queries
):
    catalog = catalogs[catalog_name]
    if path == "session":
        session = OptimizerSession(catalog, cache_plans=False)
        dag = session.build_dag(queries())
        model = session.cost_model
    else:
        optimizer = MQOptimizer(catalog)
        dag = optimizer.build_dag(queries())
        model = optimizer.cost_model
    # A cold build prices every join operation it adds exactly once.
    assert _check_join_operations(dag, catalog, model) == len(kernel_calls) > 0


def _grid_catalog():
    catalog = Catalog()
    for name in ("big", "other"):
        catalog.add_table(
            make_table(
                name,
                2_000_000,
                [("k", 8, 2_000_000), ("s", 8, 1_000), ("v", 120, 50_000)],
                primary_key="k",
                extra_indexes=("s",),
            )
        )
    return catalog


GRID_PREDICATES = [
    (),
    (eq(col("big", "k"), col("other", "k")),),  # both inputs delivered sorted
    (eq(col("big", "s"), col("other", "k")),),  # right sorted, left not
    (eq(col("other", "k"), col("big", "s")),),  # the same, operands flipped
    (eq(col("big", "s"), col("other", "s")),),  # neither sorted, secondary index
    (eq(col("big", "k"), col("other", "s")), eq(col("big", "v"), col("other", "v"))),
    (ge(col("big", "v"), col("other", "v")),),  # not an equi-join
]


@pytest.mark.parametrize("memory", [6 * 1024 * 1024, 128 * 1024 * 1024])
def test_kernel_matches_oracle_on_a_grid(memory):
    """Input sizes on both sides of the in-memory thresholds, scans and
    intermediate results on either side, and predicates hitting every
    merge-sort case and both index kinds.  The sizes are irregular on
    purpose: with round numbers a reassociated sum often rounds the same,
    and a kernel that folds its terms in the wrong order would pass."""
    catalog = _grid_catalog()
    model = CostModel().with_memory(memory)
    estimator = Estimator(catalog)
    base = {name: estimator.base_properties(name, name) for name in ("big", "other")}
    seen = set()
    sizes = (3.0, 1_234.5, 40_000.0, 777_777.0, 2_000_000.0)
    for left_rows, right_rows in itertools.product(sizes, repeat=2):
        left_props = base["big"].with_rows(left_rows)
        right_props = base["other"].with_rows(right_rows)
        for left_scan, right_scan in itertools.product((True, False), repeat=2):
            left_table = "big" if left_scan else None
            right_table = "other" if right_scan else None
            left = alg.JoinInput(
                model, left_props, left_table and catalog.table("big"), left_table
            )
            right = alg.JoinInput(
                model, right_props, right_table and catalog.table("other"), right_table
            )
            for predicates in GRID_PREDICATES:
                for output_rows in (1.0, 55.5, left_rows * right_rows / 1_000.0):
                    got = alg.choose_join(
                        model, left, right, alg.equi_join(predicates), output_rows
                    )
                    expected = oracle.choose_join(
                        model,
                        catalog,
                        left_props,
                        right_props,
                        predicates,
                        output_rows,
                        left_order=_delivered_order(catalog, left_table, left_table),
                        right_order=_delivered_order(catalog, right_table, right_table),
                        right_base_table=right_table,
                        right_alias=right_table,
                    )
                    assert got == expected, (left_rows, right_rows, predicates)
                    seen.add(got[0])
    assert {name.split("(")[0] for name in seen} == {
        "block_nested_loops_join",
        "merge_join",
        "index_nested_loops_join",
    }


def test_equi_join_extracts_column_equalities_in_order():
    a, b, c = col("r", "a"), col("s", "a"), col("t", "c")
    predicates = (eq(a, b), ge(a, 3), eq(c, a), eq(a, 5))
    equi = alg.equi_join(predicates)
    assert equi.pairs == ((a, b), (c, a))
    assert equi.columns == {a, b, c}
    assert list(equi.pairs) == list(oracle.equi_join_columns(predicates))
    assert alg.equi_join(()) == ((), frozenset())
