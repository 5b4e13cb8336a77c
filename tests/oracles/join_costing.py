"""The ``Cost``-object join costing that the scalar kernel replaced.

:func:`choose_join` is the formulation the DAG builder used before the
per-node join inputs and the scalar kernel
(:func:`repro.cost.algorithms.choose_join`): each candidate algorithm is
priced as a :class:`~repro.cost.model.Cost` built from the model's
primitives, and the cheapest is kept with a strict ``<`` in candidate order.
``tests/test_join_kernel.py`` checks that the kernel returns exactly the
same ``(name, total)`` for every partition the builder prices.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import Comparison, Predicate
from repro.catalog.catalog import Catalog
from repro.cost.estimation import LogicalProperties
from repro.cost.model import Cost, CostModel


def block_nested_loops_join_cost(
    model: CostModel,
    outer: LogicalProperties,
    inner: LogicalProperties,
    output_rows: float,
) -> Cost:
    """Block nested-loops join with the inner input buffered.

    The (pipelined) inner is materialized to a temporary once, then re-read
    for every memory-full chunk of the outer; if the inner fits in memory no
    temporary is needed.  The CPU cost reflects the quadratic number of tuple
    comparisons nested loops performs.
    """
    outer_blocks = model.blocks(outer.rows, outer.tuple_width)
    inner_blocks = model.blocks(inner.rows, inner.tuple_width)
    per_tuple = model.cpu_time_per_tuple
    compare_cpu = Cost(
        0.0,
        outer.rows * inner.rows * per_tuple + output_rows * per_tuple,
    )
    if inner_blocks <= model.memory_blocks - 2:
        return compare_cpu
    return model.nested_loops_spill_cost(outer_blocks, inner_blocks) + compare_cpu


def merge_join_cost(
    model: CostModel,
    left: LogicalProperties,
    right: LogicalProperties,
    output_rows: float,
    left_sorted: bool = False,
    right_sorted: bool = False,
) -> Cost:
    """Sort-merge join; inputs that are not already sorted are sorted first."""
    cost: Optional[Cost] = None
    if not left_sorted:
        cost = model.external_sort(model.blocks(left.rows, left.tuple_width), left.rows)
    if not right_sorted:
        right_sort = model.external_sort(model.blocks(right.rows, right.tuple_width), right.rows)
        cost = right_sort if cost is None else cost + right_sort
    scan = model.cpu(0, left.rows + right.rows + output_rows)
    return scan if cost is None else cost + scan


def index_nested_loops_join_cost(
    model: CostModel,
    outer: LogicalProperties,
    inner_table_rows: float,
    inner_tuple_width: float,
    matches_per_probe: float,
    output_rows: float,
    clustered: bool,
) -> Cost:
    """Index nested-loops join: one index probe into the inner per outer row."""
    probe = model.index_probe_cost(matches_per_probe, inner_tuple_width)
    if not clustered:
        # Non-clustered index: every matching row may live in its own block.
        probe = probe + model.random_reads(max(0.0, matches_per_probe - 1.0))
    return probe.scaled(max(1.0, outer.rows)) + model.cpu(0, output_rows)


def equi_join_columns(predicates: Sequence[Predicate]) -> Sequence[Tuple[ColumnRef, ColumnRef]]:
    """Extract ``left.col = right.col`` pairs from the join predicates."""
    if not predicates:
        return ()
    pairs = []
    for predicate in predicates:
        for conjunct in predicate.conjuncts():
            if isinstance(conjunct, Comparison) and conjunct.op == "=" and conjunct.is_column_column():
                pairs.append((conjunct.left, conjunct.right))
    return pairs


def choose_join(
    model: CostModel,
    catalog: Catalog,
    left: LogicalProperties,
    right: LogicalProperties,
    predicates: Sequence[Predicate],
    output_rows: float,
    left_order: Tuple[ColumnRef, ...] = (),
    right_order: Tuple[ColumnRef, ...] = (),
    right_base_table: Optional[str] = None,
    right_alias: Optional[str] = None,
) -> Tuple[str, float]:
    """``(name, total)`` of the cheapest join algorithm for one operation.

    *right_base_table* is set when the inner input is a plain (optionally
    filtered) base-table scan, which enables index nested-loops joins through
    an existing index on the join column.
    """
    bnl = block_nested_loops_join_cost(model, left, right, output_rows)
    best_name = "block_nested_loops_join"
    best_total = bnl.io + bnl.cpu
    equi_columns = equi_join_columns(predicates)
    if equi_columns:
        left_cols = {c for pair in equi_columns for c in pair}
        left_sorted = bool(left_order) and left_order[0] in left_cols
        right_sorted = bool(right_order) and right_order[0] in left_cols
        merge = merge_join_cost(model, left, right, output_rows, left_sorted, right_sorted)
        merge_total = merge.io + merge.cpu
        if merge_total < best_total:
            best_name, best_total = "merge_join", merge_total
        if right_base_table is not None and right_alias is not None:
            table = catalog.table(right_base_table)
            for left_col, right_col in equi_columns:
                for candidate in (left_col, right_col):
                    if candidate.relation != right_alias:
                        continue
                    index = table.index_on(candidate.column)
                    if index is None:
                        continue
                    matches = right.rows / max(1.0, right.distinct(candidate))
                    inl = index_nested_loops_join_cost(
                        model,
                        left,
                        right.rows,
                        right.tuple_width,
                        matches,
                        output_rows,
                        index.clustered,
                    )
                    inl_total = inl.io + inl.cpu
                    if inl_total < best_total:
                        best_total = inl_total
                        best_name = f"index_nested_loops_join({candidate.column})"
    return best_name, best_total
