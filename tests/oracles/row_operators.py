"""The dict-row operator implementations that the compiled row kernels replaced.

:mod:`repro.execution.operators` evaluates predicates through closures
compiled once per operator call (``compile_predicate``), keys single-column
equi-joins on a scalar, and qualifies scan columns once per scan.  The
functions here are the literal formulations it replaced: every predicate is
evaluated through :meth:`~repro.algebra.predicates.Predicate.evaluate`, every
join key is a tuple, and every scanned row builds its own column references.
``tests/test_row_kernels.py`` checks that both return the same rows (values,
row order and key order) and the same :class:`ExecutionStats`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.expressions import AggregateFunction
from repro.algebra.predicates import Comparison, Predicate
from repro.cost.model import CostModel
from repro.execution.operators import ExecutionStats, Row, _aggregate_value

def scan_rows(
    table_rows: Sequence[Dict[str, object]],
    alias: str,
    predicate: Optional[Predicate],
    stats: ExecutionStats,
    model: CostModel,
    tuple_width: int,
) -> List[Row]:
    """Scan a stored table, qualify columns with *alias*, apply the filter."""
    output: List[Row] = []
    for raw in table_rows:
        row = {ColumnRef(alias, name): value for name, value in raw.items()}
        if predicate is None or predicate.evaluate(row):
            output.append(row)
    stats.rows_scanned += len(table_rows)
    blocks = max(1, (len(table_rows) * tuple_width + model.block_size - 1) // model.block_size)
    stats.blocks_read += blocks
    cost = model.sequential_read(blocks)
    stats.io_seconds += cost.io
    stats.cpu_seconds += cost.cpu + len(table_rows) * model.cpu_time_per_tuple
    return output


def filter_rows(rows: Sequence[Row], predicate: Predicate, stats: ExecutionStats, model: CostModel) -> List[Row]:
    output = [row for row in rows if predicate.evaluate(row)]
    stats.rows_processed += len(rows)
    stats.cpu_seconds += len(rows) * model.cpu_time_per_tuple
    return output


def _split_predicates(
    predicates: Sequence[Predicate], left_columns: set, right_columns: set
) -> Tuple[List[Tuple[ColumnRef, ColumnRef]], List[Predicate]]:
    """Separate equi-join pairs (left column, right column) from residuals."""
    equi: List[Tuple[ColumnRef, ColumnRef]] = []
    residual: List[Predicate] = []
    for predicate in predicates:
        for conjunct in predicate.conjuncts():
            matched = False
            if isinstance(conjunct, Comparison) and conjunct.op == "=" and conjunct.is_column_column():
                left, right = conjunct.left, conjunct.right
                if left in left_columns and right in right_columns:
                    equi.append((left, right))
                    matched = True
                elif right in left_columns and left in right_columns:
                    equi.append((right, left))
                    matched = True
            if not matched:
                residual.append(conjunct)
    return equi, residual


def join_rows(
    left: Sequence[Row],
    right: Sequence[Row],
    predicates: Sequence[Predicate],
    stats: ExecutionStats,
    model: CostModel,
) -> List[Row]:
    """Join two row sets (hash join on equality conjuncts, filter the rest)."""
    stats.rows_processed += len(left) + len(right)
    stats.cpu_seconds += (len(left) + len(right)) * model.cpu_time_per_tuple
    if not left or not right:
        return []
    left_columns = set(left[0].keys())
    right_columns = set(right[0].keys())
    equi, residual = _split_predicates(predicates, left_columns, right_columns)

    output: List[Row] = []
    if equi:
        right_index: Dict[tuple, List[Row]] = defaultdict(list)
        for row in right:
            key = tuple(row.get(right_col) for _, right_col in equi)
            right_index[key].append(row)
        for row in left:
            key = tuple(row.get(left_col) for left_col, _ in equi)
            for match in right_index.get(key, ()):
                combined = dict(row)
                combined.update(match)
                if all(p.evaluate(combined) for p in residual):
                    output.append(combined)
    else:
        for row in left:
            for match in right:
                combined = dict(row)
                combined.update(match)
                if all(p.evaluate(combined) for p in residual):
                    output.append(combined)
        stats.cpu_seconds += len(left) * len(right) * model.cpu_time_per_tuple
    stats.rows_processed += len(output)
    stats.cpu_seconds += len(output) * model.cpu_time_per_tuple
    return output


def aggregate_rows(
    rows: Sequence[Row],
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[AggregateFunction],
    output_alias: str,
    stats: ExecutionStats,
    model: CostModel,
) -> List[Row]:
    """Group-by aggregation; output columns are qualified with *output_alias*."""
    groups: Dict[tuple, List[Row]] = defaultdict(list)
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        groups[key].append(row)
    output: List[Row] = []
    for key, members in groups.items():
        out_row: Row = {}
        for column, value in zip(group_by, key):
            out_row[ColumnRef(output_alias, column.column)] = value
        for aggregate in aggregates:
            if aggregate.column is None:
                values = [1.0] * len(members)
            else:
                values = [m.get(aggregate.column) for m in members if m.get(aggregate.column) is not None]
            out_row[ColumnRef(output_alias, aggregate.alias)] = _aggregate_value(aggregate.func, values)
        output.append(out_row)
    stats.rows_processed += len(rows) + len(output)
    stats.cpu_seconds += (len(rows) + len(output)) * model.cpu_time_per_tuple
    return output


_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def nested_apply_rows(
    outer: Sequence[Row],
    invariant: Sequence[Row],
    correlation: Sequence[Predicate],
    aggregate: AggregateFunction,
    outer_column: ColumnRef,
    comparison: str,
    stats: ExecutionStats,
    model: CostModel,
) -> List[Row]:
    """Correlated scalar-subquery filter over the outer rows.

    For every outer row the matching invariant rows are found (through an
    in-memory index on the equality correlation columns, mirroring the
    temporary index the optimizer would build), the scalar aggregate computed,
    and the outer row kept iff the comparison holds.
    """
    if not invariant:
        return []
    invariant_columns = set(invariant[0].keys())
    equality_pairs: List[Tuple[ColumnRef, ColumnRef]] = []  # (inner, outer)
    residual: List[Predicate] = []
    for predicate in correlation:
        if isinstance(predicate, Comparison) and predicate.op == "=" and predicate.is_column_column():
            if predicate.left in invariant_columns:
                equality_pairs.append((predicate.left, predicate.right))
                continue
            if predicate.right in invariant_columns:
                equality_pairs.append((predicate.right, predicate.left))
                continue
        residual.append(predicate)

    index: Dict[tuple, List[Row]] = defaultdict(list)
    if equality_pairs:
        for row in invariant:
            key = tuple(row.get(inner) for inner, _ in equality_pairs)
            index[key].append(row)

    output: List[Row] = []
    for row in outer:
        if equality_pairs:
            key = tuple(row.get(outer_ref) for _, outer_ref in equality_pairs)
            candidates = index.get(key, ())
        else:
            candidates = invariant
        if residual:
            merged_candidates = []
            for candidate in candidates:
                combined = dict(candidate)
                combined.update(row)
                if all(p.evaluate(combined) for p in residual):
                    merged_candidates.append(candidate)
            candidates = merged_candidates
        values = [
            c.get(aggregate.column)
            for c in candidates
            if aggregate.column is None or c.get(aggregate.column) is not None
        ]
        scalar = _aggregate_value(aggregate.func, values)
        if scalar is None:
            continue
        outer_value = row.get(outer_column)
        if outer_value is None:
            continue
        if _COMPARE[comparison](outer_value, scalar):
            output.append(row)
    stats.rows_processed += len(outer) + len(invariant)
    stats.cpu_seconds += (len(outer) + len(invariant)) * model.cpu_time_per_tuple
    return output
