"""Physical operator implementations for the simulated executor.

Rows are dictionaries keyed by :class:`~repro.algebra.columns.ColumnRef`, so
predicates evaluate directly against them.  The executor is correctness- and
work-accounting oriented: joins are evaluated as hash joins on their equality
conjuncts (the choice of join algorithm does not change the result, and the
*work accounting* — rows touched, bytes materialized — is derived from the
logical amount of data flowing through the plan, priced with the optimizer's
own cost-model constants).

The row loops are the executor's hot path.  Each operator call compiles its
predicates once (:func:`compile_predicate`) into closures over interned
column references and constants, scans qualify their columns once per scan,
and a single-column equi-join without a residual keys its hash table on the
scalar value.  The test oracle, ``tests/oracles/row_operators.py``, keeps the
literal formulation (every predicate through :meth:`Predicate.evaluate`,
tuple join keys, columns qualified per row); rows (values, row order and key
order) and :class:`ExecutionStats` are identical.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.columns import ColumnRef, Constant
from repro.algebra.expressions import AggregateFunction
from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Predicate,
    TruePredicate,
)
from repro.cost.model import CostModel

Row = Dict[ColumnRef, object]
RowTest = Callable[[Row], bool]


@dataclass
class ExecutionStats:
    """Work performed while executing a plan."""

    rows_scanned: int = 0
    rows_processed: int = 0
    rows_materialized: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    reuses: int = 0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated elapsed time (the Figure 7 metric)."""
        return self.io_seconds + self.cpu_seconds

    def merge(self, other: "ExecutionStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_processed += other.rows_processed
        self.rows_materialized += other.rows_materialized
        self.blocks_read += other.blocks_read
        self.blocks_written += other.blocks_written
        self.io_seconds += other.io_seconds
        self.cpu_seconds += other.cpu_seconds
        self.reuses += other.reuses


def row_bytes(row: Row) -> int:
    """Approximate width of a row in bytes (for block accounting)."""
    total = 0
    for value in row.values():
        if isinstance(value, str):
            total += max(1, len(value))
        else:
            total += 8
    return max(8, total)


def rows_blocks(rows: Sequence[Row], model: CostModel) -> int:
    """Number of blocks a list of rows occupies."""
    if not rows:
        return 1
    return max(1, (len(rows) * row_bytes(rows[0]) + model.block_size - 1) // model.block_size)


# ---------------------------------------------------------------------------
# Compiled predicates
# ---------------------------------------------------------------------------

#: The comparison operators, as the C functions of :mod:`operator`.
_COMPARE: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_predicate(predicate: Predicate) -> RowTest:
    """Compile *predicate* into a closure over its column refs and constants.

    The closure returns exactly what ``predicate.evaluate(row)`` returns and
    raises what it raises: a missing column is a ``KeyError``, a ``None``
    operand compares false, a conjunction or disjunction returns a ``bool``
    and stops at its first deciding child.  Column–constant and
    column–column comparisons, ``AND``, ``OR`` and ``TRUE`` are compiled;
    any other shape (a constant on the left, say) runs its own ``evaluate``.
    """
    if isinstance(predicate, Comparison):
        left, right = predicate.left, predicate.right
        compare = _COMPARE[predicate.op]
        if isinstance(left, ColumnRef) and isinstance(right, Constant):
            return _column_constant(left, compare, right.value)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            return _column_column(left, compare, right)
        return predicate.evaluate
    if isinstance(predicate, Conjunction):
        return _all_of([compile_predicate(child) for child in predicate.children])
    if isinstance(predicate, Disjunction):
        return _any_of([compile_predicate(child) for child in predicate.children])
    if isinstance(predicate, TruePredicate):
        return _true
    return predicate.evaluate


def _column_constant(ref: ColumnRef, compare: Callable[[object, object], bool], value: object) -> RowTest:
    if value is None:
        def test(row: Row) -> bool:
            row[ref]
            return False
        return test

    def test(row: Row) -> bool:
        found = row[ref]
        return found is not None and compare(found, value)
    return test


def _column_column(left: ColumnRef, compare: Callable[[object, object], bool], right: ColumnRef) -> RowTest:
    def test(row: Row) -> bool:
        a = row[left]
        b = row[right]
        return a is not None and b is not None and compare(a, b)
    return test


def _all_of(tests: Sequence[RowTest]) -> RowTest:
    def test(row: Row) -> bool:
        for child in tests:
            if not child(row):
                return False
        return True
    return test


def _any_of(tests: Sequence[RowTest]) -> RowTest:
    def test(row: Row) -> bool:
        for child in tests:
            if child(row):
                return True
        return False
    return test


def _true(row: Row) -> bool:
    return True


# ---------------------------------------------------------------------------
# Row-level operator implementations
# ---------------------------------------------------------------------------

class _Qualifier(Dict[str, ColumnRef]):
    """Column name -> ``ColumnRef(alias, name)``, filled on first sight."""

    def __init__(self, alias: str) -> None:
        super().__init__()
        self.alias = alias

    def __missing__(self, name: str) -> ColumnRef:
        ref = self[name] = ColumnRef(self.alias, name)
        return ref


def scan_rows(
    table_rows: Sequence[Dict[str, object]],
    alias: str,
    predicate: Optional[Predicate],
    stats: ExecutionStats,
    model: CostModel,
    tuple_width: int,
) -> List[Row]:
    """Scan a stored table, qualify columns with *alias*, apply the filter."""
    qualified = _Qualifier(alias)
    rows = [{qualified[name]: value for name, value in raw.items()} for raw in table_rows]
    output = rows if predicate is None else list(filter(compile_predicate(predicate), rows))
    stats.rows_scanned += len(table_rows)
    blocks = max(1, (len(table_rows) * tuple_width + model.block_size - 1) // model.block_size)
    stats.blocks_read += blocks
    cost = model.sequential_read(blocks)
    stats.io_seconds += cost.io
    stats.cpu_seconds += cost.cpu + len(table_rows) * model.cpu_time_per_tuple
    return output


def filter_rows(rows: Sequence[Row], predicate: Predicate, stats: ExecutionStats, model: CostModel) -> List[Row]:
    output = list(filter(compile_predicate(predicate), rows))
    stats.rows_processed += len(rows)
    stats.cpu_seconds += len(rows) * model.cpu_time_per_tuple
    return output


def project_rows(rows: Sequence[Row], columns: Sequence[ColumnRef], stats: ExecutionStats, model: CostModel) -> List[Row]:
    kept = set(columns)
    output = []
    for row in rows:
        projected = {ref: value for ref, value in row.items() if ref in kept}
        output.append(projected or dict(row))
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
    """Join two row sets (hash join on equality conjuncts, filter the rest).

    A combined row is ``{**left_row, **right_row}``: the left row's keys in
    order, then the right row's new keys, with the right row's values.
    """
    stats.rows_processed += len(left) + len(right)
    stats.cpu_seconds += (len(left) + len(right)) * model.cpu_time_per_tuple
    if not left or not right:
        return []
    left_columns = set(left[0].keys())
    right_columns = set(right[0].keys())
    equi, residual = _split_predicates(predicates, left_columns, right_columns)
    check = _all_of([compile_predicate(p) for p in residual]) if residual else None

    output: List[Row]
    if len(equi) == 1 and check is None:
        # The common case: one key column, no residual.  A scalar key groups
        # exactly like a 1-tuple of it.
        left_col, right_col = equi[0]
        index: Dict[object, List[Row]] = {}
        for row in right:
            key = row.get(right_col)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [row]
            else:
                bucket.append(row)
        output = [
            {**row, **match} for row in left for match in index.get(row.get(left_col), ())
        ]
    elif equi:
        right_index: Dict[tuple, List[Row]] = defaultdict(list)
        for row in right:
            right_index[tuple([row.get(right_col) for _, right_col in equi])].append(row)
        output = []
        for row in left:
            for match in right_index.get(tuple([row.get(left_col) for left_col, _ in equi]), ()):
                combined = {**row, **match}
                if check is None or check(combined):
                    output.append(combined)
    else:
        output = []
        for row in left:
            for match in right:
                combined = {**row, **match}
                if check is None or check(combined):
                    output.append(combined)
        stats.cpu_seconds += len(left) * len(right) * model.cpu_time_per_tuple
    stats.rows_processed += len(output)
    stats.cpu_seconds += len(output) * model.cpu_time_per_tuple
    return output


def _aggregate_value(func: str, values: List[float]) -> object:
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "avg":
        return sum(values) / len(values)
    raise ValueError(f"unsupported aggregate function {func!r}")


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
                source = aggregate.column
                values = [v for v in [m.get(source) for m in members] if v is not None]
            out_row[ColumnRef(output_alias, aggregate.alias)] = _aggregate_value(aggregate.func, values)
        output.append(out_row)
    stats.rows_processed += len(rows) + len(output)
    stats.cpu_seconds += (len(rows) + len(output)) * model.cpu_time_per_tuple
    return output


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

    check = _all_of([compile_predicate(p) for p in residual]) if residual else None
    column = aggregate.column
    output: List[Row] = []
    for row in outer:
        if equality_pairs:
            key = tuple(row.get(outer_ref) for _, outer_ref in equality_pairs)
            candidates = index.get(key, ())
        else:
            candidates = invariant
        if check is not None:
            candidates = [c for c in candidates if check({**c, **row})]
        values = [c.get(column) for c in candidates]
        if column is not None:
            values = [v for v in values if v is not None]
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
