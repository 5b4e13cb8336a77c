"""Cost functions for the physical algorithms of the paper's optimizer.

Section 6 lists the implementation algorithms of the testbed optimizer:
*sort-based aggregation, merge join, nested loops join, indexed join, indexed
select and relation scan*.  This module prices each of them with the block
model of :class:`repro.cost.model.CostModel`, given the estimated logical
properties of the inputs, and provides ``choose_*`` helpers that return the
cheapest applicable algorithm for an operation node — that choice is how
physical plan selection enters the AND-OR DAG costing.

Inputs are assumed to be pipelined (iterator model); whenever an algorithm
needs to revisit its input (the inner of a nested-loops join, the runs of an
external sort) the cost of buffering/spilling is charged to the algorithm
itself, which keeps the paper's additive cost formula
``cost(o) = exec(o) + Σ cost(e_i)`` valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import Comparison, Predicate
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Table
from repro.cost.estimation import LogicalProperties
from repro.cost.model import Cost, CostModel


@dataclass(frozen=True)
class AlgorithmChoice:
    """The algorithm selected for an operation node and its execution cost."""

    name: str
    cost: Cost

    @property
    def total(self) -> float:
        return self.cost.total


# ---------------------------------------------------------------------------
# Scans and selections
# ---------------------------------------------------------------------------

def table_scan_cost(
    model: CostModel, table_rows: float, tuple_width: float, output_rows: float
) -> Cost:
    """Full sequential scan of a base table, applying any filter on the fly."""
    blocks = model.blocks(table_rows, tuple_width)
    return model.sequential_read(blocks) + model.cpu(0, table_rows + output_rows)


def clustered_index_scan_cost(
    model: CostModel, table_rows: float, tuple_width: float, matching_rows: float
) -> Cost:
    """Range/equality scan through a clustered index.

    Only the fraction of blocks containing matching rows is read (plus the
    index descent, charged as one probe).
    """
    matching_blocks = model.blocks(matching_rows, tuple_width)
    descent = model.random_reads(1, model.index_probe_ios)
    return descent + model.sequential_read(matching_blocks) + model.cpu(0, matching_rows)


def secondary_index_scan_cost(
    model: CostModel, table_rows: float, tuple_width: float, matching_rows: float
) -> Cost:
    """Lookup through a non-clustered index: one random read per matching row."""
    return model.random_reads(max(1.0, matching_rows)) + model.cpu(0, matching_rows)


def filter_cost(model: CostModel, input_rows: float, output_rows: float) -> Cost:
    """A pipelined selection over an intermediate result (CPU only)."""
    return model.cpu(0, input_rows + output_rows)


def project_cost(model: CostModel, input_rows: float) -> Cost:
    """A pipelined projection (CPU only)."""
    return model.cpu(0, input_rows)


def cached_read_cost(
    model: CostModel,
    cached_rows: float,
    cached_blocks: float,
    output_rows: float,
    residual: bool,
) -> Cost:
    """Serving a node from the cross-batch result cache.

    The cached intermediate is read back sequentially from its stored
    blocks; a *covering* hit additionally pays a pipelined compensating
    selection over the cached rows (mirroring :func:`filter_cost`).  This is
    the reuse-cost model for the ``CachedReadOp`` operations injected by
    :func:`repro.dag.subsumption.inject_cached_results` — exactly how the
    paper prices reading a materialized result, which keeps injected
    derivations comparable with every other operation in the DAG's additive
    cost recurrence.
    """
    cost = model.sequential_read(cached_blocks)
    if residual:
        cost = cost + model.cpu(0, cached_rows + output_rows)
    return cost


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

class EquiJoin(NamedTuple):
    """The equi-join structure of a join's connecting predicates."""

    #: ``left.col = right.col`` conjuncts as ``(left, right)``, in predicate
    #: order (the order index nested-loops candidates are tried in).
    pairs: Tuple[Tuple[ColumnRef, ColumnRef], ...]
    #: Every column of :attr:`pairs`; an input delivered in the order of one
    #: of them needs no sort before a merge join.
    columns: FrozenSet[ColumnRef]


def equi_join(predicates: Sequence[Predicate]) -> EquiJoin:
    """Extract the ``column = column`` conjuncts of *predicates*."""
    pairs: List[Tuple[ColumnRef, ColumnRef]] = []
    for predicate in predicates:
        for conjunct in predicate.conjuncts():
            if isinstance(conjunct, Comparison) and conjunct.op == "=":
                left, right = conjunct.left, conjunct.right
                if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                    pairs.append((left, right))
    return EquiJoin(tuple(pairs), frozenset(c for pair in pairs for c in pair))


class JoinInput:
    """What :func:`choose_join` reads from one join input.

    A DAG build prices every join an equivalence node takes part in — often
    hundreds — so everything that depends on the input alone is computed
    once: row count, tuple width, block count, the ``external_sort`` cost of
    the input, and the first column of the order it is delivered in.  A
    base-table scan delivers its table's clustered-index order and can be
    the inner of an index nested-loops join; it also keeps its ``Table``
    and fills in the per-probe cost of each indexed join column on first
    use.
    """

    __slots__ = (
        "props",
        "rows",
        "width",
        "blocks",
        "sort_io",
        "sort_cpu",
        "order_first",
        "table",
        "alias",
        "_probes",
    )

    def __init__(
        self,
        model: CostModel,
        props: LogicalProperties,
        table: Optional[Table] = None,
        alias: Optional[str] = None,
    ) -> None:
        self.props = props
        self.rows = rows = props.rows
        self.width = width = props.tuple_width
        self.blocks = blocks = model.blocks(rows, width)
        self.sort_io, self.sort_cpu = model.external_sort(blocks, rows)
        self.alias = alias
        #: Set only for a base-table scan (both *table* and *alias* given).
        self.table: Optional[Table] = None
        self.order_first: Optional[ColumnRef] = None
        if table is not None and alias is not None:
            self.table = table
            clustered = table.clustered_index()
            if clustered is not None:
                self.order_first = ColumnRef(alias, clustered.column)
        self._probes: Dict[str, Optional[Tuple[str, float, float]]] = {}

    def probe(self, model: CostModel, column: ColumnRef) -> Optional[Tuple[str, float, float]]:
        """``(algorithm name, io, cpu)`` of one index probe into this input
        on *column*, or ``None`` without an index on it.  Only for base-table
        scans, with ``column.relation`` equal to :attr:`alias`."""
        probes = self._probes
        name = column.column
        if name in probes:
            return probes[name]
        assert self.table is not None
        index = self.table.index_on(name)
        entry: Optional[Tuple[str, float, float]] = None
        if index is not None:
            matches = self.rows / max(1.0, self.props.distinct(column))
            probe = model.index_probe_cost(matches, self.width)
            if not index.clustered:
                # Non-clustered index: every matching row may live in its own block.
                probe = probe + model.random_reads(max(0.0, matches - 1.0))
            entry = (f"index_nested_loops_join({name})", probe.io, probe.cpu)
        probes[name] = entry
        return entry


def choose_join(
    model: CostModel,
    left: JoinInput,
    right: JoinInput,
    equi: EquiJoin,
    output_rows: float,
) -> Tuple[str, float]:
    """``(algorithm name, total cost)`` of the cheapest join of *left* (outer)
    with *right* (inner).

    The candidates, in order, with the cheapest kept under a strict ``<`` (a
    tie keeps the earlier one):

    * **block nested loops** — the inner is buffered; if it does not fit in
      memory it is written to a temporary once and re-read for every
      memory-full chunk of the outer.  The CPU cost is the quadratic number
      of tuple comparisons, which is what makes merge or index joins
      preferable for large inputs (the paper's operator set has no hash
      join);
    * **merge join** (equi-joins only) — each input not already delivered
      in the order of a join column is sorted first;
    * **index nested loops** (equi-joins with a base-table scan inner) — one
      index probe into the inner per outer row, through an index on an
      inner join column; a non-clustered index reads one block per match.

    Costs are plain floats folded in exactly the order of the equivalent
    :class:`~repro.cost.model.Cost` arithmetic (``io + cpu`` per candidate,
    each component summed left to right), so totals are bit-identical to
    it; ``tests/oracles/join_costing.py`` keeps that formulation as the
    oracle.  The zero components of those ``Cost`` values are left out:
    adding ``0.0`` to a non-negative float is exact.
    """
    per_tuple = model.cpu_time_per_tuple
    compare_cpu = left.rows * right.rows * per_tuple + output_rows * per_tuple
    if right.blocks <= model.memory_blocks - 2:
        best_total = compare_cpu
    else:
        spill_io, spill_cpu = model.nested_loops_spill_cost(left.blocks, right.blocks)
        best_total = spill_io + (spill_cpu + compare_cpu)
    best_name = "block_nested_loops_join"
    pairs = equi.pairs
    if not pairs:
        return best_name, best_total
    left_sorted = left.order_first in equi.columns
    right_sorted = right.order_first in equi.columns
    scan_cpu = (left.rows + right.rows + output_rows) * per_tuple
    if left_sorted:
        if right_sorted:
            merge_total = scan_cpu
        else:
            merge_total = right.sort_io + (right.sort_cpu + scan_cpu)
    elif right_sorted:
        merge_total = left.sort_io + (left.sort_cpu + scan_cpu)
    else:
        merge_total = (left.sort_io + right.sort_io) + (
            (left.sort_cpu + right.sort_cpu) + scan_cpu
        )
    if merge_total < best_total:
        best_name, best_total = "merge_join", merge_total
    if right.table is None:
        return best_name, best_total
    alias = right.alias
    outer_scale = max(1.0, left.rows)
    output_cpu = output_rows * per_tuple
    for pair in pairs:
        for candidate in pair:
            if candidate.relation != alias:
                continue
            probe = right.probe(model, candidate)
            if probe is None:
                continue
            inl_total = probe[1] * outer_scale + (probe[2] * outer_scale + output_cpu)
            if inl_total < best_total:
                best_name, best_total = probe[0], inl_total
    return best_name, best_total


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def sort_aggregate_cost(
    model: CostModel, child: LogicalProperties, output_rows: float, child_sorted: bool = False
) -> Cost:
    """Sort-based group-by aggregation."""
    cost = Cost()
    if not child_sorted:
        cost = cost + model.external_sort(model.blocks(child.rows, child.tuple_width), child.rows)
    return cost + model.cpu(0, child.rows + output_rows)


# ---------------------------------------------------------------------------
# Algorithm choice helpers used by the DAG builder
# ---------------------------------------------------------------------------

def choose_scan(
    model: CostModel,
    catalog: Catalog,
    table_name: str,
    alias: str,
    predicate: Optional[Predicate],
    base: LogicalProperties,
    output: LogicalProperties,
) -> AlgorithmChoice:
    """Pick the cheapest access path for scanning ``table_name`` with a filter."""
    table = catalog.table(table_name)
    # Scalar best-tracking with a strict ``<`` in the historical candidate
    # order — ties resolve to the earliest candidate exactly as the previous
    # ``min``-over-a-list did (see ``choose_join``).
    best_cost = table_scan_cost(model, base.rows, base.tuple_width, output.rows)
    best_name = "table_scan"
    best_total = best_cost.io + best_cost.cpu
    if predicate is not None:
        for conjunct in predicate.conjuncts():
            if not isinstance(conjunct, Comparison):
                continue
            normalized = conjunct.normalized()
            if not normalized.is_column_constant():
                continue
            index = table.index_on(normalized.left.column)
            if index is None:
                continue
            if index.clustered:
                cost = clustered_index_scan_cost(model, base.rows, base.tuple_width, output.rows)
            else:
                cost = secondary_index_scan_cost(model, base.rows, base.tuple_width, output.rows)
            total = cost.io + cost.cpu
            if total < best_total:
                best_cost, best_total = cost, total
                best_name = f"index_scan({index.column})"
    return AlgorithmChoice(best_name, best_cost)


def choose_aggregate(
    model: CostModel,
    child: LogicalProperties,
    group_by: Sequence[ColumnRef],
    output_rows: float,
) -> AlgorithmChoice:
    """Pick the aggregation strategy (sort-based, per the paper's operator set).

    The child is sorted on the group-by columns first; a scalar aggregate
    (no group-by) needs no sort.
    """
    cost = sort_aggregate_cost(model, child, output_rows, child_sorted=not group_by)
    return AlgorithmChoice("sort_aggregate", cost)
