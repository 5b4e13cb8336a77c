"""Plan executor: runs optimizer plans over an in-memory database.

The executor consumes the executable operator trees produced by
:func:`repro.optimizer.plans.extract_plan`.  Materialized nodes are computed
once, their write/read-back work is charged with the cost-model constants, and
subsequent uses read the stored copy — so the difference between a No-MQO plan
and an MQO plan shows up directly in the executed work, which is the Figure 7
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.dag.builder import IndexBuildOp
from repro.dag.nodes import (
    AggregateOp,
    CachedReadOp,
    JoinOp,
    NestedApplyOp,
    NoOp,
    ProjectOp,
    ScanOp,
    SelectOp,
)
from repro.execution.datagen import Database
from repro.execution.operators import (
    ExecutionStats,
    Row,
    aggregate_rows,
    filter_rows,
    join_rows,
    nested_apply_rows,
    project_rows,
    rows_blocks,
    scan_rows,
)
from repro.execution.result_cache import (
    ResultCache,
    ResultCacheEntry,
    operator_token,
    token_digest,
)
from repro.optimizer.plans import ConsolidatedPlan, PlanNode, extract_plan


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed."""


@dataclass
class ExecutionResult:
    """Rows and work accounting of one plan execution."""

    rows: List[Row]
    stats: ExecutionStats
    per_query_rows: List[List[Row]] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return self.stats.simulated_seconds


@dataclass
class _DigestContext:
    """Per-run digest bookkeeping for the result cache.

    ``digests``/``deps`` record, per materialized equivalence-node id, the
    content digest and base-relation set of the producing subtree, so
    ``reuse`` plan nodes (which carry no subtree of their own) resolve to
    their producer's values.  Producers always precede their reuses in the
    executor's recursion: :func:`extract_plan` marks the *first* DFS
    encounter as the materialize node, and the executor (and the digest
    recursion) walk the exact same DFS order.

    ``node_digests``, ``node_deps`` and ``node_materializes`` memoize
    :meth:`Executor._plan_digest`, :meth:`Executor._plan_deps` and
    :meth:`Executor._has_materialize` per plan node, keyed by ``id(node)``:
    the executor asks for the digest of every operation node it runs, and
    without the memo each request re-digests the whole subtree below it.
    ``nodes`` holds every memoized node, so no id is reused while the
    context lives.
    """

    digests: Dict[int, str] = field(default_factory=dict)
    deps: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    node_digests: Dict[int, str] = field(default_factory=dict)
    node_deps: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    node_materializes: Dict[int, bool] = field(default_factory=dict)
    nodes: List[PlanNode] = field(default_factory=list)


class Executor:
    """Executes consolidated plans over an in-memory database.

    With a :class:`~repro.execution.result_cache.ResultCache` attached, the
    executor additionally (a) *serves* any materialize/operation node whose
    content digest is already stored — charging only the sequential read of
    the stored blocks — and (b) *populates* the cache from materialized
    intermediates, scan-family nodes, and per-query results it computes.
    ``result_cache=None`` (the default) skips every digest computation and
    executes exactly as before.
    """

    def __init__(
        self,
        database: Database,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        result_cache: Optional[ResultCache] = None,
    ) -> None:
        self.database = database
        self.catalog = catalog
        self.cost_model = cost_model
        self.result_cache = result_cache

    # -- public API -----------------------------------------------------------
    def run(self, plan: ConsolidatedPlan) -> ExecutionResult:
        """Execute the whole batch plan (from the pseudo-root)."""
        tree = extract_plan(plan)
        stats = ExecutionStats()
        cache: Dict[int, List[Row]] = {}
        ctx = _DigestContext() if self.result_cache is not None else None
        per_query: List[List[Row]] = []
        if isinstance(tree.operation.operator if tree.operation else None, NoOp):
            for child in tree.children:
                rows = self._execute(child, stats, cache, ctx)
                if ctx is not None:
                    self._store(child, rows, ctx)
                per_query.append(rows)
            all_rows = [row for rows in per_query for row in rows]
        else:
            all_rows = self._execute(tree, stats, cache, ctx)
            if ctx is not None:
                self._store(tree, all_rows, ctx)
            per_query = [all_rows]
        return ExecutionResult(all_rows, stats, per_query)

    # -- plan interpretation ------------------------------------------------
    def _execute(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        cache: Dict[int, List[Row]],
        ctx: Optional[_DigestContext] = None,
    ) -> List[Row]:
        if node.kind == "reuse":
            rows = cache.get(node.equivalence.id)
            if rows is None:
                raise ExecutionError(f"reuse of {node.equivalence.label} before materialization")
            blocks = rows_blocks(rows, self.cost_model)
            cost = self.cost_model.sequential_read(blocks)
            stats.blocks_read += blocks
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            stats.reuses += 1
            return rows
        if node.kind == "materialize":
            if ctx is not None:
                # Digest unconditionally: this records the digest/deps of
                # every materialized node in the subtree, which later
                # ``reuse`` nodes resolve through the context.
                digest = self._plan_digest(node, ctx)
                served = self._try_serve(node, digest, stats, cache, ctx)
                if served is not None:
                    return served
            rows = self._execute(node.children[0], stats, cache, ctx)
            cache[node.equivalence.id] = rows
            blocks = rows_blocks(rows, self.cost_model)
            cost = self.cost_model.sequential_write(blocks)
            stats.blocks_written += blocks
            stats.rows_materialized += len(rows)
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            if ctx is not None:
                self._store(node, rows, ctx)
            return rows
        if node.kind == "base":
            raise ExecutionError("stored tables are consumed by their parent scan operation")
        if ctx is not None and not isinstance(node.operation.operator, (NoOp, CachedReadOp)):
            digest = self._plan_digest(node, ctx)
            served = self._try_serve(node, digest, stats, cache, ctx)
            if served is not None:
                return served
            rows = self._execute_operation(node, stats, cache, ctx)
            if self._scan_key(node) is not None:
                self._store(node, rows, ctx, digest=digest)
            return rows
        return self._execute_operation(node, stats, cache, ctx)

    # -- result-cache hooks ---------------------------------------------------
    def _plan_digest(self, node: PlanNode, ctx: _DigestContext) -> str:
        """Content digest of the physical subtree rooted at *node*.

        Materialization-transparent: a materialize node digests as its
        child and a reuse node as its producer, so logically identical
        subtrees hash alike whether or not the optimizer chose to share
        them.  Base leaves contribute the catalog statistics digest of
        their table, pinning the optimizer-visible data content.  Computed
        once per node per run (``ctx.node_digests``).
        """
        digest = ctx.node_digests.get(id(node))
        if digest is not None:
            return digest
        if node.kind == "reuse":
            digest = ctx.digests[node.equivalence.id]
        elif node.kind == "materialize":
            digest = self._plan_digest(node.children[0], ctx)
            ctx.digests[node.equivalence.id] = digest
        elif node.kind == "base":
            table = node.equivalence.base_table or ""
            stats_digest = self.catalog.table(table).stats_digest()
            digest = token_digest(f"base[{table}|{stats_digest}]")
        else:
            operator = node.operation.operator
            parts = ["op|" + operator_token(operator)]
            if not isinstance(operator, CachedReadOp):
                # A CachedReadOp's digest field already identifies the content;
                # its child is a synthetic base node with no stored table.
                parts.extend(self._plan_digest(child, ctx) for child in node.children)
            digest = token_digest("|".join(parts))
        ctx.node_digests[id(node)] = digest
        ctx.nodes.append(node)
        return digest

    def _plan_deps(self, node: PlanNode, ctx: _DigestContext) -> FrozenSet[str]:
        """Base relations read by the subtree rooted at *node* (lowercased).

        Computed once per node per run (``ctx.node_deps``).
        """
        deps = ctx.node_deps.get(id(node))
        if deps is not None:
            return deps
        operator = node.operation.operator if node.operation is not None else None
        if node.kind == "reuse":
            deps = ctx.deps[node.equivalence.id]
        elif node.kind == "materialize":
            deps = self._plan_deps(node.children[0], ctx)
            ctx.deps[node.equivalence.id] = deps
        elif node.kind == "base":
            deps = frozenset(((node.equivalence.base_table or "").lower(),))
        elif isinstance(operator, (ScanOp, CachedReadOp)):
            deps = frozenset((operator.table.lower(),))
        elif not node.children:
            deps = frozenset()
        else:
            deps = frozenset().union(*(self._plan_deps(child, ctx) for child in node.children))
        ctx.node_deps[id(node)] = deps
        ctx.nodes.append(node)
        return deps

    def _has_materialize(self, node: PlanNode, ctx: _DigestContext) -> bool:
        """True if any strict descendant of *node* is a materialize node.

        Computed once per node per run (``ctx.node_materializes``).
        """
        found = ctx.node_materializes.get(id(node))
        if found is None:
            found = any(
                child.kind == "materialize" or self._has_materialize(child, ctx)
                for child in node.children
            )
            ctx.node_materializes[id(node)] = found
            ctx.nodes.append(node)
        return found

    def _scan_key(self, node: PlanNode) -> Optional[tuple]:
        """The equivalence key if *node* is a scan-family node, else None."""
        key = node.equivalence.key
        if isinstance(key, tuple) and key and key[0] == "scan":
            return key
        return None

    def _try_serve(
        self,
        node: PlanNode,
        digest: str,
        stats: ExecutionStats,
        cache: Dict[int, List[Row]],
        ctx: _DigestContext,
    ) -> Optional[List[Row]]:
        """Serve *node* from the result cache if its digest is stored.

        A digest match means the cached rows are byte-identical to what
        executing the subtree would produce (see the result-cache module
        docstring), so only the sequential read of the stored blocks is
        charged.  Nodes with a materialize *descendant* are never served:
        skipping the subtree would skip populating the per-run cache that
        later reuse nodes read.
        """
        rc = self.result_cache
        assert rc is not None
        if self._has_materialize(node, ctx):
            return None
        entry = rc.lookup(digest)
        if entry is None:
            return None
        rows = list(entry.rows)
        cost = self.cost_model.sequential_read(entry.blocks)
        stats.blocks_read += entry.blocks
        stats.io_seconds += cost.io
        stats.cpu_seconds += cost.cpu
        rc.exec_serves += 1
        if node.kind == "materialize":
            # The plan still expects this intermediate to be reusable; no
            # write is charged — the cached copy already exists.
            cache[node.equivalence.id] = rows
        return rows

    def _store(
        self,
        node: PlanNode,
        rows: List[Row],
        ctx: _DigestContext,
        digest: Optional[str] = None,
    ) -> None:
        """Store the executed *rows* of *node* in the result cache.

        Called for materialized intermediates, scan-family nodes, and
        per-query roots.  Reuse nodes and rows produced *by* a cached read
        are skipped — their content is already stored under its original
        digest.  Scan-family nodes keep their equivalence-key components so
        the build-time injection pass can offer them for exact and covering
        (subsumption) reuse.
        """
        rc = self.result_cache
        assert rc is not None
        if node.kind == "reuse":
            return
        inner = node.children[0] if node.kind == "materialize" else node
        if inner.kind == "reuse":
            return
        if inner.operation is not None and isinstance(inner.operation.operator, CachedReadOp):
            return
        if digest is None:
            digest = self._plan_digest(node, ctx)
        key = self._scan_key(node)
        entry = ResultCacheEntry(
            digest=digest,
            kind="scan" if key is not None else "plan",
            rows=list(rows),
            row_count=len(rows),
            blocks=rows_blocks(rows, self.cost_model),
            props=node.equivalence.properties,
            deps=self._plan_deps(node, ctx),
            table=key[1] if key is not None else None,
            alias=key[2] if key is not None else None,
            predicates=key[3] if key is not None else None,
        )
        rc.put(entry)

    def _execute_operation(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        cache: Dict[int, List[Row]],
        ctx: Optional[_DigestContext] = None,
    ) -> List[Row]:
        operator = node.operation.operator
        if isinstance(operator, CachedReadOp):
            # Rows are pinned in the operator itself: once a plan is built,
            # it executes the same bytes even if the store entry has been
            # evicted, faulted, or invalidated since.
            rows = list(operator.rows)
            cost = self.cost_model.sequential_read(operator.blocks)
            stats.blocks_read += operator.blocks
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            if self.result_cache is not None:
                self.result_cache.injected_serves += 1
            if operator.residual is not None:
                rows = filter_rows(rows, operator.residual, stats, self.cost_model)
            return rows
        if isinstance(operator, ScanOp):
            table = self.catalog.table(operator.table)
            return scan_rows(
                self.database[operator.table.lower()],
                operator.alias,
                operator.predicate,
                stats,
                self.cost_model,
                table.tuple_width,
            )
        if isinstance(operator, NoOp):
            rows: List[Row] = []
            for child in node.children:
                rows.extend(self._execute(child, stats, cache, ctx))
            return rows
        children_rows = [self._execute(child, stats, cache, ctx) for child in node.children]
        if isinstance(operator, SelectOp):
            return filter_rows(children_rows[0], operator.predicate, stats, self.cost_model)
        if isinstance(operator, ProjectOp):
            return project_rows(children_rows[0], operator.columns, stats, self.cost_model)
        if isinstance(operator, JoinOp):
            return join_rows(children_rows[0], children_rows[1], operator.predicates, stats, self.cost_model)
        if isinstance(operator, AggregateOp):
            return aggregate_rows(
                children_rows[0],
                operator.group_by,
                operator.aggregates,
                operator.output_alias,
                stats,
                self.cost_model,
            )
        if isinstance(operator, IndexBuildOp):
            # Index construction over the (materialized) child: charge the
            # build cost; the rows pass through unchanged.
            rows = children_rows[0]
            cost = self.cost_model.index_build_cost(len(rows), 16)
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            return rows
        if isinstance(operator, NestedApplyOp):
            outer_rows = children_rows[0]
            if len(children_rows) > 1:
                invariant_rows = children_rows[1]
            else:
                raise ExecutionError("nested apply without an invariant input")
            if operator.aggregate is None or operator.outer_column is None:
                raise ExecutionError("nested apply operator lacks execution metadata")
            if operator.name == "correlated_apply":
                # Plain correlated evaluation: every distinct outer binding is
                # a separate invocation of the nested query, each with its own
                # access cost (the optimizer's pushdown estimate); charge it so
                # the executed work reflects repeated invocation.
                outer_refs = [
                    c
                    for p in operator.correlation
                    for c in sorted(p.columns())
                    if outer_rows and c in outer_rows[0]
                ]
                invocations = len({tuple(r.get(c) for c in outer_refs) for r in outer_rows}) if outer_rows else 0
                probe = self.cost_model.index_probe_cost(
                    max(1.0, len(invariant_rows) / max(1, invocations or 1)), 64
                )
                stats.io_seconds += probe.io * invocations
                stats.cpu_seconds += probe.cpu * invocations
            return nested_apply_rows(
                outer_rows,
                invariant_rows,
                operator.correlation,
                operator.aggregate,
                operator.outer_column,
                operator.comparison,
                stats,
                self.cost_model,
            )
        raise ExecutionError(f"unsupported operator in executable plan: {operator.describe()}")
