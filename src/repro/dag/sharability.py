"""Sharability detection (Section 4.1 of the paper).

The *degree of sharing* of an equivalence node in an evaluation plan is the
number of times it occurs in the plan tree (the tree obtained by replicating
shared nodes); its degree of sharing in the DAG is the maximum over all plans
represented by the DAG.  A node is **sharable** iff that degree exceeds one —
only sharable nodes can possibly be worth materializing, which is the first of
the three optimizations that make the greedy heuristic practical.

The computation follows the paper's recurrence.  ``E[x][z]`` is the degree of
sharing of ``z`` in the sub-DAG rooted at ``x``::

    E[x][x] = 1
    E[x][z] = sum over children y of x of E[y][z]      if x is an operation node
    E[x][z] = max over children y of x of E[y][z]      if x is an equivalence node

and the degree of sharing of ``z`` in the whole DAG is ``E[root][z]``.  Use
multipliers (nested-query invocation counts) multiply the contribution of the
corresponding child, so an invariant sub-expression of a correlated query is
sharable by virtue of its repeated invocations.

Unlike the paper — which computes the column of ``E`` for one ``z`` at a time
to save space — :func:`sharing_degrees` computes ``E[·][z]`` for **all**
candidate targets in a single sweep over the DAG in topological order
(children before ancestors).  Every node carries the sparse vector
``{z: E[node][z]}`` restricted to the targets occurring in its sub-DAG;
operation nodes sum child vectors scaled by the use multipliers, and
equivalence nodes take the elementwise maximum over their operations.

The vectors are shared copy-on-write: a pass-through node (one contributing
operation, one contributing child, use multiplier 1, not itself a target)
aliases its child's dict instead of copying it.  On the chain-query DAGs most
nodes are selects/projections/aggregates of exactly this shape, so only the
genuine accumulation points (multi-child joins, multi-operation nodes,
targets) build a dict of their own.  Aliased dicts are never mutated: any
accumulation, maximum, or target entry copies first.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.dag.nodes import Dag, EquivalenceNode


def _batched_degrees(dag: Dag, targets: Set[int]) -> Dict[int, float]:
    """``E[root][z]`` for every ``z`` in *targets*, in one topological sweep."""
    if dag.root is None:
        raise ValueError("DAG has no root")
    if not targets:
        return {}

    from repro.optimizer.engine import get_engine

    engine = get_engine(dag)
    vectors: List[Optional[Dict[int, float]]] = [None] * engine.num_nodes
    op_table = engine.op_table
    for node_id in engine.topo_order:
        best: Optional[Dict[int, float]] = None
        best_owned = False
        for _local_cost, children in op_table[node_id]:
            acc: Optional[Dict[int, float]] = None
            acc_owned = False
            for child_id, multiplier in children:
                child_vector = vectors[child_id]
                if not child_vector:
                    continue
                if acc is None:
                    if multiplier == 1.0:
                        acc = child_vector  # borrow; copy only if mutated later
                    else:
                        acc = {z: multiplier * v for z, v in child_vector.items()}
                        acc_owned = True
                else:
                    if not acc_owned:
                        acc = dict(acc)
                        acc_owned = True
                    if multiplier == 1.0:
                        for z, v in child_vector.items():
                            acc[z] = acc.get(z, 0.0) + v
                    else:
                        for z, v in child_vector.items():
                            acc[z] = acc.get(z, 0.0) + multiplier * v
            if not acc:
                continue
            if best is None:
                best = acc
                best_owned = acc_owned
            else:
                if not best_owned:
                    best = dict(best)
                    best_owned = True
                for z, v in acc.items():
                    if v > best.get(z, 0.0):
                        best[z] = v
        if node_id in targets:
            if best is None:
                best = {}
            elif not best_owned:
                best = dict(best)
            best[node_id] = 1.0
        if best is not None:
            vectors[node_id] = best
    root_vector = vectors[engine.root_id] or {}
    return {target: root_vector.get(target, 0.0) for target in targets}


def degree_of_sharing(dag: Dag, target: EquivalenceNode) -> float:
    """Degree of sharing of *target* in the whole DAG (``E[root][target]``)."""
    return _batched_degrees(dag, {target.id})[target.id]


def sharable_nodes(dag: Dag) -> List[EquivalenceNode]:
    """Return the equivalence nodes whose degree of sharing exceeds one, in
    :meth:`Dag.equivalence_nodes` order."""
    degrees = sharing_degrees(dag)
    return [node for node in dag.equivalence_nodes() if degrees.get(node.id, 0.0) > 1.0]


def _may_be_shared(node: EquivalenceNode) -> bool:
    if len(node.parents) >= 2:
        return True
    for parent in node.parents:
        multiplier = 0.0
        for child, factor in zip(parent.children, parent.child_multipliers):
            if child.id == node.id:
                multiplier += factor
        if multiplier > 1.0:
            return True
    return False


def sharing_degrees(
    dag: Dag, candidates: Optional[Iterable[EquivalenceNode]] = None
) -> Dict[int, float]:
    """Degree of sharing for every candidate node, keyed by node id.

    Without *candidates*, covers every non-base, non-root node, short-cutting
    nodes that fail the :func:`_may_be_shared` pre-filter to degree 1 (or 0 if
    parentless).  With an explicit candidate list the **exact** degree of every
    listed node is computed — no pre-filter short-cut — which is what the
    greedy monotonicity bound needs: even a single-parent node can have a
    large degree through the transitive sharing of its ancestors.
    """
    if candidates is not None:
        return _batched_degrees(dag, {node.id for node in candidates})
    degrees: Dict[int, float] = {}
    targets: Set[int] = set()
    for node in dag.equivalence_nodes():
        if node.is_base or node is dag.root:
            continue
        if not _may_be_shared(node):
            degrees[node.id] = 1.0 if node.parents else 0.0
            continue
        targets.add(node.id)
    degrees.update(_batched_degrees(dag, targets))
    return degrees
