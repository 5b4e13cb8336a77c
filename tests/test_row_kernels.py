"""Differential test of the executor's row kernels against their oracle.

:mod:`repro.execution.operators` compiles predicates into closures, keys
single-column equi-joins on a scalar, and qualifies scan columns once per
scan.  ``tests/oracles/row_operators.py`` keeps the dict-row formulations
they replaced.  Hypothesis generates rows with ``None`` values, duplicate
keys and missing columns, and predicates of every shape (column–constant,
constant–column, column–column, AND, OR, TRUE, nested); for every operator
the kernel must return the oracle's rows — same values, same row order, same
key order — and leave equal :class:`ExecutionStats`, or raise the same
exception.  Each compiled predicate must return exactly what
:meth:`Predicate.evaluate` returns, or raise what it raises.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.algebra import AggregateFunction, col
from repro.algebra.columns import Constant
from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    TruePredicate,
)
from repro.cost.model import CostModel
from repro.execution import operators as kernels
from repro.execution.operators import ExecutionStats, compile_predicate
from tests.oracles import row_operators as oracle

MODEL = CostModel()
_OPS = ["=", "!=", "<", "<=", ">", ">="]
_SETTINGS = settings(max_examples=150, deadline=None)

#: Left rows bind ``l.*``, right rows ``r.*`` and ``l.c`` (an overlapping
#: column: in a combined row the right value wins); ``l.z``/``r.z`` are never
#: bound, so predicates naming them raise ``KeyError``.
_LEFT = [col("l", name) for name in ("a", "b", "c")]
_RIGHT = [col("r", name) for name in ("a", "b", "d")] + [col("l", "c")]
_UNBOUND = [col("l", "z"), col("r", "z")]

_values = st.one_of(st.none(), st.integers(-2, 2))


def _rows(columns, min_size=0, max_size=6):
    """Row lists in one random key order; a row now and then misses a
    column (the first row too, which is what joins read their columns from)."""
    def rows_in(order):
        row = st.tuples(
            st.tuples(*[_values for _ in order]),
            st.lists(st.sampled_from(order), max_size=1),
        ).map(lambda vd: {ref: v for ref, v in zip(order, vd[0]) if ref not in vd[1]})
        return st.lists(row, min_size=min_size, max_size=max_size)
    return st.permutations(columns).flatmap(rows_in)


def _comparisons(columns, constants=_values):
    """Comparisons weighted toward the compiled shapes: column–column and
    column–constant, then constant–column and constant–constant."""
    column = st.sampled_from(columns)
    constant = constants.map(Constant)
    shapes = {"cc": (column, column), "ck": (column, constant),
              "kc": (constant, column), "kk": (constant, constant)}
    return st.sampled_from(["cc", "cc", "ck", "ck", "kc", "kk"]).flatmap(
        lambda shape: st.builds(Comparison, shapes[shape][0], st.sampled_from(_OPS), shapes[shape][1])
    )


def _predicates(columns, constants=_values):
    comparison = _comparisons(columns, constants)
    leaves = st.one_of(comparison, st.just(TruePredicate()))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda cs: Conjunction(tuple(cs))),
            st.lists(inner, max_size=3).map(lambda cs: Disjunction(tuple(cs))),
        ),
        max_leaves=6,
    )


def _outcome(function, *args, errors=(KeyError, TypeError), **kwargs):
    """``("ok", value)`` or ``("raised", type, str)`` for an error in *errors*."""
    try:
        return ("ok", function(*args, **kwargs))
    except errors as error:
        return ("raised", type(error), str(error))


def _rows_exact(rows):
    """Rows with their key order: dict equality alone ignores it."""
    return [list(row.items()) for row in rows]


def _both(name, *args, **kwargs):
    """Run operator *name* in the kernels and in the oracle on fresh stats.

    Operator inputs hold integers and ``None`` only, so the one error either
    side may raise is the ``KeyError`` of a predicate naming a missing column.
    """
    results = []
    for module in (kernels, oracle):
        stats = ExecutionStats()
        outcome = _outcome(getattr(module, name), *args, stats, MODEL, errors=(KeyError,), **kwargs)
        if outcome[0] == "ok":
            outcome = ("ok", _rows_exact(outcome[1]))
        results.append((outcome, dataclasses.asdict(stats)))
    return results


def _assert_same(name, *args, **kwargs):
    (kernel_out, kernel_stats), (oracle_out, oracle_stats) = _both(name, *args, **kwargs)
    assert kernel_out == oracle_out
    assert kernel_stats == oracle_stats


_MIXED = st.one_of(_values, st.sampled_from(["x", 1.5]))


def _assert_compiles_exactly(predicate, row):
    compiled = _outcome(compile_predicate(predicate), row)
    evaluated = _outcome(predicate.evaluate, row)
    assert compiled == evaluated
    if compiled[0] == "ok":
        assert type(compiled[1]) is type(evaluated[1])


class TestCompiledPredicates:
    @settings(max_examples=500, deadline=None)
    @given(
        predicate=_comparisons(_LEFT + _UNBOUND[:1], _MIXED),
        rows=_rows(_LEFT, min_size=1, max_size=1),
    )
    def test_comparison_returns_or_raises_what_evaluate_does(self, predicate, rows):
        _assert_compiles_exactly(predicate, rows[0])

    @_SETTINGS
    @given(
        predicate=_predicates(_LEFT + _UNBOUND[:1], _MIXED),
        rows=_rows(_LEFT, min_size=1, max_size=1),
    )
    def test_returns_or_raises_what_evaluate_does(self, predicate, rows):
        _assert_compiles_exactly(predicate, rows[0])

    def test_none_constant_still_reads_its_column(self):
        predicate = Comparison(col("l", "a"), "=", Constant(None))
        assert compile_predicate(predicate)({col("l", "a"): 1}) is False
        assert _outcome(compile_predicate(predicate), {})[0] == "raised"

    def test_empty_connectives(self):
        row = {col("l", "a"): 1}
        assert compile_predicate(Conjunction(()))(row) is True
        assert compile_predicate(Disjunction(()))(row) is False
        assert compile_predicate(TruePredicate())(row) is True


class TestOperatorsMatchOracle:
    @_SETTINGS
    @given(
        raw=st.lists(
            st.dictionaries(st.sampled_from(["a", "b", "c"]), _values, min_size=1),
            max_size=8,
        ),
        predicate=st.one_of(st.none(), _predicates([col("t", n) for n in "abc"])),
    )
    def test_scan(self, raw, predicate):
        _assert_same("scan_rows", raw, "t", predicate, tuple_width=24)

    @_SETTINGS
    @given(rows=_rows(_LEFT), predicate=_predicates(_LEFT + _UNBOUND[:1]))
    def test_filter(self, rows, predicate):
        _assert_same("filter_rows", rows, predicate)

    @_SETTINGS
    @given(
        left=_rows(_LEFT),
        right=_rows(_RIGHT),
        keys=st.sampled_from([0, 1, 1, 2, 2, 3]).flatmap(lambda n: st.lists(
            st.tuples(st.sampled_from(_LEFT), st.sampled_from(_RIGHT), st.booleans()),
            min_size=n, max_size=n,
        )),
        residual=st.sampled_from([0, 0, 0, 1, 2]).flatmap(lambda n: st.lists(
            _predicates(_LEFT + _RIGHT + _UNBOUND), min_size=n, max_size=n,
        )),
    )
    def test_join(self, left, right, keys, residual):
        # Equi-join keys in both orientations, plus residual conjuncts; no
        # keys at all is a cross product.
        predicates = [
            Comparison(lc, "=", rc) if flip else Comparison(rc, "=", lc)
            for lc, rc, flip in keys
        ] + residual
        _assert_same("join_rows", left, right, predicates)

    @_SETTINGS
    @given(
        rows=_rows(_LEFT),
        group_by=st.lists(st.sampled_from(_LEFT), max_size=2, unique=True),
        column=st.one_of(st.none(), st.sampled_from(_LEFT)),
        func=st.sampled_from(["count", "sum", "min", "max", "avg"]),
    )
    def test_aggregate(self, rows, group_by, column, func):
        aggregates = [AggregateFunction(func, column, "out")]
        if func != "count" and column is None:
            aggregates = [AggregateFunction("count", None, "out")]
        _assert_same("aggregate_rows", rows, group_by, aggregates, "g")

    @_SETTINGS
    @given(
        outer=_rows(_LEFT),
        invariant=_rows(_RIGHT),
        correlation=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(_RIGHT), st.sampled_from(_LEFT)).map(
                    lambda pair: Comparison(pair[0], "=", pair[1])
                ),
                _predicates(_LEFT + _RIGHT),
            ),
            max_size=2,
        ),
        column=st.sampled_from(_RIGHT),
        func=st.sampled_from(["count", "sum", "min", "max", "avg"]),
        comparison=st.sampled_from(_OPS),
    )
    def test_nested_apply(self, outer, invariant, correlation, column, func, comparison):
        aggregate = AggregateFunction(func, column, "agg")
        _assert_same(
            "nested_apply_rows", outer, invariant, correlation, aggregate,
            col("l", "a"), comparison,
        )

    def test_single_key_join_keeps_left_then_right_key_order(self):
        left = [{col("l", "a"): 1, col("l", "b"): 2}]
        right = [{col("r", "a"): 1, col("l", "b"): 3, col("r", "d"): 4}]
        joined = kernels.join_rows(
            left, right, [Comparison(col("l", "a"), "=", col("r", "a"))],
            ExecutionStats(), MODEL,
        )
        assert _rows_exact(joined) == [[
            (col("l", "a"), 1), (col("l", "b"), 3), (col("r", "a"), 1), (col("r", "d"), 4),
        ]]
