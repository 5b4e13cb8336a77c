"""Predicates for selections and joins.

The predicate language is deliberately small — comparisons between columns and
constants (or columns and columns, for join predicates), conjunctions, and
disjunctions — but it is sufficient for the TPC-D-style workloads in the paper
and it supports the two operations the multi-query optimizer needs beyond
evaluation:

* **implication tests** between single-column predicates, which drive the
  subsumption derivations of Section 2.1 of the paper
  (``sigma_{A<5}(E)`` is derivable from ``sigma_{A<10}(E)``), and
* **canonical alias rewriting**, which drives unification of equivalence nodes
  across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.algebra.columns import ColumnRef, Constant, Operand

_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NEGATION = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Predicate:
    """Abstract base class for all predicates."""

    def columns(self) -> FrozenSet[ColumnRef]:
        """Return every column referenced by the predicate."""
        raise NotImplementedError

    def relations(self) -> FrozenSet[str]:
        """Return the set of relation aliases referenced by the predicate.

        Cached on the instance: the DAG builder consults the alias set of
        every predicate once per query block it appears in, and all concrete
        predicate classes are immutable (frozen dataclasses).
        """
        cached = self.__dict__.get("_relations")
        if cached is None:
            cached = frozenset(c.relation for c in self.columns())
            object.__setattr__(self, "_relations", cached)  # repro-lint: ok(C002) idempotent memo of a pure derived value on a frozen instance
        return cached

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """Return a copy with relation aliases rewritten through *mapping*.

        Aliases absent from *mapping* are left unchanged.
        """
        raise NotImplementedError

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        """Evaluate the predicate against a row binding columns to values."""
        raise NotImplementedError

    def conjuncts(self) -> Tuple["Predicate", ...]:
        """Return the top-level conjuncts of this predicate."""
        return (self,)

    def is_join_predicate(self) -> bool:
        """Return ``True`` if the predicate references more than one alias."""
        return len(self.relations()) > 1


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (used for cross products and empty filters)."""

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "TruePredicate":
        return self

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        return True

    def conjuncts(self) -> Tuple[Predicate, ...]:
        return ()

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True, order=True)
class Comparison(Predicate):
    """A comparison ``left op right`` between columns and/or constants."""

    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison operator: {self.op!r}")

    def columns(self) -> FrozenSet[ColumnRef]:
        cols = []
        for operand in (self.left, self.right):
            if isinstance(operand, ColumnRef):
                cols.append(operand)
        return frozenset(cols)

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        def rewrite(operand: Operand) -> Operand:
            if isinstance(operand, ColumnRef) and operand.relation in mapping:
                return operand.with_relation(mapping[operand.relation])
            return operand

        return Comparison(rewrite(self.left), self.op, rewrite(self.right))

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        left = row[self.left] if isinstance(self.left, ColumnRef) else self.left.value
        right = row[self.right] if isinstance(self.right, ColumnRef) else self.right.value
        if left is None or right is None:
            return False
        return _COMPARATORS[self.op](left, right)

    def flipped(self) -> "Comparison":
        """Return the equivalent comparison with operands exchanged."""
        return Comparison(self.right, _FLIPPED[self.op], self.left)

    def negated(self) -> "Comparison":
        """Return the logical negation of this comparison."""
        return Comparison(self.left, _NEGATION[self.op], self.right)

    def is_column_constant(self) -> bool:
        """True for ``column op constant`` (after normalization)."""
        return isinstance(self.left, ColumnRef) and isinstance(self.right, Constant)

    def is_column_column(self) -> bool:
        """True for ``column op column`` (typically an equi-join predicate)."""
        return isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef)

    def normalized(self) -> "Comparison":
        """Return an equivalent comparison with any constant on the right and
        column-column comparisons ordered lexicographically.

        Cached on the instance like :meth:`Predicate.relations`: selectivity
        estimation normalizes every comparison it prices, and the ordering
        test runs a Python-level ``ColumnRef`` comparison.  An
        already-normal comparison caches ``False`` rather than itself, which
        would be a reference cycle.
        """
        cached = self.__dict__.get("_normalized")
        if cached is None:
            if isinstance(self.left, Constant) and isinstance(self.right, ColumnRef):
                cached = self.flipped()
            elif (
                isinstance(self.left, ColumnRef)
                and isinstance(self.right, ColumnRef)
                and self.right < self.left
                and self.op in ("=", "!=")
            ):
                cached = self.flipped()
            else:
                cached = False
            object.__setattr__(self, "_normalized", cached)  # repro-lint: ok(C002) idempotent memo of a pure derived value on a frozen instance
        return cached or self

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """A conjunction (AND) of predicates."""

    children: Tuple[Predicate, ...]

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset().union(*(c.columns() for c in self.children)) if self.children else frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Conjunction":
        return Conjunction(tuple(c.rename(mapping) for c in self.children))

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        return all(c.evaluate(row) for c in self.children)

    def conjuncts(self) -> Tuple[Predicate, ...]:
        out = []
        for child in self.children:
            out.extend(child.conjuncts())
        return tuple(out)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Disjunction(Predicate):
    """A disjunction (OR) of predicates.

    Disjunctions are also what the subsumption machinery introduces for shared
    access between equality selections (``sigma_{A=5 or A=10}(E)``).
    """

    children: Tuple[Predicate, ...]

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset().union(*(c.columns() for c in self.children)) if self.children else frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Disjunction":
        return Disjunction(tuple(c.rename(mapping) for c in self.children))

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        return any(c.evaluate(row) for c in self.children)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def _operand(value) -> Operand:
    if isinstance(value, (ColumnRef, Constant)):
        return value
    return Constant(value)


def eq(left, right) -> Comparison:
    """``left = right``"""
    return Comparison(_operand(left), "=", _operand(right))


def ne(left, right) -> Comparison:
    """``left != right``"""
    return Comparison(_operand(left), "!=", _operand(right))


def lt(left, right) -> Comparison:
    """``left < right``"""
    return Comparison(_operand(left), "<", _operand(right))


def le(left, right) -> Comparison:
    """``left <= right``"""
    return Comparison(_operand(left), "<=", _operand(right))


def gt(left, right) -> Comparison:
    """``left > right``"""
    return Comparison(_operand(left), ">", _operand(right))


def ge(left, right) -> Comparison:
    """``left >= right``"""
    return Comparison(_operand(left), ">=", _operand(right))


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction of the given predicates, flattening nested conjunctions."""
    flattened = []
    for predicate in predicates:
        if isinstance(predicate, TruePredicate):
            continue
        if isinstance(predicate, Conjunction):
            flattened.extend(predicate.children)
        else:
            flattened.append(predicate)
    if not flattened:
        return TruePredicate()
    if len(flattened) == 1:
        return flattened[0]
    return Conjunction(tuple(flattened))


def or_(*predicates: Predicate) -> Predicate:
    """Disjunction of the given predicates, flattening nested disjunctions."""
    flattened = []
    for predicate in predicates:
        if isinstance(predicate, Disjunction):
            flattened.extend(predicate.children)
        else:
            flattened.append(predicate)
    if not flattened:
        return TruePredicate()
    if len(flattened) == 1:
        return flattened[0]
    return Disjunction(tuple(flattened))


def conjuncts_of(predicate: Optional[Predicate]) -> Tuple[Predicate, ...]:
    """Return the conjuncts of *predicate* (empty tuple for ``None``/TRUE)."""
    if predicate is None:
        return ()
    return predicate.conjuncts()


# ---------------------------------------------------------------------------
# Implication — the engine behind subsumption derivations
# ---------------------------------------------------------------------------

def _single_column_range(predicate: Predicate) -> Optional[Tuple[ColumnRef, str, Constant]]:
    """Decompose ``column op constant``; return ``None`` for anything else."""
    if isinstance(predicate, Comparison):
        normalized = predicate.normalized()
        if normalized.is_column_constant():
            return normalized.left, normalized.op, normalized.right
    return None


def _comparison_implies(p: Comparison, q: Comparison) -> bool:
    """Implication between two single-column comparisons on the same column."""
    dp = _single_column_range(p)
    dq = _single_column_range(q)
    if dp is None or dq is None:
        return False
    (pc, pop, pv), (qc, qop, qv) = dp, dq
    if pc != qc:
        return False
    pval, qval = pv.value, qv.value
    try:
        if pop == "=":
            return _COMPARATORS[qop](pval, qval)
        if pop in ("<", "<="):
            if qop == "<":
                return pval < qval or (pval == qval and pop == "<")
            if qop == "<=":
                return pval <= qval
            if qop == "!=":
                return pval <= qval if pop == "<" else pval < qval
            return False
        if pop in (">", ">="):
            if qop == ">":
                return pval > qval or (pval == qval and pop == ">")
            if qop == ">=":
                return pval >= qval
            if qop == "!=":
                return pval >= qval if pop == ">" else pval > qval
            return False
        if pop == "!=":
            return qop == "!=" and pval == qval
    except TypeError:
        return False
    return False


def implies(p: Predicate, q: Predicate) -> bool:
    """Return ``True`` if predicate *p* provably implies predicate *q*.

    The test is sound but deliberately incomplete: it covers the cases needed
    by the subsumption machinery of the paper — conjunctions of single-column
    comparisons against constants, plus syntactic equality and disjunction
    membership.  When in doubt it returns ``False``, which only means a
    subsumption derivation is not added.
    """
    if p == q:
        return True
    if isinstance(q, TruePredicate):
        return True
    if isinstance(p, TruePredicate):
        return False
    if isinstance(q, Conjunction):
        return all(implies(p, qc) for qc in q.children)
    if isinstance(p, Conjunction):
        return any(implies(pc, q) for pc in p.children)
    if isinstance(q, Disjunction):
        return any(implies(p, qc) for qc in q.children)
    if isinstance(p, Disjunction):
        return all(implies(pc, q) for pc in p.children)
    if isinstance(p, Comparison) and isinstance(q, Comparison):
        return _comparison_implies(p, q)
    return False


def predicate_columns(predicates: Iterable[Predicate]) -> FrozenSet[ColumnRef]:
    """Union of columns referenced by a collection of predicates."""
    cols: FrozenSet[ColumnRef] = frozenset()
    for predicate in predicates:
        cols = cols | predicate.columns()
    return cols
