"""Column references and literal constants used in predicates and expressions.

A :class:`ColumnRef` names a column of a relation *instance*; the ``relation``
part is the alias used in the query (for base tables that are referenced only
once, the alias conventionally equals the table name).  Canonicalization of
aliases for DAG unification happens later, in :mod:`repro.dag.builder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

#: The interning table: one :class:`ColumnRef` per ``(relation, column)``
#: pair ever named in this process.  Its size is bounded by the program's
#: vocabulary, not by data: the catalog's columns times the aliases queries
#: bind them to (query aliases and the builder's canonical aliases), plus the
#: output columns of aggregates.  Entries are never removed; an instance
#: holds only its two strings, so the table forms no reference cycle.
_INTERNED: Dict[Tuple[str, str], "ColumnRef"] = {}


@dataclass(frozen=True, order=True, init=False)
class ColumnRef:
    """A reference to ``relation.column``.

    Interned: constructing, pickling, copying or :func:`dataclasses.replace`
    of a reference returns the one instance of its ``(relation, column)``
    pair, and its hash is computed once, at creation.  Executed rows are
    dictionaries keyed by references, so every row lookup of a predicate or
    join key hits the dictionary's identity check instead of a Python-level
    ``__eq__``.  The hash equals ``hash((relation, column))``, the value
    hash a frozen dataclass would generate, so set and dict iteration
    orders do not depend on interning.  Equality and ordering stay
    value-based; identity is only a fast path.
    """

    __slots__ = ("relation", "column", "_hash")

    relation: str
    column: str

    def __new__(cls, relation: str, column: str) -> "ColumnRef":
        key = (relation, column)
        ref = _INTERNED.get(key)
        if ref is None:
            ref = object.__new__(cls)
            object.__setattr__(ref, "relation", relation)
            object.__setattr__(ref, "column", column)
            object.__setattr__(ref, "_hash", hash(key))
            # setdefault: a racing thread's instance wins, never a second one.
            ref = _INTERNED.setdefault(key, ref)
        return ref

    def __hash__(self) -> int:
        return self._hash  # type: ignore[no-any-return]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.relation == other.relation and self.column == other.column  # type: ignore[attr-defined]
        return NotImplemented

    def __reduce__(self) -> Tuple[type, Tuple[str, str]]:
        # Unpickling, copy and deepcopy construct through __new__: interned.
        return (ColumnRef, (self.relation, self.column))

    def __str__(self) -> str:
        return f"{self.relation}.{self.column}"

    def with_relation(self, relation: str) -> "ColumnRef":
        """Return a copy of this reference bound to a different alias."""
        return ColumnRef(relation, self.column)


@dataclass(frozen=True, order=True)
class Constant:
    """A literal constant appearing in a predicate.

    Values are restricted to orderable Python scalars (numbers and strings) so
    that predicate implication tests and selectivity estimation can compare
    them.
    """

    value: Union[int, float, str]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


Operand = Union[ColumnRef, Constant]


def col(relation: str, column: str) -> ColumnRef:
    """Convenience constructor for a column reference."""
    return ColumnRef(relation, column)


def lit(value: Union[int, float, str]) -> Constant:
    """Convenience constructor for a literal constant."""
    return Constant(value)


def is_column(operand: Operand) -> bool:
    """Return ``True`` if *operand* is a column reference."""
    return isinstance(operand, ColumnRef)


def is_constant(operand: Operand) -> bool:
    """Return ``True`` if *operand* is a literal constant."""
    return isinstance(operand, Constant)
