"""The interning contract of :class:`~repro.algebra.columns.ColumnRef`.

Every way of obtaining a reference — construction, pickling, ``copy``,
``deepcopy``, :func:`dataclasses.replace`, a restored session snapshot —
yields the one interned instance of its ``(relation, column)`` pair.  The
hash is the pre-interning dataclass hash, and equality and ordering stay
value-based: identity is a fast path, never a requirement.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.algebra.columns import ColumnRef, col
from repro.catalog import psp_catalog
from repro.execution import Executor, generate_psp_data
from repro.service.session import OptimizerSession
from repro.workloads.scaleup import component_query


def _interned(ref):
    return ref is ColumnRef(ref.relation, ref.column)


class TestInterning:
    def test_construction_returns_one_instance(self):
        assert ColumnRef("psp1", "a") is ColumnRef("psp1", "a")
        assert col("psp1", "a") is ColumnRef(relation="psp1", column="a")
        assert ColumnRef("psp1", "b").with_relation("psp2") is ColumnRef("psp2", "b")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_reinterns(self, protocol):
        ref = ColumnRef("r", "pickled")
        assert pickle.loads(pickle.dumps(ref, protocol)) is ref
        row = {ref: 1, ColumnRef("r", "other"): None}
        restored = pickle.loads(pickle.dumps([row, row], protocol))
        assert all(_interned(key) for r in restored for key in r)

    def test_copy_deepcopy_and_replace_reintern(self):
        ref = ColumnRef("r", "copied")
        assert copy.copy(ref) is ref
        assert copy.deepcopy(ref) is ref
        assert copy.deepcopy({ref: [ref]}) == {ref: [ref]}
        assert dataclasses.replace(ref) is ref
        assert dataclasses.replace(ref, column="x") is ColumnRef("r", "x")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ColumnRef("r", "a").relation = "s"

    def test_hash_is_the_dataclass_hash(self):
        for relation, column in [("r", "a"), ("psp10", "c3"), ("", ""), ("a.b", "c")]:
            assert hash(ColumnRef(relation, column)) == hash((relation, column))

    def test_equality_and_ordering_are_value_based(self):
        a, b = ColumnRef("r", "a"), ColumnRef("r", "b")
        # A second instance that bypassed the table still compares by value.
        twin = object.__new__(ColumnRef)
        for name, value in (("relation", "r"), ("column", "a"), ("_hash", hash(("r", "a")))):
            object.__setattr__(twin, name, value)  # repro-lint: ok(C002) builds a fresh un-interned twin, no shared instance is mutated
        assert twin is not a and twin == a and not twin != a
        assert {twin: 1}[a] == 1
        assert a < b and b > a and a <= twin and twin >= a
        assert sorted([ColumnRef("s", "a"), b, a]) == [a, b, ColumnRef("s", "a")]
        assert a != ("r", "a")
        assert (a == ("r", "a")) is False
        with pytest.raises(TypeError):
            sorted([a, ("r", "b")])


def test_restored_result_cache_rows_are_keyed_by_interned_refs():
    catalog = psp_catalog(relation_count=6)
    database = generate_psp_data(relation_count=6, rows_per_table=60, seed=3)
    donor = OptimizerSession(catalog, cache_plans=False, result_cache=True)
    Executor(database, catalog, result_cache=donor.result_cache).run(
        donor.optimize(component_query(1), "greedy").plan
    )
    restored = OptimizerSession.from_snapshot(
        donor.snapshot_state(), cache_plans=False, result_cache=True
    )
    entries = [entry for entry, _ in restored.cache.results.values()]
    assert entries and any(entry.rows for entry in entries)
    for entry in entries:
        for row in entry.rows:
            assert all(_interned(key) for key in row)
