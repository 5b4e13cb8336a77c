"""Tests for the catalog substrate, the cost model and cardinality estimation."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.algebra import Aggregate, AggregateFunction, col, eq, ge, lt, or_
from repro.catalog import Catalog, psp_catalog, tpcd_catalog
from repro.catalog.catalog import CatalogError
from repro.catalog.schema import Column, Index, Table, make_table
from repro.cost import CostModel, Estimator
from repro.cost.model import Cost


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("x", (Column("a"), Column("a")), 10)

    def test_tuple_width(self):
        table = make_table("x", 10, [("a", 4, 10), ("b", 12, 5)])
        assert table.tuple_width == 16

    def test_distinct_defaults_to_row_count(self):
        table = make_table("x", 10, [("a", 4, None)])
        assert table.distinct("a") == 10

    def test_distinct_capped_by_rows(self):
        table = make_table("x", 10, [("a", 4, 500)])
        assert table.distinct("a") == 10

    def test_clustered_index_from_primary_key(self):
        table = make_table("x", 10, [("a", 4, 10)], primary_key="a")
        assert table.clustered_index() == Index("x", "a", clustered=True)
        assert table.has_index("a")
        assert not table.has_index("b")

    def test_index_on_prefers_clustered(self):
        table = Table(
            "x",
            (Column("a"),),
            10,
            (Index("x", "a", clustered=False), Index("x", "a", clustered=True)),
        )
        assert table.index_on("a").clustered


class TestCatalog:
    def test_lookup_is_case_insensitive(self, tpcd):
        assert tpcd.table("LINEITEM").name == "lineitem"

    def test_unknown_table_raises(self, tpcd):
        with pytest.raises(CatalogError):
            tpcd.table("nope")

    def test_unknown_column_raises(self, tpcd):
        with pytest.raises(CatalogError):
            tpcd.column("lineitem", "nope")

    def test_contains_and_len(self, tiny_catalog):
        assert "r" in tiny_catalog
        assert "unknown" not in tiny_catalog
        assert len(tiny_catalog) == 4

    def test_renamed_copy_adds_tables_with_same_stats(self, tiny_catalog):
        renamed = tiny_catalog.renamed_copy("_x")
        assert renamed.table("r_x").row_count == tiny_catalog.table("r").row_count
        assert renamed.table("r").row_count == tiny_catalog.table("r").row_count


class TestTpcdCatalog:
    def test_row_counts_scale_linearly(self):
        one = tpcd_catalog(1.0)
        ten = tpcd_catalog(10.0)
        assert one.table("lineitem").row_count == 6_000_000
        assert ten.table("lineitem").row_count == 60_000_000
        assert one.table("region").row_count == ten.table("region").row_count == 5

    def test_all_tables_have_clustered_pk(self):
        catalog = tpcd_catalog(1.0)
        for table in catalog:
            assert table.clustered_index() is not None

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            tpcd_catalog(0)


class TestPspCatalog:
    def test_relation_count_and_schema(self):
        catalog = psp_catalog()
        assert len(catalog) == 22
        table = catalog.table("psp7")
        assert table.column_names() == ("p", "sp", "num")
        assert 20_000 <= table.row_count <= 40_000

    def test_deterministic(self):
        assert [t.row_count for t in psp_catalog()] == [t.row_count for t in psp_catalog()]

    def test_no_indexes(self):
        assert all(not t.indexes for t in psp_catalog())


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_paper_constants(self):
        assert self.model.block_size == 4096
        assert self.model.seek_time == pytest.approx(0.010)
        assert self.model.read_time_per_block == pytest.approx(0.002)
        assert self.model.write_time_per_block == pytest.approx(0.004)
        assert self.model.memory_blocks == 6 * 1024 * 1024 // 4096

    def test_blocks(self):
        assert self.model.blocks(0, 100) == 1
        assert self.model.blocks(40, 100) == 1
        assert self.model.blocks(41, 100) == 2

    def test_cost_addition_and_total(self):
        cost = Cost(1.0, 0.5) + Cost(2.0, 0.25)
        assert cost.total == pytest.approx(3.75)

    def test_write_more_expensive_than_read(self):
        blocks = 1000
        assert self.model.sequential_write(blocks).total > self.model.sequential_read(blocks).total

    def test_in_memory_sort_has_no_io(self):
        assert self.model.external_sort(100, 1000).io == 0.0

    def test_external_sort_has_io(self):
        blocks = self.model.memory_blocks * 10
        assert self.model.external_sort(blocks, blocks * 40).io > 0.0

    def test_with_memory_changes_spill_threshold(self):
        big = self.model.with_memory(128 * 1024 * 1024)
        blocks = self.model.memory_blocks * 4
        assert big.external_sort(blocks, 1000).io == 0.0
        assert self.model.external_sort(blocks, 1000).io > 0.0

    def test_materialization_and_reuse_costs(self):
        mat = self.model.materialization_cost(10_000, 100)
        reuse = self.model.reuse_cost(10_000, 100)
        assert mat.total > reuse.total > 0

    def test_pickle_drops_the_memo_and_prices_identically(self):
        model = CostModel().with_memory(32 * 1024 * 1024)
        probes = [(100, 1000), (model.memory_blocks * 10, 400_000), (3, 7)]
        expected = [
            (model.external_sort(b, r), model.index_probe_cost(r, 64), model.blocks(r, 96))
            for b, r in probes
        ]
        expected.append(model.nested_loops_spill_cost(9_000, 20_000))
        assert model._memo
        restored = pickle.loads(pickle.dumps(model))
        assert restored == model
        assert restored._memo == {}
        assert restored.memory_blocks == model.memory_blocks
        again = [
            (restored.external_sort(b, r), restored.index_probe_cost(r, 64), restored.blocks(r, 96))
            for b, r in probes
        ]
        again.append(restored.nested_loops_spill_cost(9_000, 20_000))
        assert again == expected
        assert pickle.dumps(model) == pickle.dumps(CostModel().with_memory(32 * 1024 * 1024))

    @given(rows=st.integers(1, 10**7), width=st.integers(4, 512))
    def test_reuse_cheaper_than_materialization(self, rows, width):
        model = CostModel()
        assert model.reuse_cost(rows, width).total <= model.materialization_cost(rows, width).total

    @given(rows=st.lists(st.integers(1, 10**6), min_size=2, max_size=2).map(sorted))
    def test_scan_cost_monotone_in_rows(self, rows):
        model = CostModel()
        small, large = rows
        assert (
            model.sequential_read(model.blocks(small, 64)).total
            <= model.sequential_read(model.blocks(large, 64)).total
        )


class TestEstimator:
    def test_base_properties(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        props = estimator.base_properties("r")
        assert props.rows == 10_000
        assert props.distinct(col("r", "b")) == 100

    def test_equality_selectivity(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        props = estimator.base_properties("r")
        assert estimator.predicate_selectivity(eq(col("r", "b"), 7), props) == pytest.approx(0.01)

    def test_range_selectivity_uses_bounds(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        props = estimator.base_properties("r")
        selectivity = estimator.predicate_selectivity(lt(col("r", "v"), 250), props)
        assert 0.2 < selectivity < 0.3

    def test_disjunction_selectivity(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        props = estimator.base_properties("r")
        single = estimator.predicate_selectivity(eq(col("r", "b"), 1), props)
        double = estimator.predicate_selectivity(or_(eq(col("r", "b"), 1), eq(col("r", "b"), 2)), props)
        assert single < double <= 2 * single + 1e-9

    def test_join_cardinality(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        r = estimator.base_properties("r")
        s = estimator.base_properties("s")
        joined = estimator.join(r, s, [eq(col("r", "a"), col("s", "a"))])
        assert joined.rows == pytest.approx(r.rows * s.rows / 10_000)

    def test_aggregate_groups_capped_by_half_rows(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        r = estimator.base_properties("r")
        aggregated = estimator.aggregate(
            r, (col("r", "a"),), (AggregateFunction("sum", col("r", "v"), "total"),), "agg"
        )
        assert aggregated.rows == pytest.approx(r.rows / 2)
        assert col("agg", "total") in aggregated.columns

    def test_global_aggregate_has_one_row(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        r = estimator.base_properties("r")
        aggregated = estimator.aggregate(r, (), (AggregateFunction("count", None, "n"),), "agg")
        assert aggregated.rows == 1.0

    @given(value=st.integers(-100, 1200))
    def test_selectivity_always_in_unit_interval(self, value, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        props = estimator.base_properties("r")
        for predicate in (lt(col("r", "v"), value), ge(col("r", "v"), value), eq(col("r", "v"), value)):
            selectivity = estimator.predicate_selectivity(predicate, props)
            assert 0.0 <= selectivity <= 1.0

    def test_apply_predicate_never_below_one_row(self, tiny_catalog):
        estimator = Estimator(tiny_catalog)
        props = estimator.base_properties("t")
        filtered = estimator.apply_predicate(props, eq(col("t", "c"), 1))
        assert filtered.rows >= 1.0
