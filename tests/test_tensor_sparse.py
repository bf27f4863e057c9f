"""Tests for repro.tensor.sparse.SparseTensor."""

import copy
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import mode_roles
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor, _drop_zeros, _lexsort_rows


def make_simple():
    indices = np.array([[0, 0, 0], [1, 1, 1], [0, 1, 2]])
    values = np.array([1.0, 2.0, 3.0])
    return SparseTensor(indices, values, (2, 2, 3))


class TestConstruction:
    def test_basic_properties(self):
        t = make_simple()
        assert t.shape == (2, 2, 3)
        assert t.order == 3
        assert t.nnz == 3
        assert t.size == 12
        assert t.density == pytest.approx(3 / 12)

    def test_duplicates_are_summed(self):
        indices = np.array([[0, 0], [0, 0], [1, 1]])
        t = SparseTensor(indices, np.array([1.0, 2.0, 5.0]), (2, 2))
        assert t.nnz == 2
        assert t.to_coords_dict()[(0, 0)] == pytest.approx(3.0)

    def test_sorted_lexicographically(self):
        indices = np.array([[1, 1, 1], [0, 0, 0]])
        t = SparseTensor(indices, np.array([2.0, 1.0]), (2, 2, 2))
        np.testing.assert_array_equal(np.asarray(t.indices)[0], [0, 0, 0])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            SparseTensor(np.array([[0, 5]]), np.array([1.0]), (2, 3))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SparseTensor(np.array([[0, -1]]), np.array([1.0]), (2, 3))

    def test_mismatched_values_rejected(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0, 2.0]), (2, 2))

    def test_wrong_index_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseTensor(np.array([[0, 0]]), np.array([1.0]), (2, 2, 2))

    def test_non_numeric_values_rejected(self):
        with pytest.raises(TypeError):
            SparseTensor(np.array([[0, 0]]), np.array(["a"]), (2, 2))

    def test_empty_tensor(self):
        t = SparseTensor.empty((3, 4))
        assert t.nnz == 0
        assert t.density == 0.0
        assert t.to_dense().shape == (3, 4)

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(0)
        dense = rng.random((4, 5, 3))
        dense[dense < 0.6] = 0.0
        t = SparseTensor.from_dense(dense)
        np.testing.assert_allclose(t.to_dense(), dense)

    def test_from_dense_tolerance(self):
        dense = np.array([[1e-12, 1.0], [0.0, 2.0]])
        t = SparseTensor.from_dense(dense, tol=1e-9)
        assert t.nnz == 2

    def test_indices_are_read_only(self):
        t = make_simple()
        with pytest.raises(ValueError):
            t.indices[0, 0] = 5
        with pytest.raises(ValueError):
            t.values[0] = 5.0


class TestConversions:
    def test_to_dense(self):
        t = make_simple()
        dense = t.to_dense()
        assert dense[0, 0, 0] == 1.0
        assert dense[1, 1, 1] == 2.0
        assert dense[0, 1, 2] == 3.0
        assert dense.sum() == pytest.approx(6.0)

    def test_to_dense_refuses_huge(self):
        t = SparseTensor(np.array([[0, 0, 0]]), np.array([1.0]), (10**4, 10**4, 10**4))
        with pytest.raises(MemoryError):
            t.to_dense()

    def test_unfold_matches_dense_unfold(self):
        from repro.tensor.dense import unfold_dense

        t = make_simple()
        dense = t.to_dense()
        for mode in range(3):
            sparse_unfold = t.unfold(mode).toarray()
            np.testing.assert_allclose(sparse_unfold, unfold_dense(dense, mode))

    def test_unfolded_column_indices_bounds(self):
        t = make_simple()
        cols = t.unfolded_column_indices(0)
        assert cols.max() < 2 * 3
        assert cols.min() >= 0


class TestReordering:
    def test_sort_by_modes_keeps_content(self):
        t = make_simple()
        sorted_t = t.sort_by_modes([2, 1, 0])
        assert sorted_t.allclose(t)

    def test_sort_by_modes_primary_key(self):
        t = make_simple()
        sorted_t = t.sort_by_modes([2, 0, 1])
        k = np.asarray(sorted_t.indices)[:, 2]
        assert (np.diff(k) >= 0).all()

    def test_sort_invalid_permutation(self):
        t = make_simple()
        with pytest.raises(ValueError):
            t.sort_by_modes([0, 0, 1])

    def test_scale(self):
        t = make_simple()
        np.testing.assert_allclose(t.scale(2.0).to_dense(), 2.0 * t.to_dense())


class TestStructureQueries:
    def test_fiber_counts_sum_to_nnz(self):
        t = make_simple()
        for mode in range(3):
            assert t.fiber_counts(mode).sum() == t.nnz

    def test_num_fibers_matches_distinct(self):
        t = make_simple()
        # Mode-2 fibers are identified by (i, j): (0,0), (1,1), (0,1).
        assert t.num_fibers(2) == 3

    def test_slice_counts(self):
        t = make_simple()
        assert t.slice_counts(0).sum() == t.nnz
        assert t.num_slices(0) == 2

    def test_norm(self):
        t = make_simple()
        assert t.norm() == pytest.approx(np.sqrt(1 + 4 + 9))

    def test_empty_structure_queries(self):
        t = SparseTensor.empty((4, 5, 6))
        assert t.num_fibers(0) == 0
        assert t.num_slices(1) == 0
        assert t.norm() == 0.0


class TestComparison:
    def test_allclose_self(self):
        t = make_simple()
        assert t.allclose(t)

    def test_allclose_ignores_ordering(self):
        indices = np.array([[0, 1, 2], [1, 1, 1], [0, 0, 0]])
        other = SparseTensor(indices, np.array([3.0, 2.0, 1.0]), (2, 2, 3), sort=False)
        assert make_simple().allclose(other)

    def test_allclose_detects_value_difference(self):
        t = make_simple()
        other = SparseTensor(np.asarray(t.indices), np.asarray(t.values) * 1.1, t.shape)
        assert not t.allclose(other)

    def test_allclose_detects_shape_difference(self):
        t = make_simple()
        other = SparseTensor(np.asarray(t.indices), np.asarray(t.values), (2, 2, 4))
        assert not t.allclose(other)

    def test_allclose_ignores_explicit_zeros(self):
        a = SparseTensor(np.array([[0, 0], [1, 1]]), np.array([1.0, 0.0]), (2, 2))
        b = SparseTensor(np.array([[0, 0]]), np.array([1.0]), (2, 2))
        assert a.allclose(b)

    def test_allclose_type_error(self):
        with pytest.raises(TypeError):
            make_simple().allclose("not a tensor")


# ---------------------------------------------------------------------- #
# The packed-key sort against np.lexsort over the raw columns
# ---------------------------------------------------------------------- #
#: Three modes of 2**31: the first two pack into one key of span 2**62 and
#: the third starts a second key.
HUGE_SHAPE = (2**31, 2**31, 2**31)


def raw_lexsort(indices, order):
    """``np.lexsort`` over the raw columns, ``order[0]`` primary."""
    return np.lexsort(tuple(indices[:, m] for m in reversed(order)))


def few_distinct_indices(rng, shape, nnz):
    """``nnz`` rows drawn from a few values per mode (0, the largest index
    and some in between), so duplicate rows and ties are common."""
    columns = []
    for size in shape:
        pool = np.unique(np.r_[0, size - 1, rng.integers(0, size, size=2)])
        columns.append(rng.choice(pool, size=nnz))
    return np.stack(columns, axis=1).astype(np.int64)


@st.composite
def index_matrices(draw):
    """(indices, shape, mode order): small shapes, or modes of up to 2**40
    whose product passes 2**62."""
    order = draw(st.integers(min_value=1, max_value=4))
    max_size = draw(st.sampled_from([3, 2**40]))
    shape = tuple(draw(st.integers(1, max_size)) for _ in range(order))
    nnz = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    mode_order = draw(st.permutations(range(order)))
    return few_distinct_indices(rng, shape, nnz), shape, mode_order


def encode_with_raw_lexsort(tensor, operation, mode):
    """F-COO's five arrays, from a plain ``np.lexsort`` permutation and a
    sorted copy of the tensor."""
    roles = mode_roles(operation, mode, tensor.order)
    idx = np.asarray(tensor.indices)
    perm = raw_lexsort(idx, roles.index_modes + roles.product_modes)
    idx = idx[perm]
    values = np.asarray(tensor.values)[perm].astype(np.float32)
    index_coords = idx[:, list(roles.index_modes)]
    first = np.ones(min(tensor.nnz, 1), dtype=bool)  # none when empty
    bf = np.concatenate((first, np.any(index_coords[1:] != index_coords[:-1], axis=1)))
    return {
        "product_indices": idx[:, list(roles.product_modes)].astype(np.uint32),
        "values": values,
        "bf": bf,
        "segment_ids": np.cumsum(bf, dtype=np.int64) - 1,
        "segment_index_coords": index_coords[bf].astype(np.int64),
    }


def assert_encodes_like_raw_lexsort(tensor, operation, mode):
    """The encoding's five arrays equal the oracle's in dtype, C order and
    bits."""
    encoded = FCOOTensor.from_sparse(tensor, operation, mode)
    for name, array in encode_with_raw_lexsort(tensor, operation, mode).items():
        actual = getattr(encoded, name)
        assert actual.dtype == array.dtype, name
        assert actual.shape == array.shape, name
        assert actual.flags.c_contiguous, name
        assert actual.tobytes() == array.tobytes(), name


class TestPackedSort:
    @given(index_matrices())
    def test_permutation_equals_raw_lexsort(self, case):
        indices, shape, mode_order = case
        np.testing.assert_array_equal(
            _lexsort_rows(indices, shape, mode_order), raw_lexsort(indices, mode_order)
        )

    def test_shape_beyond_2_62_packs_two_keys(self):
        indices = few_distinct_indices(np.random.default_rng(0), HUGE_SHAPE, 200)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
            perm = _lexsort_rows(indices, HUGE_SHAPE, (2, 0, 1))
        (keys,), _ = spy.call_args
        assert spy.call_count == 1 and len(keys) == 2
        np.testing.assert_array_equal(perm, raw_lexsort(indices, (2, 0, 1)))

    def test_no_columns_is_the_identity(self):
        np.testing.assert_array_equal(
            _lexsort_rows(np.empty((3, 0), dtype=np.int64), ()), np.arange(3)
        )

    @pytest.mark.parametrize("operation", ["spttm", "spmttkrp", "spttmc"])
    def test_fcoo_encoding_of_a_huge_shape(self, operation):
        rng = np.random.default_rng(1)
        indices = few_distinct_indices(rng, HUGE_SHAPE, 300)
        tensor = SparseTensor(indices, rng.standard_normal(300), HUGE_SHAPE)
        for mode in range(tensor.order):
            assert_encodes_like_raw_lexsort(tensor, operation, mode)

    @pytest.mark.parametrize("operation", ["spttm", "spmttkrp", "spttmc"])
    def test_huge_shape_encodes_in_o_nnz_memory(self, operation):
        # One buffer sized by a 2**31-row mode (a bincount over it, a dense
        # lookup table) would take GiBs; 300 non-zeros need a few KiB.
        rng = np.random.default_rng(1)
        indices = few_distinct_indices(rng, HUGE_SHAPE, 300)
        sorted_tensor = SparseTensor(indices, rng.standard_normal(300), HUGE_SHAPE)
        shuffled = SparseTensor(
            indices, rng.standard_normal(300), HUGE_SHAPE, sort=False, sum_duplicates=False
        )
        assert sorted_tensor._is_sorted and not shuffled._is_sorted
        tracemalloc.start()
        try:
            for tensor in (sorted_tensor, shuffled):
                for mode in range(tensor.order):
                    FCOOTensor.from_sparse(tensor, operation, mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sum_duplicates_keeps_sums_and_order(self):
        rng = np.random.default_rng(2)
        indices = few_distinct_indices(rng, HUGE_SHAPE, 500)
        values = rng.standard_normal(500)
        tensor = SparseTensor(indices, values, HUGE_SHAPE)
        unique, inverse = np.unique(indices, axis=0, return_inverse=True)
        perm = raw_lexsort(indices, (0, 1, 2))
        sums = np.zeros(len(unique))
        np.add.at(sums, inverse.ravel()[perm], values[perm])
        np.testing.assert_array_equal(np.asarray(tensor.indices), unique)
        np.testing.assert_array_equal(np.asarray(tensor.values), sums)


# ---------------------------------------------------------------------- #
# The recorded order, and the F-COO encode that reads it
# ---------------------------------------------------------------------- #
def raw_is_sorted(tensor):
    """Canonical order by definition: the raw lexsort permutes nothing."""
    perm = raw_lexsort(np.asarray(tensor.indices), range(tensor.order))
    return np.array_equal(perm, np.arange(tensor.nnz))


#: Mode sizes for the encode property: small ones, and the two either side
#: of the 16-bit sort keys' limit.
ENCODE_MODE_SIZES = [1, 2, 3, 5, 2**16, 2**16 + 1]
LAYOUTS = ["default", "shuffled", "sort_by_modes"]
FCOO_ARRAYS = ("product_indices", "values", "bf", "segment_ids", "segment_index_coords")


def build_tensor(shape, nnz, seed, layout):
    """A tensor of few distinct indices per mode in one of three orders:
    ``default`` (the constructor sorts and sums), ``shuffled`` (duplicate
    rows in random order, both constructor flags off) or ``sort_by_modes``
    (the default tensor re-sorted by a random mode order)."""
    rng = np.random.default_rng(seed)
    indices = few_distinct_indices(rng, shape, nnz)
    values = rng.standard_normal(nnz)
    if layout == "shuffled":
        perm = rng.permutation(nnz)
        return SparseTensor(
            indices[perm], values[perm], shape, sort=False, sum_duplicates=False
        )
    tensor = SparseTensor(indices, values, shape)
    if layout == "sort_by_modes":
        tensor = tensor.sort_by_modes(rng.permutation(len(shape)))
    return tensor


@st.composite
def encode_cases(draw):
    order = draw(st.integers(min_value=2, max_value=4))
    shape = tuple(draw(st.sampled_from(ENCODE_MODE_SIZES)) for _ in range(order))
    nnz = draw(st.integers(min_value=0, max_value=40))
    return shape, nnz, draw(st.integers(0, 2**31 - 1)), draw(st.sampled_from(LAYOUTS))


class TestFCOOEncodeOrder:
    @given(encode_cases())
    @example(((3, 4), 0, 0, "default"))
    @example(((3, 4, 2), 0, 0, "shuffled"))
    @example(((2**16 + 1, 3), 1, 0, "shuffled"))
    @example(((2, 2**16, 3), 1, 0, "default"))
    @example(((2**16, 3, 2**16 + 1), 40, 1, "default"))
    @example(((2**16 + 1, 2, 2**16, 3), 40, 2, "shuffled"))
    @example(((2**16, 2**16 + 1, 5), 40, 3, "sort_by_modes"))
    def test_every_encode_equals_raw_lexsort(self, case):
        tensor = build_tensor(*case)
        for operation in ("spttm", "spmttkrp", "spttmc"):
            for mode in range(tensor.order):
                assert_encodes_like_raw_lexsort(tensor, operation, mode)

    @pytest.mark.parametrize("operation", ["spmttkrp", "spttmc"])
    def test_sorted_slice_encodes_never_lexsort(self, operation):
        tensor = random_sparse_tensor((30, 20, 10, 5), 800, seed=3)
        shuffled = build_tensor(tensor.shape, 800, 3, "shuffled")
        for mode in range(tensor.order):
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
                FCOOTensor.from_sparse(tensor, operation, mode)
            assert spy.call_count == 0
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
                FCOOTensor.from_sparse(shuffled, operation, mode)
            assert spy.call_count == 1

    @given(encode_cases())
    @example(((2**16, 3, 2**16 + 1), 40, 1, "default"))
    @example(((2**16 + 1, 2, 2**16, 3), 40, 2, "shuffled"))
    def test_slice_order_equals_raw_lexsort(self, case):
        # The order COO and the one-index-mode F-COO encodes gather through:
        # ``mode`` first, the other modes after it in increasing order,
        # ties kept in stored order.
        tensor = build_tensor(*case)
        indices = np.asarray(tensor.indices)
        for mode in range(tensor.order):
            rest = [m for m in range(tensor.order) if m != mode]
            np.testing.assert_array_equal(
                tensor.slice_order(mode), raw_lexsort(indices, [mode] + rest)
            )

    def test_slice_order_sorts_16_bit_keys(self):
        tensor = random_sparse_tensor((2**16, 2**16 + 1), 500, seed=4)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            tensor.slice_order(0)
            tensor.slice_order(1)
        assert [c.args[0].dtype for c in spy.call_args_list] == [np.uint16, np.int64]
        assert all(c.kwargs == {"kind": "stable"} for c in spy.call_args_list)


class TestRecordedOrder:
    SHAPE = (4, 3, 5)

    def rows(self, seed=0):
        rng = np.random.default_rng(seed)
        indices = few_distinct_indices(rng, self.SHAPE, 60)
        return indices, rng.standard_normal(60)

    @pytest.mark.parametrize(
        "flags",
        [{}, {"sort": True, "sum_duplicates": False}, {"sort": False, "sum_duplicates": True}],
    )
    def test_sorting_constructors_record_the_order(self, flags):
        indices, values = self.rows()
        tensor = SparseTensor(indices, values, self.SHAPE, **flags)
        assert tensor._is_sorted
        assert raw_is_sorted(tensor)

    @pytest.mark.parametrize("presorted", [False, True])
    def test_an_order_given_as_is_is_not_taken_as_sorted(self, presorted):
        indices, values = self.rows()
        if presorted:
            perm = raw_lexsort(indices, range(3))
            indices, values = indices[perm], values[perm]
        tensor = SparseTensor(indices, values, self.SHAPE, sort=False, sum_duplicates=False)
        assert raw_is_sorted(tensor) is presorted
        assert tensor._is_sorted is False
        for operation in ("spttm", "spmttkrp", "spttmc"):
            for mode in range(tensor.order):
                assert_encodes_like_raw_lexsort(tensor, operation, mode)

    def test_other_construction_paths(self):
        indices, values = self.rows()
        tensor = SparseTensor(indices, values, self.SHAPE)
        zeroed = SparseTensor(indices, np.where(indices[:, 0] == 0, 0.0, values), self.SHAPE)
        recorded = {
            "from_dense": (SparseTensor.from_dense(tensor.to_dense()), True),
            "empty": (SparseTensor.empty(self.SHAPE), True),
            "one non-zero": (
                SparseTensor(indices[:1], values[:1], self.SHAPE, sort=False, sum_duplicates=False),
                True,
            ),
            # Copies built with both flags off keep their order unrecorded,
            # even when it happens to be canonical.
            "sort_by_modes identity": (tensor.sort_by_modes((0, 1, 2)), False),
            "sort_by_modes": (tensor.sort_by_modes((2, 0, 1)), False),
            "_drop_zeros": (_drop_zeros(zeroed), False),
        }
        assert recorded["_drop_zeros"][0] is not zeroed
        for name, (case, expected) in recorded.items():
            assert case._is_sorted is expected, name
            if expected:
                assert raw_is_sorted(case), name

    @pytest.mark.parametrize("layout", ["default", "shuffled"])
    def test_copies_keep_the_order_and_encode_the_same(self, layout):
        tensor = build_tensor(self.SHAPE, 60, 5, layout)
        assert tensor._is_sorted is (layout == "default")
        for clone in (copy.deepcopy(tensor), pickle.loads(pickle.dumps(tensor))):
            assert clone._is_sorted is tensor._is_sorted
            for operation in ("spttm", "spmttkrp", "spttmc"):
                for mode in range(tensor.order):
                    a = FCOOTensor.from_sparse(tensor, operation, mode)
                    b = FCOOTensor.from_sparse(clone, operation, mode)
                    for name in FCOO_ARRAYS:
                        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
