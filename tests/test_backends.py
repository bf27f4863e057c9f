"""The backend bit-identity harness (ISSUE 9 tentpole property).

Every numeric-execution backend must be bit-identical — not merely
``np.array_equal``, which calls ``-0.0`` and ``+0.0`` equal — to the
reference backend on every input.  The Hypothesis sweeps here drive the
three unified kernels through the one-shot, chunked (streamed) and sharded
topologies under both backends and compare outputs, plus the
primitive-level reductions (1-D/2-D, signed zeros, empty segments, single
non-zero, unsorted ids, streams that span several blocks), a scalar-loop
oracle that pins the canonical product association, and the
``ExecContext(backend=...)`` / ``REPRO_BACKEND`` selection plumbing.
"""

import contextlib
import math
from typing import Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    Backend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
    vectorized,
)
from repro.context import ExecContext
from repro.gpusim.scan import segment_reduce
from repro.kernels.unified import unified_spmttkrp, unified_spttm, unified_spttmc
from repro.tensor.sparse import SparseTensor

SETTINGS = settings()

REF = ReferenceBackend()
VEC = VectorizedBackend()

#: Block budgets the primitive properties run under: the module's own
#: (``None``), and budgets of one and twelve float64 partials, so that the
#: drawn streams cross many blocks and segments outgrow a block.
BLOCK_BUDGETS = pytest.mark.parametrize(
    "block_bytes", [None, 8, 96], ids=["module-budget", "8-bytes", "96-bytes"]
)


def block_budget(block_bytes):
    """Run the vectorized backend with ``block_bytes`` of partials a block."""
    if block_bytes is None:
        return contextlib.nullcontext()
    return mock.patch.object(vectorized, "BLOCK_BYTES", block_bytes)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal shape, dtype and bit pattern (so ``-0.0`` differs from ``+0.0``)."""
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
@st.composite
def sparse_tensors(draw, max_dim=8, max_order=4, max_nnz=60) -> SparseTensor:
    order = draw(st.integers(min_value=2, max_value=max_order))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=max_dim)) for _ in range(order)
    )
    nnz = draw(st.integers(min_value=1, max_value=max_nnz))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    indices = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    values = rng.uniform(0.25, 2.0, size=nnz)
    return SparseTensor(indices, values, shape)


@st.composite
def tensors_with_mode(draw) -> Tuple[SparseTensor, int]:
    tensor = draw(sparse_tensors())
    mode = draw(st.integers(min_value=0, max_value=tensor.order - 1))
    return tensor, mode


@st.composite
def segmented_values(draw):
    """(values, sorted segment_ids, num_segments) with empty segments,
    ``-0.0`` entries and whole segments of ``-0.0``."""
    n = draw(st.integers(min_value=0, max_value=80))
    num_segments = draw(st.integers(min_value=1, max_value=20))
    width = draw(st.integers(min_value=0, max_value=6))  # 0 -> 1-D values
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    segment_ids = np.sort(rng.integers(0, num_segments, size=n))
    values = (
        rng.standard_normal(n) if width == 0 else rng.standard_normal((n, width))
    )
    values[rng.random(values.shape) < draw(st.sampled_from([0.0, 0.3]))] = -0.0
    negative_zero_segments = draw(st.lists(st.integers(0, num_segments - 1), max_size=3))
    values[np.isin(segment_ids, negative_zero_segments)] = -0.0
    return values, segment_ids, num_segments


#: One rank of 1-4 per product mode, for 0-3 product modes.
PRODUCT_RANKS = st.lists(st.integers(min_value=1, max_value=4), max_size=3)


def make_factors(tensor: SparseTensor, rank: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.1, 1.0, size=(s, rank)) for s in tensor.shape]


def product_inputs(case, ranks, seed):
    """A 1-D value stream with its segments and one factor matrix per entry
    of ``ranks`` (that many columns, some ``-0.0`` entries) plus row
    streams."""
    values, segment_ids, num_segments = case
    if values.ndim != 1:
        values = values[:, 0] if values.shape[1] else np.zeros(len(segment_ids))
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((10, rank)) for rank in ranks]
    for mat in mats:
        mat[rng.random(mat.shape) < 0.2] = -0.0
    rows = [rng.integers(0, 10, size=values.shape[0]) for _ in ranks]
    return values, mats, rows, segment_ids, num_segments


def oracle_segment_sums(values, mats, rows, segment_ids, num_segments, kron):
    """The canonical per-segment sums, one Python float at a time.

    Each partial is the value times one factor entry per product mode:
    first to last for the Hadamard product; last to first for the
    Kronecker product, whose columns number earlier modes fastest.  Each
    segment starts at ``0.0`` and adds its partials in stream order.
    """
    ranks = [mat.shape[1] for mat in mats]
    if kron:
        width = math.prod(ranks)
        # Column `col` takes column `col // strides[p] % ranks[p]` of factor p.
        strides = [math.prod(ranks[:p]) for p in range(len(ranks))]
        order = range(len(mats) - 1, -1, -1)
    else:
        width = ranks[0] if ranks else 1
        order = range(len(mats))
    sums = [[0.0] * width for _ in range(num_segments)]
    for z, segment in enumerate(segment_ids.tolist()):
        for col in range(width):
            partial = float(values[z])
            for p in order:
                column = col // strides[p] % ranks[p] if kron else col
                partial = partial * float(mats[p][rows[p][z], column])
            sums[segment][col] = sums[segment][col] + partial
    return np.array(sums, dtype=np.float64).reshape(num_segments, width)


# ---------------------------------------------------------------------- #
# Primitive-level identity
# ---------------------------------------------------------------------- #
class TestSegmentReduceIdentity:
    @BLOCK_BUDGETS
    @SETTINGS
    @given(segmented_values())
    def test_bit_identity_with_canonical_reduce(self, block_bytes, case):
        values, segment_ids, num_segments = case
        expected = segment_reduce(values, segment_ids, num_segments)
        with block_budget(block_bytes):
            actual = VEC.segment_reduce(values, segment_ids, num_segments)
        assert_same_bits(actual, expected)
        assert_same_bits(REF.segment_reduce(values, segment_ids, num_segments), expected)

    def test_negative_zero_segment_sums_to_positive_zero(self):
        values = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])
        segment_ids = np.array([0, 0, 1])
        out = VEC.segment_reduce(values, segment_ids, 2)
        assert_same_bits(out, segment_reduce(values, segment_ids, 2))
        assert not np.signbit(out[0, 0])

    def test_single_nnz(self):
        values = np.array([[3.5, -1.25]])
        out = VEC.segment_reduce(values, np.array([2]), 5)
        expected = np.zeros((5, 2))
        expected[2] = values[0]
        assert_same_bits(out, expected)

    def test_all_segments_empty(self):
        out = VEC.segment_reduce(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 4)
        assert_same_bits(out, np.zeros((4, 3)))

    @BLOCK_BUDGETS
    def test_unsorted_ids(self, block_bytes):
        # F-COO never produces unsorted ids; each segment still sums its
        # elements in stream order.
        rng = np.random.default_rng(0)
        values = rng.standard_normal((50, 4))
        values[::7] = -0.0
        segment_ids = rng.integers(0, 7, size=50)  # deliberately unsorted
        with block_budget(block_bytes):
            actual = VEC.segment_reduce(values, segment_ids, 7)
        assert_same_bits(actual, segment_reduce(values, segment_ids, 7))

    @BLOCK_BUDGETS
    def test_one_long_segment_among_singletons(self, block_bytes):
        # One 500-element segment next to 39 single-element segments.
        rng = np.random.default_rng(1)
        segment_ids = np.sort(np.r_[np.zeros(500, dtype=np.int64), np.arange(1, 40)])
        values = rng.standard_normal((segment_ids.size, 3))
        with block_budget(block_bytes):
            actual = VEC.segment_reduce(values, segment_ids, 40)
        assert_same_bits(actual, segment_reduce(values, segment_ids, 40))

    def test_stream_over_several_blocks(self):
        # 60k non-zeros at rank 32 span several blocks of the module's own
        # budget, and the 20k-element segment is longer than a block.
        rng = np.random.default_rng(2)
        segment_ids = np.sort(np.r_[np.full(20_000, 700), rng.integers(0, 1_500, size=40_000)])
        assert 20_000 > vectorized.BLOCK_BYTES // (8 * 32)
        values = rng.standard_normal(segment_ids.size)
        values[segment_ids == 3] = -0.0
        mats = [rng.standard_normal((50, 32)) for _ in range(2)]
        rows = [rng.integers(0, 50, size=segment_ids.size) for _ in mats]
        args = (values, mats, rows, segment_ids, 1_500)
        assert_same_bits(VEC.hadamard_segment_sums(*args), REF.hadamard_segment_sums(*args))
        assert_same_bits(
            VEC.kron_segment_sums(values, mats[:1], rows[:1], segment_ids, 1_500),
            REF.kron_segment_sums(values, mats[:1], rows[:1], segment_ids, 1_500),
        )
        assert_same_bits(
            VEC.segment_reduce(values, segment_ids, 1_500),
            segment_reduce(values, segment_ids, 1_500),
        )

    @BLOCK_BUDGETS
    @SETTINGS
    @given(segmented_values(), st.integers(min_value=0, max_value=3))
    def test_fused_hadamard_identity(self, block_bytes, case, num_mats):
        args = product_inputs(case, [4] * num_mats, seed=7)
        with block_budget(block_bytes):
            actual = VEC.hadamard_segment_sums(*args)
        assert_same_bits(actual, REF.hadamard_segment_sums(*args))

    @BLOCK_BUDGETS
    @SETTINGS
    @given(segmented_values(), PRODUCT_RANKS)
    def test_kron_identity(self, block_bytes, case, ranks):
        args = product_inputs(case, ranks, seed=9)
        with block_budget(block_bytes):
            actual = VEC.kron_segment_sums(*args)
        assert_same_bits(actual, REF.kron_segment_sums(*args))

    @pytest.mark.parametrize("backend", [REF, VEC], ids=["reference", "vectorized"])
    @BLOCK_BUDGETS
    @SETTINGS
    @given(segmented_values(), PRODUCT_RANKS)
    def test_canonical_association_matches_scalar_oracle(self, backend, block_bytes, case, ranks):
        """Each backend against a scalar loop rather than the other backend,
        so an association or column order the two share still has to be
        the canonical one."""
        hadamard = product_inputs(case, ranks[:1] * len(ranks), seed=5)
        kron = product_inputs(case, ranks, seed=11)
        with block_budget(block_bytes):
            hadamard_sums = backend.hadamard_segment_sums(*hadamard)
            kron_sums = backend.kron_segment_sums(*kron)
        assert_same_bits(hadamard_sums, oracle_segment_sums(*hadamard, kron=False))
        assert_same_bits(kron_sums, oracle_segment_sums(*kron, kron=True))

    def test_dense_hadamard_identity(self):
        rng = np.random.default_rng(3)
        grams = [rng.standard_normal((6, 6)) for _ in range(4)]
        assert_same_bits(VEC.dense_hadamard(grams, 6), REF.dense_hadamard(grams, 6))
        assert_same_bits(VEC.dense_hadamard([], 6), REF.dense_hadamard([], 6))


# ---------------------------------------------------------------------- #
# Kernel-level identity across topologies
# ---------------------------------------------------------------------- #
# The backend contract is per-topology: swapping the backend under a fixed
# execution shape must not change a single bit.  (The topologies themselves
# are NOT bit-identical to each other — the streamed merge re-associates
# sums across chunk boundaries — so each topology is compared against the
# reference backend under the SAME topology.)
TOPOLOGIES = (
    {},
    {"streamed": True, "chunk_nnz": 16},
    {"devices": 2},
)


def _backend_pair(topology):
    return (
        ExecContext(backend="reference", **topology),
        ExecContext(backend="vectorized", **topology),
    )


class TestKernelIdentity:
    @SETTINGS
    @given(tensors_with_mode(), st.integers(min_value=1, max_value=6))
    def test_spmttkrp_identity_across_topologies(self, tensor_mode, rank):
        tensor, mode = tensor_mode
        factors = make_factors(tensor, rank)
        for topology in TOPOLOGIES:
            ref_ctx, vec_ctx = _backend_pair(topology)
            reference = unified_spmttkrp(tensor, factors, mode, ctx=ref_ctx).output
            out = unified_spmttkrp(tensor, factors, mode, ctx=vec_ctx).output
            np.testing.assert_array_equal(out, reference)

    @SETTINGS
    @given(tensors_with_mode(), st.integers(min_value=1, max_value=6))
    def test_spttm_identity_across_topologies(self, tensor_mode, rank):
        tensor, mode = tensor_mode
        matrix = make_factors(tensor, rank)[mode]
        for topology in TOPOLOGIES:
            ref_ctx, vec_ctx = _backend_pair(topology)
            reference = unified_spttm(tensor, matrix, mode, ctx=ref_ctx).output
            out = unified_spttm(tensor, matrix, mode, ctx=vec_ctx).output
            np.testing.assert_array_equal(out.fiber_values, reference.fiber_values)
            np.testing.assert_array_equal(out.fiber_coords, reference.fiber_coords)

    @SETTINGS
    @given(tensors_with_mode(), st.integers(min_value=1, max_value=4))
    def test_spttmc_identity_across_topologies(self, tensor_mode, rank):
        tensor, mode = tensor_mode
        factors = make_factors(tensor, rank)
        for topology in TOPOLOGIES:
            ref_ctx, vec_ctx = _backend_pair(topology)
            reference = unified_spttmc(tensor, factors, mode, ctx=ref_ctx).output
            out = unified_spttmc(tensor, factors, mode, ctx=vec_ctx).output
            np.testing.assert_array_equal(out, reference)

    def test_decomposition_identity(self):
        from repro.algorithms.cp import cp_als
        from repro.algorithms.tucker import tucker_hooi
        from repro.tensor.random import random_sparse_tensor

        tensor = random_sparse_tensor((40, 12, 10), 300, seed=5)
        runs = {
            name: cp_als(
                tensor, 4, max_iterations=2, compute_fit=False, seed=3,
                ctx=ExecContext(backend=name),
            )
            for name in ("reference", "vectorized")
        }
        for a, b in zip(runs["reference"].factors, runs["vectorized"].factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            runs["reference"].weights, runs["vectorized"].weights
        )

        tuckers = {
            name: tucker_hooi(
                tensor, (3, 3, 3), max_iterations=1, seed=3,
                ctx=ExecContext(backend=name),
            )
            for name in ("reference", "vectorized")
        }
        for a, b in zip(tuckers["reference"].factors, tuckers["vectorized"].factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            tuckers["reference"].core, tuckers["vectorized"].core
        )


# ---------------------------------------------------------------------- #
# Selection plumbing
# ---------------------------------------------------------------------- #
class TestBackendSelection:
    def test_registry_contents(self):
        assert available_backends() == ("reference", "vectorized")
        assert isinstance(BACKENDS["reference"], ReferenceBackend)
        assert isinstance(BACKENDS["vectorized"], VectorizedBackend)

    def test_get_backend_resolution(self):
        assert get_backend("vectorized") is BACKENDS["vectorized"]
        instance = VectorizedBackend()
        assert get_backend(instance) is instance

    def test_get_backend_env_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend(None).name == "reference"
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert get_backend(None).name == "vectorized"
        monkeypatch.setenv(BACKEND_ENV_VAR, "")  # empty -> default
        assert get_backend(None).name == "reference"

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")
        with pytest.raises(TypeError):
            get_backend(42)

    def test_context_validates_backend_eagerly(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecContext(backend="typo")
        assert ExecContext(backend="vectorized").backend == "vectorized"
        instance = ReferenceBackend()
        assert ExecContext(backend=instance).backend is instance

    def test_context_threads_backend_into_kernels(self, monkeypatch):
        """An explicit ctx backend wins over the environment default."""
        from repro.tensor.random import random_sparse_tensor

        calls = []
        original = VectorizedBackend.hadamard_segment_sums

        def spy(self, *args, **kwargs):
            calls.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "hadamard_segment_sums", spy)
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        tensor = random_sparse_tensor((8, 6, 5), 40, seed=0)
        factors = make_factors(tensor, 3)
        unified_spmttkrp(tensor, factors, 0, ctx=ExecContext(backend="vectorized"))
        assert calls, "ctx backend did not reach the kernel numeric core"

    def test_abstract_backend_is_abstract(self):
        backend = Backend()
        with pytest.raises(NotImplementedError):
            backend.segment_reduce(np.zeros(1), np.zeros(1, dtype=int), 1)
        with pytest.raises(NotImplementedError):
            backend.slice_products(np.zeros(1), [], [])
        with pytest.raises(NotImplementedError):
            backend.dense_hadamard([], 1)
