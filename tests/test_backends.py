"""The backend bit-identity harness (ISSUE 9 tentpole property).

Every numeric-execution backend must be bit-identical — not merely
``np.array_equal``, which calls ``-0.0`` and ``+0.0`` equal — to the
reference backend on every input.  The Hypothesis sweeps here drive the
three unified kernels through the one-shot, chunked (streamed) and sharded
topologies under both backends and compare outputs, plus the
primitive-level reductions (1-D/2-D, signed zeros, empty segments, single
non-zero, unsorted ids, streams that span several blocks, segments carried
across fixed blocks), a scalar-loop oracle that pins the canonical product
association, and the ``ExecContext(backend=...)`` / ``REPRO_BACKEND``
selection plumbing.
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
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec
from repro.gpusim.device import TITAN_X
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


def fiber_row_inputs(case, ranks, seed):
    """:func:`product_inputs` with the drawn values kept as they are: 2-D
    values are one row of partial sums per stream entry, as a dimension
    tree's fibers carry them."""
    values, segment_ids, num_segments = case
    _values, mats, rows, _ids, _segments = product_inputs(case, ranks, seed)
    return values, mats, rows, segment_ids, num_segments


def oracle_segment_sums(values, mats, rows, segment_ids, num_segments, kron):
    """The canonical per-segment sums, one Python float at a time.

    Each partial is the value times one factor entry per product mode:
    first to last for the Hadamard product; last to first for the
    Kronecker product, whose columns number earlier modes fastest, after
    the columns of 2-D values, which vary slowest.  Each segment starts at
    ``0.0`` and adds its partials in stream order.
    """
    ranks = [mat.shape[1] for mat in mats]
    value_rows = values[:, None] if values.ndim == 1 else values
    if kron:
        width = value_rows.shape[1] * math.prod(ranks)
        # Column `col` takes column `col // strides[p] % ranks[p]` of factor p.
        strides = [math.prod(ranks[:p]) for p in range(len(ranks))]
        order = range(len(mats) - 1, -1, -1)
    else:
        width = ranks[0] if ranks else 1
        order = range(len(mats))
    sums = [[0.0] * width for _ in range(num_segments)]
    for z, segment in enumerate(segment_ids.tolist()):
        for col in range(width):
            value_column = col // math.prod(ranks) if kron else 0
            partial = float(value_rows[z, value_column])
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
        mats = [rng.standard_normal((9, rank)) for rank in (3, 2, 4)]
        rows = [rng.integers(0, 9, size=50) for _ in mats]
        kron = (values[:, 0], mats, rows, segment_ids, 7)
        with block_budget(block_bytes):
            actual = VEC.segment_reduce(values, segment_ids, 7)
            kron_sums = VEC.kron_segment_sums(*kron)
        assert_same_bits(actual, segment_reduce(values, segment_ids, 7))
        assert_same_bits(kron_sums, REF.kron_segment_sums(*kron))

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
        # 60k non-zeros at rank 32 span many blocks of the module's own
        # budget, and the 20k-element segment covers several whole blocks.
        rng = np.random.default_rng(2)
        segment_ids = np.sort(np.r_[np.full(20_000, 700), rng.integers(0, 1_500, size=40_000)])
        assert 20_000 > 3 * (vectorized.BLOCK_BYTES // (8 * 32))
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

    @BLOCK_BUDGETS
    @SETTINGS
    @given(segmented_values(), PRODUCT_RANKS)
    def test_kron_identity_over_fiber_rows(self, block_bytes, case, ranks):
        """2-D values (a row per stream entry, width 1-6, with ``-0.0``
        entries and segments) against the reference and a scalar loop."""
        args = fiber_row_inputs(case, ranks, seed=13)
        with block_budget(block_bytes):
            actual = VEC.kron_segment_sums(*args)
        expected = REF.kron_segment_sums(*args)
        assert_same_bits(actual, expected)
        assert_same_bits(expected, oracle_segment_sums(*args, kron=True))

    def test_folded_stage_rounds_before_it_adds(self):
        """The folded Kronecker stage is summed as ``y + a * x`` with ``a * x``
        rounded first, as the reference rounds its products: here the
        rounded sum is 2**-29 and a fused multiply-add's 2**-29 + 2**-60."""
        eps = 2.0**-30
        values = np.array([-1.0, 1.0 + eps])
        mats = [np.array([[1.0], [1.0 + eps]]), np.ones((2, 1))]
        rows = [np.array([0, 1]), np.array([0, 1])]
        segment_ids = np.array([0, 0])
        expected = REF.kron_segment_sums(values, mats, rows, segment_ids, 1)
        assert expected[0, 0] == 2.0**-29
        actual = VEC.kron_segment_sums(values, mats, rows, segment_ids, 1)
        assert actual.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), (
            f"got {float(actual[0, 0]).hex()}, want 2**-29: SciPy's CSR kernel (csr_matvecs) "
            "fused a * x into its sum (a fused multiply-add), so the vectorized "
            "backend's Kronecker fold no longer has the reference's bits"
        )

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


class TestCarriedSegments:
    """Fixed blocks: a segment that crosses a block boundary carries its
    running sum into the next block, with the unsplit sum's bits."""

    # Segment 1 sums to 1.0 in stream order and to 11.0 exactly; segment 2
    # is empty; segment 3 is all -0.0, which sums to +0.0.
    SEGMENT_IDS = np.repeat([0, 1, 3, 4], [2, 31, 7, 3])
    SEGMENT_VALUES = {
        0: [0.5, -2.0],
        1: np.resize([1.0, 1e16, -1e16], 31),
        3: [-0.0] * 7,
        4: [3.0, 1e16, -3.0],
    }
    #: Powers of two, so every partial is exact and keeps its value's sign.
    FACTOR_ENTRIES = (0.25, 0.5, 1.0, 2.0, 4.0)

    def _inputs(self, ranks):
        values = np.concatenate([self.SEGMENT_VALUES[s] for s in (0, 1, 3, 4)])
        rng = np.random.default_rng(4)
        mats = [rng.choice(self.FACTOR_ENTRIES, size=(6, rank)) for rank in ranks]
        rows = [rng.integers(0, 6, size=values.size) for _ in ranks]
        return values, mats, rows, self.SEGMENT_IDS, 5

    def test_the_case_depends_on_the_association(self):
        values = self.SEGMENT_VALUES[1]
        sequential = 0.0
        for value in values:
            sequential += value
        assert sequential != math.fsum(values)

    @pytest.mark.parametrize("rows_per_block", [2, 5, 7])
    @pytest.mark.parametrize("ranks", [[], [3], [2, 3], [1, 3], [2, 1, 2], [3, 2, 1]], ids=str)
    def test_carried_sums_match_the_reference_and_the_oracle(self, rows_per_block, ranks):
        """Blocks of ``rows_per_block`` non-zeros: the Kronecker sums form
        the columns of every product mode but the first (whose factor
        entries are the CSR data, one group of rows per column), so their
        budget is ``rows_per_block`` rows of those."""
        values, mats, rows, segment_ids, num_segments = self._inputs(ranks)
        starts = np.flatnonzero(np.diff(segment_ids, prepend=-1))
        boundaries = np.arange(rows_per_block, segment_ids.size, rows_per_block)
        # Segment 1 spans at least three blocks, and the -0.0 segment
        # crosses a block boundary.
        assert np.count_nonzero((starts[1] < boundaries) & (boundaries < starts[2])) >= 2
        assert np.any((starts[2] < boundaries) & (boundaries < starts[3]))

        hadamard = (values, mats[:1] * len(ranks), rows)
        kron = (values, mats, rows)
        hadamard_width = ranks[0] if ranks else 1
        for primitive, products, inputs, kron_order, width in (
            (VEC.hadamard_segment_sums, REF.slice_products, hadamard, False, hadamard_width),
            (VEC.kron_segment_sums, REF.kron_products, kron, True, math.prod(ranks[1:])),
        ):
            expected = segment_reduce(products(*inputs), segment_ids, num_segments)
            oracle = oracle_segment_sums(*inputs, segment_ids, num_segments, kron=kron_order)
            assert_same_bits(expected, oracle)
            with block_budget(8 * width * rows_per_block):
                assert_same_bits(primitive(*inputs, segment_ids, num_segments), expected)

        oracle = oracle_segment_sums(values, [], [], segment_ids, num_segments, kron=False)
        with block_budget(8 * rows_per_block):
            sums = VEC.segment_reduce(values, segment_ids, num_segments)
            matrix_sums = VEC.segment_reduce(values[:, None], segment_ids, num_segments)
        assert_same_bits(sums, segment_reduce(values, segment_ids, num_segments))
        assert_same_bits(sums, oracle[:, 0])
        assert_same_bits(matrix_sums, oracle)
        assert not np.signbit(sums[3])

    def test_no_block_outgrows_the_budget(self, monkeypatch):
        """A segment longer than a block is cut, not given a longer block,
        and the Kronecker sums of ranks (8, 8) form eight columns a block:
        the first product mode's factor entries are the CSR data."""
        blocks = []
        blocked_sums = VectorizedBackend._blocked_sums

        def spy(self, products, width, *args, **kwargs):
            def counted(out, *stage_args):
                # The block's partials are `out`; its value stream comes next.
                blocks.append((len(stage_args[0]), out.shape[1]))
                return products(out, *stage_args)

            return blocked_sums(self, counted, width, *args, **kwargs)

        monkeypatch.setattr(VectorizedBackend, "_blocked_sums", spy)
        rng = np.random.default_rng(6)
        # Segment 3 is three blocks long at the widest block (eight columns).
        long_segment = 3 * (vectorized.BLOCK_BYTES // (8 * 8))
        segment_ids = np.sort(np.r_[np.full(long_segment, 3), rng.integers(0, 40, size=6_000)])
        values = rng.standard_normal(segment_ids.size)
        mats = [rng.standard_normal((30, 8)) for _ in range(2)]
        rows = [rng.integers(0, 30, size=segment_ids.size) for _ in mats]
        args = (values, mats, rows, segment_ids, 40)
        for actual, expected, width in (
            (VEC.hadamard_segment_sums, REF.hadamard_segment_sums, 8),
            (VEC.kron_segment_sums, REF.kron_segment_sums, 8),
            (VEC.segment_reduce, segment_reduce, 1),
        ):
            inputs = args if width > 1 else (values, segment_ids, 40)
            blocks.clear()
            assert_same_bits(actual(*inputs), expected(*inputs))
            assert {block_width for _rows, block_width in blocks} == {width}
            assert max(block_rows for block_rows, _width in blocks) <= (
                vectorized.BLOCK_BYTES // (8 * width)
            )

    def test_identity_sweep_tensor_carries_across_whole_blocks(self):
        """The wall-clock identity sweep's power-law tensor has a rank-8
        SpMTTKRP segment and an 8 x 8 column SpTTMc segment (whose blocks
        form 8 columns) that each cover a whole block of the module budget,
        with a carry in and out."""
        from repro.bench.wallclock import _carry_tensor

        tensor = _carry_tensor()
        for operation, width in ((OperationKind.SPMTTKRP, 8), (OperationKind.SPTTMC, 8)):
            segment_ids = FCOOTensor.from_sparse(tensor, operation, 0).segment_ids
            per_block = vectorized.BLOCK_BYTES // (8 * width)
            block_starts = range(per_block, segment_ids.size - per_block, per_block)
            # Sorted ids: equal ids either side of a block mean one segment
            # runs through it.
            assert any(segment_ids[lo - 1] == segment_ids[lo + per_block] for lo in block_starts)


# ---------------------------------------------------------------------- #
# Kernel-level identity across topologies
# ---------------------------------------------------------------------- #
# The backend contract is per-topology: swapping the backend under a fixed
# execution shape must not change a single bit.  The topologies model time
# only (``driver.compute`` runs one canonical pass on every path), so a
# decomposition's numbers are also the same across them.
TOPOLOGIES = (
    {},
    {"streamed": True, "chunk_nnz": 16},
    {"cluster": ClusterSpec.homogeneous(TITAN_X, 2)},
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
        contexts = [
            ExecContext(backend=name, **topology)
            for topology in TOPOLOGIES
            for name in ("reference", "vectorized")
        ]
        runs = [cp_als(tensor, 4, max_iterations=2, seed=3, ctx=ctx) for ctx in contexts]
        tuckers = [
            tucker_hooi(tensor, (3, 3, 3), max_iterations=1, seed=3, ctx=ctx) for ctx in contexts
        ]
        for run in runs[1:]:
            for a, b in zip(
                [*run.factors, run.weights, np.array(run.fits)],
                [*runs[0].factors, runs[0].weights, np.array(runs[0].fits)],
            ):
                assert_same_bits(a, b)
        for run in tuckers[1:]:
            for a, b in zip(
                [*run.factors, run.core, np.array(run.fits)],
                [*tuckers[0].factors, tuckers[0].core, np.array(tuckers[0].fits)],
            ):
                assert_same_bits(a, b)


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
