"""The pluggable numeric-execution backend interface.

The unified kernels' *numeric cores* — the code that actually computes the
per-segment sums the GPU simulator prices — are expressed in terms of a
small set of primitives:

* :meth:`Backend.slice_products` — per-non-zero scaled Hadamard partials
  (SpMTTKRP / SpTTM);
* :meth:`Backend.kron_products` — per-non-zero Kronecker partials (SpTTMc,
  and HOOI's dimension tree over fiber rows);
* :meth:`Backend.segment_reduce` — sum the partials within each F-COO
  segment;
* the fused compositions :meth:`Backend.hadamard_segment_sums` /
  :meth:`Backend.kron_segment_sums`, which a backend may override to avoid
  materialising the full per-non-zero partial array;
* the dense-update helpers :meth:`Backend.gram`,
  :meth:`Backend.dense_hadamard` and :meth:`Backend.matmul` used by the
  CP-ALS / Tucker drivers.

The contract every backend must honour is **bit-identity**: for any input,
a backend's result must be bit-identical (equal shape, dtype and bit
patterns, signed zeros included) to the reference backend's
(:mod:`repro.backends.reference`, the strictly sequential ``np.add.at``
path).  All the repository's correctness claims are bit-identity properties
(chunked == sharded == multi-node == scheduled == recovered == one-shot),
so a backend that preserves bit-identity inherits every one of those proofs
for free.  ``tests/test_backends.py`` is the property harness;
``repro.bench.wallclock`` gates ``backend_identity_violation_count == 0``
in CI.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.gpusim.scan import validate_segment_inputs

__all__ = ["Backend"]


class Backend:
    """Abstract numeric-execution backend.

    Subclasses implement :meth:`segment_reduce`, :meth:`slice_products`,
    :meth:`kron_products` and :meth:`dense_hadamard`; the fused
    compositions and the dense helpers have default implementations here.
    """

    #: Registry name (``ExecContext(backend="<name>")`` / ``REPRO_BACKEND``).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Segment reduction
    # ------------------------------------------------------------------ #
    def segment_reduce(
        self,
        values: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Sum ``values`` within each segment, in the canonical order.

        Must be bit-identical to
        :func:`repro.gpusim.scan.segment_reduce` — the strictly
        sequential per-element accumulation order — for non-decreasing
        ``segment_ids`` (the F-COO encoding guarantees monotonicity; an
        implementation may fall back to the scatter-add for unsorted ids).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Per-non-zero products
    # ------------------------------------------------------------------ #
    def slice_products(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Per-non-zero scaled Hadamard partials ``v_i · Π_p M_p[r_p[i], :]``.

        ``mats`` are the product-mode factors and ``rows`` the matching
        per-non-zero row-index streams; the result has shape ``(nnz, R)``.
        The multiplication association must be left-to-right (value first,
        then each factor in product-mode order) — that is the order the
        reference path uses and what bit-identity is defined against.
        """
        raise NotImplementedError

    def kron_products(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Per-non-zero scaled Kronecker partials, shape ``(nnz, W · Π R_p)``.

        ``values`` is ``(nnz,)`` (``W = 1``) or ``(nnz, W)``: one row of
        ``W`` partial sums per stream entry, as a dimension tree's fibers
        carry them (see :func:`repro.algorithms.tucker.hooi_numeric_pass`).
        Built from the values outward, the last product mode first, so the
        value columns vary slowest and earlier modes fastest (the Kolda
        unfolding convention the oracles use).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Fused product + reduction (what the kernels' numeric cores call)
    # ------------------------------------------------------------------ #
    def hadamard_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Per-segment sums of the scaled Hadamard partials.

        Default: materialise :meth:`slice_products`, then
        :meth:`segment_reduce`.  Backends may fuse the two (compute each
        partial directly into its accumulator) as long as the per-element
        operation order — and hence the bits — is unchanged.
        """
        return self.segment_reduce(
            self.slice_products(values, mats, rows), segment_ids, num_segments
        )

    def kron_segment_sums(
        self,
        values: np.ndarray,
        mats: Sequence[np.ndarray],
        rows: Sequence[np.ndarray],
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> np.ndarray:
        """Per-segment sums of the scaled Kronecker partials
        (:meth:`kron_products`; ``values`` may be 1-D or 2-D)."""
        return self.segment_reduce(
            self.kron_products(values, mats, rows), segment_ids, num_segments
        )

    # ------------------------------------------------------------------ #
    # Dense updates (CP-ALS / Tucker drivers)
    # ------------------------------------------------------------------ #
    def gram(self, matrix: np.ndarray) -> np.ndarray:
        """The Gram matrix ``Mᵀ M`` of a factor."""
        return matrix.T @ matrix

    def dense_hadamard(self, grams: Sequence[np.ndarray], rank: int) -> np.ndarray:
        """Elementwise product of the Gram matrices (CP-ALS's ``V``)."""
        raise NotImplementedError

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product (Tucker's core projection)."""
        return a @ b

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validated(
        values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> tuple:
        """The shared input contract of :meth:`segment_reduce`."""
        return validate_segment_inputs(values, segment_ids, num_segments)

    @staticmethod
    def _as_streams(rows: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [np.asarray(r) for r in rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
