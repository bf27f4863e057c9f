"""Decomposition-quality metrics computed without densifying the tensor.

CP-ALS monitors the *fit*

``fit = 1 - ||X - X̂|| / ||X||``

where ``X̂`` is the rank-R CP model.  For a sparse ``X`` the residual norm is
expanded as ``||X||² - 2·<X, X̂> + ||X̂||²`` so that only the model needs to be
evaluated at the non-zero coordinates:

* ``<X, X̂>`` sums, over the non-zeros, the value times the model value at
  that coordinate (a Khatri-Rao style product over the factor rows);
* ``||X̂||²`` has the closed form ``λᵀ (Π_m A_mᵀA_m) λ`` using only the
  ``R × R`` Gram matrices.

:func:`cp_fit` is the standalone evaluation, and the tests' oracle.  CP-ALS
itself makes no pass over the non-zeros for its fit: :func:`cp_sweep_fit`
reads ``<X, X̂>`` off the sweep's last MTTKRP, which already summed the
values against every other mode's factor.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.tensor.sparse import SparseTensor

__all__ = ["cp_inner_product", "cp_norm", "cp_fit", "cp_sweep_fit"]


def _check_factors(tensor: SparseTensor, factors: Sequence[np.ndarray]) -> list:
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    if len(mats) != tensor.order:
        raise ValueError(f"need one factor per mode ({tensor.order}), got {len(mats)}")
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"all factors must share one rank, got {sorted(ranks)}")
    for m, mat in enumerate(mats):
        if mat.shape[0] != tensor.shape[m]:
            raise ValueError(
                f"factor {m} has {mat.shape[0]} rows but tensor mode {m} has size "
                f"{tensor.shape[m]}"
            )
    return mats


def cp_inner_product(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    weights: Optional[np.ndarray] = None,
) -> float:
    """Inner product ``<X, X̂>`` between a sparse tensor and a CP model."""
    mats = _check_factors(tensor, factors)
    rank = mats[0].shape[1]
    if weights is None:
        weights = np.ones(rank, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if tensor.nnz == 0:
        return 0.0
    idx = np.asarray(tensor.indices)
    # Seeded with the first factor's rows rather than ones: 1.0 * x is x,
    # so the bits are those of the full product.
    model_rows = np.take(mats[0], idx[:, 0], axis=0)
    for m in range(1, len(mats)):
        model_rows *= np.take(mats[m], idx[:, m], axis=0)
    model_at_nnz = model_rows @ weights
    return float(np.dot(np.asarray(tensor.values), model_at_nnz))


def cp_norm(factors: Sequence[np.ndarray], weights: Optional[np.ndarray] = None) -> float:
    """Frobenius norm ``||X̂||`` of a CP model from its Gram matrices."""
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    if not mats:
        raise ValueError("at least one factor is required")
    rank = mats[0].shape[1]
    if any(mat.shape[1] != rank for mat in mats):
        raise ValueError("all factors must share one rank")
    if weights is None:
        weights = np.ones(rank, dtype=np.float64)
    return _gram_norm([mat.T @ mat for mat in mats], np.asarray(weights, dtype=np.float64))


def _gram_norm(grams: Sequence[np.ndarray], weights: np.ndarray) -> float:
    """``||X̂||`` from every mode's Gram matrix ``A_mᵀA_m``, in mode order."""
    rank = weights.shape[0]
    gram = np.ones((rank, rank), dtype=np.float64)
    for mode_gram in grams:
        gram *= mode_gram
    value = float(weights @ gram @ weights)
    # Guard against tiny negative values from floating-point cancellation.
    return float(np.sqrt(max(value, 0.0)))


def _fit(x_norm: float, inner: float, model_norm: float) -> float:
    residual_sq = max(x_norm**2 - 2.0 * inner + model_norm**2, 0.0)
    return 1.0 - float(np.sqrt(residual_sq)) / x_norm


def cp_fit(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    weights: Optional[np.ndarray] = None,
) -> float:
    """CP decomposition fit ``1 - ||X - X̂|| / ||X||`` (1 is a perfect model)."""
    x_norm = tensor.norm()
    if x_norm == 0.0:
        raise ValueError("cannot compute the fit of an all-zero tensor")
    inner = cp_inner_product(tensor, factors, weights)
    return _fit(x_norm, inner, cp_norm(factors, weights))


def cp_sweep_fit(
    x_norm: float,
    last_mttkrp: np.ndarray,
    last_factor: np.ndarray,
    weights: np.ndarray,
    grams: Sequence[np.ndarray],
) -> float:
    """The fit at the end of a CP-ALS sweep, with no pass over the non-zeros.

    ``last_mttkrp`` is the sweep's last MTTKRP output ``M``, over every
    other mode's updated factor, and ``last_factor`` / ``weights`` are the
    normalised factor and weights its update produced, so
    ``<X, X̂> = Σ_r λ_r Σ_i A[i, r] · M[i, r]``.  ``grams`` holds every
    mode's ``AᵀA`` in mode order: the products :func:`cp_norm` forms.
    ``x_norm`` must be the norm of the values the MTTKRP read; the model
    fits those values, so a norm of other values (float64 where the
    MTTKRP read float32) would put even an exact model's fit short of 1.
    """
    inner = float(weights @ np.einsum("ir,ir->r", last_factor, last_mttkrp))
    return _fit(x_norm, inner, _gram_norm(grams, weights))
