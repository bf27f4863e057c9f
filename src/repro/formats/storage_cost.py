"""Analytic storage-cost models (paper Table II).

Table II of the paper reports the per-non-zero storage cost of a third-order
tensor in COO versus F-COO, assuming 32-bit integer indices and
single-precision values:

* COO: ``16 × nnz`` bytes — three index arrays plus one value array.
* F-COO for SpTTM on one mode: ``(8 + 1/8 + 1/(8·threadlen)) × nnz`` bytes —
  one product-mode index array, the values, the packed bit-flag (1 bit per
  non-zero) and the packed start-flag (1 bit per partition of ``threadlen``
  non-zeros).
* F-COO for SpMTTKRP on one mode: ``(12 + 1/8 + 1/(8·threadlen)) × nnz`` —
  two product-mode index arrays instead of one.

The functions below generalise those formulas to arbitrary order and are
checked against the sizes actually measured on
:class:`~repro.formats.fcoo.FCOOTensor` instances by the test suite and the
Table II benchmark.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.formats.mode_encoding import OperationKind, mode_roles
from repro.util.validation import check_positive_int

__all__ = ["coo_storage_bytes", "fcoo_storage_bytes"]

#: Byte widths assumed by the paper's Table II.
DEFAULT_INDEX_BYTES = 4
DEFAULT_VALUE_BYTES = 4


def coo_storage_bytes(
    nnz: int,
    order: int,
    *,
    index_bytes: int = DEFAULT_INDEX_BYTES,
    value_bytes: int = DEFAULT_VALUE_BYTES,
) -> float:
    """Bytes needed to store ``nnz`` non-zeros of an ``order``-way tensor in COO.

    ``order`` index arrays plus one value array; for a third-order tensor with
    the default widths this is the paper's ``16 × nnz``.
    """
    nnz = check_positive_int(nnz, "nnz") if nnz else 0
    order = check_positive_int(order, "order")
    return float(nnz) * (order * index_bytes + value_bytes)


def fcoo_storage_bytes(
    nnz: int,
    order: int,
    operation: Union[OperationKind, str],
    mode: int,
    *,
    threadlen: Optional[int] = None,
    index_bytes: int = DEFAULT_INDEX_BYTES,
    value_bytes: int = DEFAULT_VALUE_BYTES,
) -> float:
    """Bytes needed to store the tensor in F-COO for one operation/mode.

    Implements the Table II formulas generalised to arbitrary order: one
    index array per *product mode*, the value array, ``nnz/8`` bytes of
    bit-flag, and — when ``threadlen`` is given — ``nnz/(8·threadlen)`` bytes
    of start-flag.
    """
    nnz = check_positive_int(nnz, "nnz") if nnz else 0
    roles = mode_roles(operation, mode, order)
    num_product = len(roles.product_modes)
    per_nnz = num_product * index_bytes + value_bytes + 1.0 / 8.0
    if threadlen is not None:
        threadlen = check_positive_int(threadlen, "threadlen")
        per_nnz += 1.0 / (8.0 * threadlen)
    return float(nnz) * per_nnz
