"""Unified classification of tensor modes per operation (paper Table I).

The paper's central observation is that SpTTM, SpMTTKRP and SpTTMc share the
same computational skeleton once the tensor modes are classified into

* **product modes** — the modes along which the tensor is multiplied by a
  dense factor matrix; their indices select rows of the factor matrices and
  must be stored explicitly.
* **index modes** — the remaining modes; a change in their values marks the
  start of a new fiber (SpTTM) or slice (SpMTTKRP/SpTTMc) and therefore a
  new reduction segment.  Only the *changes* need to be stored (the F-COO
  bit-flag).

This module owns that classification so that the F-COO encoder and the
unified kernels never hard-code an operation-specific special case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.util.validation import check_mode, check_positive_int

__all__ = ["OperationKind", "ModeRoles", "mode_roles"]


class OperationKind(enum.Enum):
    """Sparse tensor operations covered by the unified approach (Table I)."""

    SPTTM = "spttm"
    """Sparse tensor-times-matrix on one mode (paper Equation 3)."""

    SPMTTKRP = "spmttkrp"
    """Sparse matricized tensor times Khatri-Rao product (paper Equation 5/6)."""

    SPTTMC = "spttmc"
    """Sparse tensor-times-matrix chain, the Tucker/HOOI kernel (Equation 4)."""

    @classmethod
    def coerce(cls, value: "OperationKind | str") -> "OperationKind":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown operation {value!r}; expected one of: {valid}") from exc


@dataclass(frozen=True)
class ModeRoles:
    """Role assignment of every tensor mode for one operation instance.

    Attributes
    ----------
    operation:
        Which sparse tensor operation this classification is for.
    mode:
        The operation's target mode (0-based): the TTM product mode, or the
        MTTKRP/TTMc output mode.
    order:
        Tensor order.
    product_modes:
        Modes multiplied against dense factor matrices (indices stored
        explicitly in F-COO).
    index_modes:
        Modes whose value changes delimit reduction segments (compressed to
        the bit-flag in F-COO).
    """

    operation: OperationKind
    mode: int
    order: int
    product_modes: Tuple[int, ...]
    index_modes: Tuple[int, ...]


def mode_roles(operation: "OperationKind | str", mode: int, order: int) -> ModeRoles:
    """Classify tensor modes for ``operation`` targeting ``mode`` (Table I).

    Parameters
    ----------
    operation:
        One of :class:`OperationKind` (or its string value).
    mode:
        0-based target mode.  For SpTTM this is the mode the dense matrix
        multiplies (the paper's "SpTTM on mode-3" is ``mode=2`` here); for
        SpMTTKRP/SpTTMc it is the output mode (the paper's "on mode-1" is
        ``mode=0``).
    order:
        Tensor order; must be at least 2 for SpTTM and at least 2 for the
        Khatri-Rao/chain operations (3 is the typical case).
    """
    operation = OperationKind.coerce(operation)
    order = check_positive_int(order, "order")
    if order < 2:
        raise ValueError(f"tensor order must be at least 2 for {operation.value}, got {order}")
    mode = check_mode(mode, order)
    all_modes = tuple(range(order))
    others = tuple(m for m in all_modes if m != mode)

    if operation is OperationKind.SPTTM:
        product_modes: Tuple[int, ...] = (mode,)
        index_modes = others
    elif operation in (OperationKind.SPMTTKRP, OperationKind.SPTTMC):
        product_modes = others
        index_modes = (mode,)
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(f"unhandled operation {operation}")

    return ModeRoles(
        operation=operation,
        mode=mode,
        order=order,
        product_modes=product_modes,
        index_modes=index_modes,
    )
