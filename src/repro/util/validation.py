"""Argument validation helpers used across the library.

All validators raise :class:`ValueError` or :class:`TypeError` with messages
that name the offending argument, so kernel- and format-level code can stay
free of repetitive checking boilerplate.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "check_shape",
    "check_mode",
    "check_rank",
    "check_positive_int",
    "check_non_negative_int",
]


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``.

    Accepts NumPy integer scalars as well as Python ints; rejects bools.
    """
    if type(value) is not int:  # a plain int, the hot case, needs no conversion
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it as ``int``.

    Like :func:`check_positive_int` but admits zero (e.g. an empty
    workload is a legitimate serving run).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_shape(shape: Sequence[int], *, min_order: int = 1) -> Tuple[int, ...]:
    """Validate a tensor shape and return it as a tuple of positive ints.

    Parameters
    ----------
    shape:
        Any sequence of dimension sizes.
    min_order:
        Minimum number of modes the shape must have.
    """
    try:
        dims = tuple(int(s) for s in shape)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"shape must be a sequence of integers, got {shape!r}") from exc
    if len(dims) < min_order:
        raise ValueError(
            f"tensor order must be at least {min_order}, got shape {dims} of order {len(dims)}"
        )
    for i, s in enumerate(dims):
        if s <= 0:
            raise ValueError(f"shape[{i}] must be positive, got {s}")
    return dims


def check_mode(mode: int, order: int, *, name: str = "mode") -> int:
    """Validate a 0-based mode index against a tensor order.

    The public API of this library uses 0-based modes (mode 0 is the paper's
    mode-1).  Negative modes are supported with NumPy semantics.
    """
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(mode).__name__}")
    mode = int(mode)
    if mode < 0:
        mode += order
    if not 0 <= mode < order:
        raise ValueError(f"{name} must be in [0, {order}), got {mode}")
    return mode


def check_rank(rank: int, *, name: str = "rank") -> int:
    """Validate a decomposition rank (number of factor-matrix columns)."""
    return check_positive_int(rank, name)

