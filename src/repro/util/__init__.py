"""Shared utilities: validation, RNG handling and text formatting.

These helpers are deliberately dependency-light so every other subpackage
(``tensor``, ``formats``, ``gpusim``, ``kernels``, ...) can rely on them
without creating import cycles.
"""

from repro.util.validation import (
    check_mode,
    check_positive_int,
    check_rank,
    check_shape,
)
from repro.util.rng import as_rng, spawn_rngs
from repro.util.formatting import (
    format_bytes,
    format_seconds,
    format_table,
)

__all__ = [
    "check_mode",
    "check_positive_int",
    "check_rank",
    "check_shape",
    "as_rng",
    "spawn_rngs",
    "format_bytes",
    "format_seconds",
    "format_table",
]
