"""Shared kernel plumbing: result containers and structural helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.cpusim.cpu import CpuProfile
from repro.formats.semisparse import SemiSparseTensor
from repro.gpusim.counters import KernelProfile

__all__ = [
    "SpTTMResult",
    "MTTKRPResult",
    "TTMcResult",
    "warp_group_imbalance",
    "chunked_imbalance",
    "validate_factor",
]

Profile = Union[KernelProfile, CpuProfile]


@dataclass
class SpTTMResult:
    """Output of an SpTTM kernel: the semi-sparse tensor plus its profile."""

    output: SemiSparseTensor
    profile: Profile

    @property
    def estimated_time_s(self) -> float:
        """Estimated execution time of the kernel on its target device."""
        return self.profile.estimated_time_s


@dataclass
class MTTKRPResult:
    """Output of an MTTKRP kernel: the dense factor update plus its profile."""

    output: np.ndarray
    profile: Profile

    @property
    def estimated_time_s(self) -> float:
        """Estimated execution time of the kernel on its target device."""
        return self.profile.estimated_time_s


@dataclass
class TTMcResult:
    """Output of a TTMc kernel: the unfolded result matrix plus its profile."""

    output: np.ndarray
    profile: Profile

    @property
    def estimated_time_s(self) -> float:
        """Estimated execution time of the kernel on its target device."""
        return self.profile.estimated_time_s


def warp_group_imbalance(work_per_unit: np.ndarray, group_size: int) -> float:
    """Load-imbalance factor of statically assigning work units to groups.

    Work units (e.g. fibers) are assigned to execution groups (e.g. warps)
    ``group_size`` at a time in their natural order; a group is busy for as
    long as its largest unit.  The returned factor is the ratio of the total
    *occupied* lane-time to the total useful work — exactly the slowdown a
    SIMT processor pays when lanes of a warp finish at different times.
    Returns 1.0 for perfectly uniform work.
    """
    work = np.asarray(work_per_unit, dtype=np.float64)
    if group_size <= 0:
        raise ValueError(f"group_size must be positive, got {group_size}")
    if work.size == 0:
        return 1.0
    if (work < 0).any():
        raise ValueError("work_per_unit entries must be non-negative")
    total = work.sum()
    if total == 0:
        return 1.0
    n_groups = -(-work.size // group_size)
    padded = np.zeros(n_groups * group_size, dtype=np.float64)
    padded[: work.size] = work
    groups = padded.reshape(n_groups, group_size)
    occupied = groups.max(axis=1).sum() * group_size
    return float(max(occupied / total, 1.0))


def chunked_imbalance(work_per_unit: np.ndarray, num_chunks: int) -> float:
    """Load-imbalance factor of static OpenMP-style chunking.

    Work units are split into ``num_chunks`` contiguous chunks (one per
    thread) in their natural order; each thread's time is the *sum* of its
    chunk (sequential execution, unlike the SIMT lockstep of
    :func:`warp_group_imbalance`) and the whole loop finishes when the
    busiest thread does.  Returns ``max(chunk sums) / mean(chunk sums)``.
    """
    work = np.asarray(work_per_unit, dtype=np.float64)
    if num_chunks <= 0:
        raise ValueError(f"num_chunks must be positive, got {num_chunks}")
    if work.size == 0:
        return 1.0
    if (work < 0).any():
        raise ValueError("work_per_unit entries must be non-negative")
    total = work.sum()
    if total == 0:
        return 1.0
    num_chunks = min(num_chunks, work.size)
    boundaries = np.linspace(0, work.size, num_chunks + 1).astype(np.int64)
    cumulative = np.concatenate(([0.0], np.cumsum(work)))
    chunk_sums = cumulative[boundaries[1:]] - cumulative[boundaries[:-1]]
    mean = total / num_chunks
    return float(max(chunk_sums.max() / mean, 1.0))


def validate_factor(matrix: np.ndarray, expected_rows: int, name: str) -> np.ndarray:
    """Check a dense factor matrix and return it as float64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {matrix.shape}")
    if matrix.shape[0] != expected_rows:
        raise ValueError(
            f"{name} must have {expected_rows} rows to match the tensor mode, "
            f"got {matrix.shape[0]}"
        )
    return matrix
