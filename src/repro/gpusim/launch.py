"""Kernel launch configurations and occupancy.

The unified kernels launch a two-dimensional *grid* of one-dimensional
thread blocks (paper Figure 4): the x dimension of the grid covers the
non-zero partitions (``ceil(nnz / (BLOCK_SIZE * threadlen))`` blocks), the
y dimension covers the factor-matrix columns (the rank).  ``threadlen`` is
the number of non-zeros processed by each thread; together with
``BLOCK_SIZE`` it is the tunable of Figure 5 / Table V.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.gpusim.device import DeviceSpec
from repro.util.validation import check_positive_int

__all__ = ["LaunchConfig"]


@dataclass(frozen=True)
class LaunchConfig:
    """A 2-D grid of 1-D thread blocks plus the per-thread work size.

    Attributes
    ----------
    block_size:
        Threads per (1-D) block — the paper's ``BLOCK_SIZE``.
    grid_x:
        Number of blocks along x (non-zero partitions).
    grid_y:
        Number of blocks along y (one per factor column group; the unified
        kernels use ``grid_y = rank``).
    threadlen:
        Non-zeros processed per thread — the paper's ``threadlen``.
    """

    block_size: int
    grid_x: int
    grid_y: int = 1
    threadlen: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.block_size, "block_size")
        check_positive_int(self.grid_x, "grid_x")
        check_positive_int(self.grid_y, "grid_y")
        check_positive_int(self.threadlen, "threadlen")

    # ------------------------------------------------------------------ #
    @classmethod
    def for_nnz(
        cls,
        nnz: int,
        rank: int,
        *,
        block_size: int = 128,
        threadlen: int = 8,
    ) -> "LaunchConfig":
        """Unified-kernel launch covering ``nnz`` non-zeros and ``rank`` columns.

        ``grid_x`` is the number of partitions of ``block_size * threadlen``
        non-zeros; ``grid_y`` equals the rank (paper Figure 4).
        """
        nnz = check_positive_int(nnz, "nnz")
        rank = check_positive_int(rank, "rank")
        per_block = block_size * threadlen
        grid_x = -(-nnz // per_block)
        return cls(block_size=block_size, grid_x=grid_x, grid_y=rank, threadlen=threadlen)

    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        """Total thread blocks in the grid."""
        return self.grid_x * self.grid_y

    @property
    def total_threads(self) -> int:
        """Total threads launched."""
        return self.num_blocks * self.block_size

    def validate_against(self, device: DeviceSpec) -> None:
        """Raise if this launch exceeds the device's per-block limits."""
        if self.block_size > device.max_threads_per_block:
            raise ValueError(
                f"block_size {self.block_size} exceeds device limit "
                f"{device.max_threads_per_block}"
            )
        if self.block_size % device.warp_size != 0:
            raise ValueError(
                f"block_size {self.block_size} must be a multiple of the warp size "
                f"({device.warp_size})"
            )

    def occupancy(self, device: DeviceSpec) -> float:
        """Fraction of the device's resident-thread capacity this launch can fill.

        Determined by the smaller of the thread- and block-count limits per
        SM, then capped by how many threads the grid actually provides.  A
        launch with very few blocks (e.g. ParTI's fiber-parallel SpTTM on a
        mode with 540 fibers) cannot fill the device regardless of block
        size — that is the under-utilisation the paper describes for
        Figure 7.
        """
        self.validate_against(device)
        blocks_per_sm_by_threads = device.max_threads_per_sm // self.block_size
        blocks_per_sm = min(device.max_blocks_per_sm, blocks_per_sm_by_threads)
        if blocks_per_sm == 0:
            return 0.0
        resident_threads_limit = blocks_per_sm * self.block_size * device.num_sms
        resident_threads_limit = min(resident_threads_limit, device.max_resident_threads)
        usable_threads = min(self.total_threads, resident_threads_limit)
        return usable_threads / device.max_resident_threads

    def utilization(self, device: DeviceSpec, active_threads: float) -> float:
        """Fraction of device lanes doing useful work.

        ``active_threads`` is the number of threads with real work (from the
        kernel's ledger); utilisation is additionally capped by occupancy.
        """
        if active_threads < 0:
            raise ValueError(f"active_threads must be non-negative, got {active_threads}")
        occ = self.occupancy(device)
        if occ == 0.0:
            return 0.0
        thread_fill = min(1.0, active_threads / device.max_resident_threads)
        return max(min(occ, thread_fill), 1e-6)
