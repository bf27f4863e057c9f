"""Global-memory coalescing and read-only data-cache models.

Sparse tensor kernels on GPUs are memory-bound (paper Section IV-D); what
separates a good implementation from a bad one is almost entirely *how many
bytes actually move* across the memory system:

* **Coalescing** — consecutive threads of a warp reading consecutive
  addresses are serviced by one 128-byte transaction; strided or random
  accesses waste most of each transaction.  ParTI's rank-dependent 2-D
  thread blocks produce strided factor accesses, the unified layout produces
  unit-stride ones; this difference drives the rank-behaviour experiment
  (Figure 8).
* **Read-only data cache** — the unified kernels bind the dense factor
  matrices to the read-only (texture) cache.  The hit rate depends on how
  concentrated the product-mode indices are: the dense ``brainq`` tensor
  reuses a small set of factor rows (high hit rate) while the hyper-sparse
  ``nell1`` scatters accesses over millions of rows (low hit rate) — this is
  the paper's explanation for the dataset-dependent speedups (Section V-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.gpusim.device import DeviceSpec

__all__ = [
    "AccessPattern",
    "coalesced_traffic_bytes",
    "count_distinct_rows",
    "readonly_cache_traffic",
    "readonly_cache_traffic_from_counts",
    "CacheTraffic",
]


#: Row range per access up to which :func:`count_distinct_rows` counts
#: distinct rows with a mark per row instead of a sort.  On modes of 10^5 to
#: 10^6 rows the two cost the same between 512 and 1,024 rows per access
#: (NumPy 2.4, one Xeon core).
_MARKED_ROWS_PER_ACCESS = 512


class AccessPattern(enum.Enum):
    """How the threads of a warp address global memory for one operand."""

    COALESCED = "coalesced"
    """Consecutive threads touch consecutive elements (unit stride)."""

    STRIDED = "strided"
    """Constant stride larger than one element between consecutive threads."""

    RANDOM = "random"
    """Data-dependent gather: each thread's address is unrelated to its
    neighbours' (e.g. factor-matrix rows selected by sparse indices)."""


def coalesced_traffic_bytes(
    num_accesses: Union[int, float],
    access_bytes: int,
    pattern: AccessPattern,
    device: DeviceSpec,
    *,
    stride_elements: float = 1.0,
    contiguous_run_bytes: Optional[float] = None,
) -> float:
    """Effective bytes moved for ``num_accesses`` accesses of ``access_bytes``.

    Parameters
    ----------
    num_accesses:
        Number of individual (per-thread) accesses.
    access_bytes:
        Size of each access in bytes.
    pattern:
        Warp-level access pattern.
    device:
        Device whose transaction size applies.
    stride_elements:
        For :attr:`AccessPattern.STRIDED`, the stride between consecutive
        threads in units of ``access_bytes``.
    contiguous_run_bytes:
        For :attr:`AccessPattern.RANDOM`, the number of *consecutive* bytes
        each thread reads at the random location (e.g. a whole factor row).
        Long runs amortise the transaction waste.

    Returns
    -------
    float
        Bytes the memory system actually transfers (``>=`` the useful bytes).
    """
    if num_accesses < 0:
        raise ValueError(f"num_accesses must be non-negative, got {num_accesses}")
    if access_bytes <= 0:
        raise ValueError(f"access_bytes must be positive, got {access_bytes}")
    useful = float(num_accesses) * access_bytes
    txn = float(device.memory_transaction_bytes)

    if pattern is AccessPattern.COALESCED:
        return useful
    if pattern is AccessPattern.STRIDED:
        if stride_elements < 1.0:
            raise ValueError(f"stride_elements must be >= 1, got {stride_elements}")
        # A warp of W threads with stride S (elements) touches W*S elements'
        # worth of lines but only uses W of them: waste factor ~= min(S, line/elem).
        waste = min(stride_elements, txn / access_bytes)
        return useful * max(waste, 1.0)
    if pattern is AccessPattern.RANDOM:
        run = float(contiguous_run_bytes) if contiguous_run_bytes else float(access_bytes)
        if run <= 0:
            raise ValueError(f"contiguous_run_bytes must be positive, got {run}")
        # Each random run is serviced at 32-byte sector granularity (the
        # minimum DRAM burst on Maxwell-class parts): a run is rounded up to
        # whole sectors, so short gathers waste most of a sector while long
        # runs amortise the waste away.
        sector = min(txn, 32.0)
        runs = float(num_accesses) * access_bytes / run
        bytes_per_run = np.ceil(run / sector) * sector
        return runs * bytes_per_run
    raise ValueError(f"unknown access pattern {pattern!r}")  # pragma: no cover


@dataclass(frozen=True)
class CacheTraffic:
    """Outcome of the read-only cache model for one operand stream.

    Attributes
    ----------
    accesses:
        Number of row accesses issued by the kernel.
    hits / misses:
        Estimated split of those accesses.
    hit_rate:
        ``hits / accesses`` (0 when there are no accesses).
    dram_bytes:
        Effective global-memory traffic generated by the misses.
    """

    accesses: float
    hits: float
    misses: float
    dram_bytes: float

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def count_distinct_rows(row_indices: np.ndarray) -> int:
    """Distinct entries of a non-empty stream of non-negative row numbers.

    Counted exactly, on one native-integer copy of the stream.  Over at
    most half as many rows as accesses, one ``bincount`` pass is cheapest;
    up to :data:`_MARKED_ROWS_PER_ACCESS` rows per access, a one-byte mark
    per row (no larger than the factor matrix the kernel gathers from)
    costs O(accesses + rows); a sort is cheaper only on a short stream over
    a wide mode, such as a small streamed chunk of a hyper-sparse tensor.
    """
    row_indices = np.asarray(row_indices).astype(np.intp, copy=False)
    rows = int(row_indices.max()) + 1
    if 2 * rows <= row_indices.size:
        return int(np.count_nonzero(np.bincount(row_indices)))
    if rows <= _MARKED_ROWS_PER_ACCESS * row_indices.size:
        touched = np.zeros(rows, dtype=bool)
        touched[row_indices] = True
        return int(np.count_nonzero(touched))
    return int(np.unique(row_indices).size)


def readonly_cache_traffic(
    row_indices: np.ndarray,
    row_bytes: float,
    device: DeviceSpec,
    *,
    cache_bytes: Optional[float] = None,
) -> CacheTraffic:
    """Model factor-matrix reads through the read-only data cache.

    The kernel issues one row read per entry of ``row_indices`` (the
    product-mode index stream, non-negative row numbers): count its
    distinct rows, then price with :func:`readonly_cache_traffic_from_counts`.
    """
    row_indices = np.asarray(row_indices)
    distinct = count_distinct_rows(row_indices) if row_indices.size else 0
    return readonly_cache_traffic_from_counts(
        row_indices.size, distinct, row_bytes, device, cache_bytes=cache_bytes
    )


def readonly_cache_traffic_from_counts(
    accesses: int,
    distinct_rows: int,
    row_bytes: float,
    device: DeviceSpec,
    *,
    cache_bytes: Optional[float] = None,
) -> CacheTraffic:
    """Price ``accesses`` row reads of ``distinct_rows`` rows through the
    read-only data cache.

    The model charges:

    * one compulsory miss per *distinct* row (its first touch), and
    * capacity misses for the remaining accesses with probability
      ``1 - cache_capacity / working_set`` when the working set (distinct
      rows × row bytes) exceeds the cache capacity — a standard
      random-replacement approximation that is exact in the two limits the
      datasets actually exercise (working set ≪ cache: everything after the
      first touch hits; working set ≫ cache: essentially every access goes
      to DRAM).

    Misses transfer whole rows, rounded up to the transaction size.
    """
    if row_bytes <= 0:
        raise ValueError(f"row_bytes must be positive, got {row_bytes}")
    accesses = float(accesses)
    if accesses == 0:
        return CacheTraffic(accesses=0.0, hits=0.0, misses=0.0, dram_bytes=0.0)
    distinct = float(distinct_rows)
    capacity = float(cache_bytes) if cache_bytes is not None else float(
        device.readonly_cache_bytes_total
    )
    working_set = distinct * row_bytes

    compulsory = distinct
    remaining = accesses - compulsory
    if working_set <= capacity:
        capacity_misses = 0.0
    else:
        miss_prob = 1.0 - capacity / working_set
        capacity_misses = remaining * miss_prob
    misses = compulsory + capacity_misses
    hits = accesses - misses

    sector = min(float(device.memory_transaction_bytes), 32.0)
    bytes_per_miss = np.ceil(row_bytes / sector) * sector
    return CacheTraffic(
        accesses=accesses,
        hits=hits,
        misses=misses,
        dram_bytes=misses * bytes_per_miss,
    )
