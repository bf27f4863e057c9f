"""SPLATT's CSF-based CPU MTTKRP (Smith et al., IPDPS 2015).

SPLATT is the strongest CPU baseline in the paper: it stores the tensor as a
compressed sparse fiber (CSF) tree and exploits fiber-level factorisation to
save floating-point work.  For the MTTKRP whose output mode is the tree's
root the classic two-level loop applies (third-order, root ``i``):

    for each root slice i (parallel across threads):
        for each fiber (i, j):
            tmp(:)   = Σ_k  X(i, j, k) · C(k, :)        # leaf accumulation
            M(i, :) += tmp(:) ∗ B(j, :)                  # fiber combination

which performs ``2·R·(nnz + nfibers)`` FLOPs instead of the ``~4·R·nnz`` of
the COO formulation.  When the requested output mode is *not* the tree root
SPLATT walks the same tree but loses the factorisation benefit for the lower
levels and — more importantly for "oddly shaped" tensors like brainq — its
outer parallel loop is still over root slices, whose count and balance now
have nothing to do with the output mode.  This is the mode sensitivity
Figure 7(b) shows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cpusim.cpu import CPU_I7_5820K, CpuCounters, CpuProfile, CpuSpec, cpu_profile
from repro.formats.csf import CSFTensor
from repro.gpusim.device import TITAN_X
from repro.gpusim.memory import readonly_cache_traffic
from repro.kernels.common import MTTKRPResult, chunked_imbalance, validate_factor
from repro.kernels.reference.coo_reference import reference_mttkrp
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode

__all__ = ["splatt_mttkrp", "splatt_profile", "splatt_csf_mode_order"]


def splatt_csf_mode_order(tensor: SparseTensor, root_mode: int) -> tuple:
    """SPLATT's level ordering: the root mode first, then the others by size.

    SPLATT sorts the non-root levels so the shortest modes sit near the root,
    which maximises fiber compression.
    """
    root_mode = check_mode(root_mode, tensor.order)
    others = sorted(
        (m for m in range(tensor.order) if m != root_mode),
        key=lambda m: tensor.shape[m],
    )
    return (root_mode, *others)


def splatt_mttkrp(
    tensor: SparseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    cpu: CpuSpec = CPU_I7_5820K,
    num_threads: Optional[int] = None,
    csf: Optional[CSFTensor] = None,
    csf_root_mode: Optional[int] = None,
) -> MTTKRPResult:
    """CSF-based MTTKRP on the multicore CPU model (the SPLATT baseline).

    Parameters
    ----------
    tensor:
        The sparse input tensor.
    factors:
        One dense factor per mode (the entry at ``mode`` is ignored).
    mode:
        Output mode.
    cpu, num_threads:
        CPU model and thread count (the paper uses 12 threads).
    csf:
        A pre-built CSF tree to reuse (SPLATT builds its trees once per
        tensor, not once per MTTKRP); when omitted a tree rooted at
        ``csf_root_mode`` (default: ``mode``) is built.
    csf_root_mode:
        Root mode of the tree when ``csf`` is not supplied.  CP-ALS reuses
        one tree for all three MTTKRPs, so modes other than the root pay the
        penalty described in the module docstring.
    """
    mode = check_mode(mode, tensor.order)
    order = tensor.order
    if len(factors) != order:
        raise ValueError(f"need one factor per mode ({order}), got {len(factors)}")
    mats = [
        validate_factor(factors[m], tensor.shape[m], f"factors[{m}]")
        for m in range(order)
        if m != mode
    ]
    profile = splatt_profile(
        tensor,
        mode,
        mats[0].shape[1],
        cpu=cpu,
        num_threads=num_threads,
        csf=csf,
        csf_root_mode=csf_root_mode,
    )
    # Numerical result (independent of the traversal order).
    return MTTKRPResult(output=reference_mttkrp(tensor, factors, mode), profile=profile)


def splatt_profile(
    tensor: SparseTensor,
    mode: int,
    rank: int,
    *,
    cpu: CpuSpec = CPU_I7_5820K,
    num_threads: Optional[int] = None,
    csf: Optional[CSFTensor] = None,
    csf_root_mode: Optional[int] = None,
) -> CpuProfile:
    """The modeled half of :func:`splatt_mttkrp`: SPLATT's counters and
    seconds for a rank-``rank`` MTTKRP on ``mode``, with no numeric work."""
    mode = check_mode(mode, tensor.order)
    order = tensor.order
    product_modes = [m for m in range(order) if m != mode]
    if csf is None:
        root = check_mode(csf_root_mode if csf_root_mode is not None else mode, order)
        csf = CSFTensor.from_sparse(tensor, splatt_csf_mode_order(tensor, root))
    root_mode = csf.mode_order[0]

    nnz = tensor.nnz
    threads = num_threads if num_threads is not None else cpu.threads
    num_root_slices = csf.level_size(0)
    # Work per root slice = leaves underneath it; drives the load balance of
    # the OpenMP loop over root slices.
    root_slice_nnz = tensor.slice_counts(root_mode)

    counters = CpuCounters()
    # CSF storage streamed once: fids of every level + fptr + values.
    counters.mem_read_bytes = float(csf.storage_bytes())
    operated_on_root = mode == root_mode

    if operated_on_root:
        # Fiber factorisation applies: one leaf pass + one fiber pass.
        num_fibers = csf.level_size(order - 2) if order >= 2 else nnz
        counters.flops = 2.0 * rank * (nnz + num_fibers)
        # SPLATT's inner loops are hand-tuned and mostly vectorised; charge a
        # light scalar overhead for the tree walk.
        counters.scalar_ops = 2.5 * rank * (nnz + num_fibers)
        leaf_mode = csf.mode_order[-1]
        counters.mem_read_bytes += _llc_factor_bytes(
            np.asarray(tensor.mode_indices(leaf_mode)), rank, cpu
        )
        # The fiber-level factor is read once per fiber (good locality).
        counters.mem_read_bytes += num_fibers * rank * 4.0
    else:
        # Non-root output mode: no factorisation benefit, every non-zero
        # multiplies all product-mode rows, and the accumulation targets are
        # scattered (per-thread buffers are used to avoid locks, which costs
        # an extra output-sized reduction).
        counters.flops = 2.0 * rank * nnz * max(len(product_modes), 1)
        # Without the factorisation the per-non-zero work doubles and the
        # scattered accumulation defeats vectorisation.
        counters.scalar_ops = 4.0 * rank * nnz
        for m in product_modes:
            counters.mem_read_bytes += _llc_factor_bytes(
                np.asarray(tensor.mode_indices(m)), rank, cpu
            )
        counters.mem_write_bytes += min(threads, cpu.threads) * tensor.shape[mode] * rank * 4.0

    counters.mem_write_bytes += tensor.shape[mode] * rank * 4.0
    counters.parallel_fraction = 0.97
    counters.used_threads = max(min(threads, num_root_slices), 1)
    counters.imbalance_factor = (
        chunked_imbalance(root_slice_nnz, threads) if num_root_slices else 1.0
    )

    return cpu_profile(f"splatt-mttkrp-mode{mode}", counters, cpu, num_threads=threads)


def _llc_factor_bytes(row_indices: np.ndarray, rank: int, cpu: CpuSpec) -> float:
    """DRAM bytes for factor-row gathers after last-level-cache reuse."""
    traffic = readonly_cache_traffic(
        row_indices, rank * 4.0, TITAN_X, cache_bytes=float(cpu.llc_bytes)
    )
    return traffic.dram_bytes
