"""Tucker decomposition via HOOI, built on the unified SpTTMc kernel.

The paper notes (Section IV-D) that the same unified approach implements the
Tucker decomposition, whose bottleneck kernel is the tensor-times-matrix
chain (TTMc, Equation 4).  HOOI (Higher-Order Orthogonal Iteration)
alternates over the modes: for mode ``n`` it forms ``Y = X ×_{m≠n} U_mᵀ``
and takes the leading ``R_n`` left singular vectors of the mode-``n``
unfolding of ``Y`` as the new factor.  The core tensor is recovered at the
end as ``G = X ×_0 U_0ᵀ ×_1 U_1ᵀ ···``.

This module is the "extension" deliverable: it exercises
:func:`repro.kernels.unified.spttmc.unified_spttmc` inside a complete
algorithm and provides the fit metric used by its tests and example.  The
run's timeline, per-device ledger and node-loss recovery are the
:class:`~repro.algorithms.decomposition.DecompositionTimeline` that
:func:`~repro.algorithms.cp.cp_als` uses too; this module keeps HOOI's own
parts: the SVD, the core and the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.decomposition import (
    DecompositionTimeline,
    RecoveryRecord,
    kernel_context,
)
from repro.backends import get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import resolve_cluster
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import Timeline
from repro.kernels.unified.spttmc import unified_spttmc
from repro.tensor.sparse import SparseTensor
from repro.util.rng import SeedLike, as_rng
from repro.util.validation import check_positive_int

__all__ = ["TuckerResult", "tucker_hooi"]


@dataclass
class TuckerResult:
    """Result of a HOOI Tucker decomposition.

    Attributes
    ----------
    core:
        Dense core tensor of shape ``ranks``.
    factors:
        One orthonormal ``(I_m, R_m)`` factor per mode.
    fits:
        Fit value after each iteration.
    iterations:
        Iterations executed.
    ttmc_time_by_mode:
        Total simulated SpTTMc seconds per mode.
    preproc_time_s:
        Host seconds of preprocessing-cache *misses* (F-COO encodes) when
        the decomposition ran with a ``preproc_cache``; 0 otherwise.  Kept
        separate from the kernel times, mirroring how the CP engine
        charges encode misses into its setup rather than its iterations.
    device_time_by_device:
        Per-device busy seconds of the whole decomposition when the TTMcs
        ran in multi-GPU mode (``None`` otherwise).
    parallel_efficiency:
        Cluster busy fraction over the sharded TTMc makespans, in
        ``(0, 1]`` (``None`` for single-GPU runs).
    makespan_s:
        Modeled completion time of the kernel work on the unified
        timeline: each sweep's SpTTMc computes book the per-device compute
        engines and their all-reduces book the cluster's link/NIC
        resources, sequentially — HOOI's SVD consumes the *fully* reduced
        unfolding, so (unlike CP-ALS's solve) there is no dense phase to
        hide a collective behind.  Equals :attr:`total_time_s` up to float
        association.
    timeline:
        The :class:`~repro.gpusim.timeline.Timeline` those bookings landed
        on (queryable; Chrome-trace exportable).
    recoveries:
        One :class:`~repro.algorithms.decomposition.RecoveryRecord` per
        node loss survived mid-run (empty for failure-free runs).
    recovery_overhead_s:
        Total modeled re-staging seconds across all recoveries; the
        replayed sweeps' kernel cost lands in the ordinary ledgers.
    preemptions:
        Always empty for a standalone decomposition; present so
        :class:`TuckerResult` satisfies the
        :class:`~repro.context.TimedResult` protocol.
    """

    core: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]
    iterations: int
    ttmc_time_by_mode: Dict[int, float]
    device_time_by_device: Optional[Dict[int, float]] = None
    parallel_efficiency: Optional[float] = None
    preproc_time_s: float = 0.0
    makespan_s: Optional[float] = None
    timeline: Optional[Timeline] = None
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    recovery_overhead_s: float = 0.0
    preemptions: List[object] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """Total simulated kernel time."""
        return sum(self.ttmc_time_by_mode.values())

    @property
    def final_fit(self) -> Optional[float]:
        """Fit after the last iteration (``None`` when no iterations ran)."""
        return self.fits[-1] if self.fits else None


def tucker_hooi(
    tensor: SparseTensor,
    ranks: Sequence[int],
    *,
    device: DeviceSpec = TITAN_X,
    max_iterations: int = 5,
    tolerance: float = 1e-5,
    seed: SeedLike = 0,
    block_size: int = 128,
    threadlen: int = 8,
    ctx: Optional[ExecContext] = None,
) -> TuckerResult:
    """Tucker decomposition of a sparse tensor via HOOI on the unified kernels.

    Parameters
    ----------
    tensor:
        Sparse input tensor.
    ranks:
        Target multilinear rank, one entry per mode (each at most the mode
        size).
    device, block_size, threadlen:
        Passed to the unified SpTTMc kernel.
    max_iterations / tolerance:
        HOOI sweep limit and fit-improvement stopping threshold.
    seed:
        Seed for the random orthonormal initial factors.
    ctx:
        A :class:`~repro.context.ExecContext` supplying:

        * ``cluster`` / ``devices`` — multi-GPU controls: every SpTTMc
          shards across the cluster (see
          :func:`repro.kernels.unified.spttmc.unified_spttmc`), and the
          result reports per-device busy seconds and scaling efficiency.
        * ``streamed`` / ``num_streams`` / ``chunk_nnz`` and ``backend`` —
          forwarded to every SpTTMc, as :class:`~repro.algorithms.cp.UnifiedGPUEngine`
          forwards them to every MTTKRP.
        * ``preproc_cache`` — an optional
          :class:`~repro.serve.cache.PreprocCache` (any object with its
          ``encoding(tensor, operation, mode)`` protocol).  Without one,
          each mode is F-COO encoded once per run.  With one, every SpTTMc
          obtains its encoding through the cache — within one
          decomposition every lookup past a mode's first hits, and across
          serving jobs repeat tenants share the entries.
        * ``chaos`` — optional :class:`~repro.gpusim.cluster.NodeFailure`
          events to survive, with the same semantics as
          :func:`~repro.algorithms.cp.cp_als`: a failure fires at the first
          TTMc boundary whose modeled time reaches it while the run shards
          across a multi-node cluster containing the node; the interrupted
          sweep's partial work is discarded as wasted time, the lost shards
          re-stage onto the survivors, and the sweep replays from its
          sweep-boundary checkpoint.  HOOI draws randomness only at
          initialisation, and the sharded kernels are bit-identical across
          topologies, so the recovered core and factors equal the
          failure-free run's exactly.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    backend_impl = get_backend(ctx.backend)
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an all-zero tensor")
    order = tensor.order
    ranks = [check_positive_int(r, f"ranks[{i}]") for i, r in enumerate(ranks)]
    if len(ranks) != order:
        raise ValueError(f"need one rank per mode ({order}), got {len(ranks)}")
    for m, r in enumerate(ranks):
        if r > tensor.shape[m]:
            raise ValueError(
                f"ranks[{m}]={r} exceeds the mode size {tensor.shape[m]}"
            )
    max_iterations = check_positive_int(max_iterations, "max_iterations")

    rng = as_rng(seed)
    factors: List[np.ndarray] = []
    for m in range(order):
        gaussian = rng.standard_normal((tensor.shape[m], ranks[m]))
        q, _ = np.linalg.qr(gaussian)
        factors.append(q[:, : ranks[m]])

    x_norm = tensor.norm()
    ttmc_time_by_mode: Dict[int, float] = {m: 0.0 for m in range(order)}
    fits: List[float] = []
    previous_fit = -np.inf
    core_unfolded = np.zeros((ranks[0], int(np.prod(ranks[1:]))), dtype=np.float64)

    device, cluster = resolve_cluster(device, ctx.cluster, ctx.devices)
    # The run's timeline, busy ledger and node-loss recovery.  HOOI is
    # strictly sequential on the timeline — every SVD needs the fully
    # reduced unfolding — so the makespan equals the serial ledger sum.
    run = DecompositionTimeline(cluster, ctx.chaos)
    cache = ctx.preproc_cache
    encodings: Dict[int, FCOOTensor] = {}
    preproc_time = 0.0

    iteration = 0
    while iteration < max_iterations:
        # Sweep-boundary checkpoint: the factors are the whole mutable
        # numeric state (HOOI draws randomness only at initialisation), so
        # replaying from here on any topology reproduces the sweep exactly.
        checkpoint_factors = [f.copy() for f in factors]
        # One SpTTMc per mode updates the factors; a final mode-0 SpTTMc
        # projects onto the mode-0 factor for the core.
        for step, mode in enumerate([*range(order), 0]):
            if cache is not None:
                encodings[mode], _hit, cost_s = cache.encoding(
                    tensor, OperationKind.SPTTMC, mode
                )
                preproc_time += cost_s
            elif mode not in encodings:
                encodings[mode] = FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, mode)
            result = unified_spttmc(
                encodings[mode],
                factors,
                mode,
                device=device,
                block_size=block_size,
                threadlen=threadlen,
                ctx=kernel_context(ctx, run.cluster),
            )
            ttmc_time_by_mode[mode] += result.estimated_time_s
            run.book(result.profile, f"spttmc:mode{mode}")
            failure = run.due_failure()
            if failure is not None:
                # The interrupted SpTTMc's bookings stay as wasted work.
                # Modes not encoded yet are encoded here, outside any
                # cache: recovery makes no cache lookups.
                for m in set(range(order)) - set(encodings):
                    encodings[m] = FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, m)
                resident = [(encodings[m], threadlen) for m in range(order)]
                run.recover(failure, resident, iteration=iteration, mode=mode)
                factors = [f.copy() for f in checkpoint_factors]
                break
            if step < order:
                # New factor: leading left singular vectors of
                # Y = (I_mode, prod_{m != mode} R_m).
                u, _s, _vt = np.linalg.svd(result.output, full_matrices=False)
                factors[mode] = u[:, : ranks[mode]]
            else:
                # Core in mode-0 unfolded form.
                core_unfolded = backend_impl.matmul(factors[0].T, result.output)
        else:  # the sweep completed; a node loss breaks out to replay it
            core_norm = float(np.linalg.norm(core_unfolded))
            # For orthonormal factors ||X - X̂||² = ||X||² - ||G||².
            residual_sq = max(x_norm**2 - core_norm**2, 0.0)
            fit = 1.0 - float(np.sqrt(residual_sq)) / x_norm
            fits.append(fit)
            iteration += 1
            if abs(fit - previous_fit) < tolerance:
                break
            previous_fit = fit

    return TuckerResult(
        core=_fold_core(core_unfolded, ranks),
        factors=factors,
        fits=fits,
        iterations=iteration,
        ttmc_time_by_mode=ttmc_time_by_mode,
        preproc_time_s=preproc_time,
        **run.finish(ctx.metrics, "tucker_hooi", iteration),
    )


def _fold_core(core_unfolded: np.ndarray, ranks: Sequence[int]) -> np.ndarray:
    """Fold the mode-0 unfolded core back into a dense tensor of shape ``ranks``."""
    from repro.tensor.dense import fold_dense

    return fold_dense(core_unfolded, 0, tuple(ranks))
