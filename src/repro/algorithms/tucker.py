"""Tucker decomposition via HOOI, built on the unified SpTTMc kernel.

The paper notes (Section IV-D) that the same unified approach implements the
Tucker decomposition, whose bottleneck kernel is the tensor-times-matrix
chain (TTMc, Equation 4).  HOOI (Higher-Order Orthogonal Iteration)
alternates over the modes: for mode ``n`` it forms ``Y = X ×_{m≠n} U_mᵀ``
and takes the leading ``R_n`` left singular vectors of the mode-``n``
unfolding of ``Y`` as the new factor.  The core tensor is recovered at the
end as ``G = X ×_0 U_0ᵀ ×_1 U_1ᵀ ···``.

This module is the "extension" deliverable: it exercises the unified
SpTTMc kernel (:mod:`repro.kernels.unified.spttmc`) inside a complete
algorithm and provides the fit metric used by its tests and example.  Like
:func:`~repro.algorithms.cp.cp_als`, :func:`tucker_hooi` runs in two passes:
:func:`hooi_numeric_pass` is the plain HOOI loop (SpTTMc numbers, the SVD,
the core and the fit), and :func:`hooi_modeled_pass` books the same sweeps
on a :class:`~repro.algorithms.decomposition.DecompositionTimeline` from
each mode's model-only profile, node-loss recovery included.  HOOI stops
on its fit, so the modeled pass books as many sweeps as the numeric pass
ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.algorithms.decomposition import (
    DecompositionTimeline,
    RecoveryRecord,
    kernel_context,
)
from repro.backends import Backend, get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import resolve_cluster
from repro.gpusim.counters import KernelProfile
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import Timeline
from repro.kernels.unified.driver import compute, model
from repro.kernels.unified.spttmc import spttmc_operands, spttmc_spec
from repro.tensor.sparse import SparseTensor
from repro.util.rng import SeedLike, as_rng
from repro.util.validation import check_positive_int

__all__ = [
    "HOOINumbers",
    "TuckerResult",
    "hooi_modeled_pass",
    "hooi_numeric_pass",
    "tucker_hooi",
]


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
        Total modeled re-staging seconds across all recoveries; the kernel
        cost of the sweeps booked again lands in the ordinary ledgers.
    """

    core: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]
    iterations: int
    ttmc_time_by_mode: Dict[int, float]
    device_time_by_device: Optional[Dict[int, float]] = None
    parallel_efficiency: Optional[float] = None
    makespan_s: Optional[float] = None
    timeline: Optional[Timeline] = None
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    recovery_overhead_s: float = 0.0

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
        Target multilinear rank, one entry per mode: each at most the mode
        size and at most the product of the other ranks.
    device, block_size, threadlen:
        Passed to the unified SpTTMc kernel.
    max_iterations / tolerance:
        HOOI sweep limit and fit-improvement stopping threshold.
    seed:
        Seed for the random orthonormal initial factors.
    ctx:
        A :class:`~repro.context.ExecContext` supplying:

        * ``cluster`` — multi-GPU controls: every SpTTMc
          shards across the cluster (see
          :func:`repro.kernels.unified.spttmc.unified_spttmc`), and the
          result reports per-device busy seconds and scaling efficiency.
        * ``streamed`` / ``num_streams`` / ``chunk_nnz`` and ``backend`` —
          forwarded to every SpTTMc, as :class:`~repro.algorithms.cp.UnifiedGPUEngine`
          forwards them to every MTTKRP.
        * ``chaos`` — optional :class:`~repro.gpusim.cluster.NodeFailure`
          events to survive in the modeled pass, with the same semantics
          as :func:`~repro.algorithms.cp.cp_als`: a failure fires at the
          first TTMc boundary whose modeled time reaches it while the run
          shards across a multi-node cluster containing the node; the
          interrupted sweep's partial work is wasted time, the lost shards
          re-stage onto the survivors, and the sweep is booked again on
          them.  The core and factors come from the numeric pass alone, so
          they equal the failure-free run's exactly.
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
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
        others = math.prod(ranks[:m] + ranks[m + 1 :])
        if r > others:
            raise ValueError(
                f"ranks[{m}]={r} exceeds {others}, the product of the other "
                f"ranks: a multilinear rank needs R_n <= prod(R_m for m != n)"
            )
    max_iterations = check_positive_int(max_iterations, "max_iterations")

    encodings = [
        FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, mode) for mode in range(order)
    ]
    numbers = hooi_numeric_pass(
        tensor,
        ranks,
        encodings,
        max_iterations=max_iterations,
        tolerance=tolerance,
        seed=seed,
        backend=ctx.backend,
    )
    return hooi_modeled_pass(
        encodings,
        ranks,
        numbers,
        device=device,
        block_size=block_size,
        threadlen=threadlen,
        ctx=ctx,
    )


class HOOINumbers(NamedTuple):
    """What HOOI's numeric pass produces: the :class:`TuckerResult` fields
    that do not depend on where or how the run executes."""

    core: np.ndarray
    factors: List[np.ndarray]
    fits: List[float]
    iterations: int


def _sweep(order: int) -> List[int]:
    """One HOOI sweep's SpTTMc modes: one per mode updates its factor, and
    a final mode-0 SpTTMc projects onto the mode-0 factor for the core."""
    return [*range(order), 0]


def hooi_numeric_pass(
    tensor: SparseTensor,
    ranks: Sequence[int],
    encodings: Sequence[FCOOTensor],
    *,
    max_iterations: int,
    tolerance: float = 1e-5,
    seed: SeedLike = 0,
    backend: Union[str, Backend, None] = None,
) -> HOOINumbers:
    """The plain HOOI loop of :func:`tucker_hooi`: numbers only, no timeline.

    ``encodings`` holds ``tensor``'s SpTTMc encoding of every mode.  The
    loop stops after ``max_iterations`` sweeps, or earlier when the fit
    improves by less than ``tolerance``.  ``backend`` runs the SpTTMcs and
    the core projection.  A sweep's core-step SpTTMc is also the next
    sweep's first, so ``k`` sweeps of an order-``N`` tensor run ``N·k + 1``
    SpTTMcs (the modeled pass still books ``N + 1`` a sweep).

    The fit measures the core against the norm of the values the core
    step's SpTTMc reads, the mode-0 encoding's; values whose norm is zero
    raise :class:`ValueError` before any SpTTMc.
    """
    x_norm = encodings[0].norm()
    if x_norm == 0.0:
        raise ValueError("cannot compute the fit of an all-zero tensor")
    backend_impl = get_backend(backend)
    order = tensor.order
    rng = as_rng(seed)
    factors: List[np.ndarray] = []
    for m in range(order):
        gaussian = rng.standard_normal((tensor.shape[m], ranks[m]))
        q, _ = np.linalg.qr(gaussian)
        factors.append(q[:, : ranks[m]])

    fits: List[float] = []
    previous_fit = -np.inf
    core_unfolded = np.zeros((ranks[0], int(np.prod(ranks[1:]))), dtype=np.float64)
    # The core step's SpTTMc is the next sweep's first: the same mode-0
    # encoding, and factors 1..N-1 do not change in between.
    core_y: Optional[np.ndarray] = None
    iterations = 0
    while iterations < max_iterations:
        for step, mode in enumerate(_sweep(order)):
            if step == 0 and core_y is not None:
                y = core_y
            else:
                y = compute(*spttmc_operands(encodings[mode], factors, mode), backend_impl)
            if step < order:
                # New factor: leading left singular vectors of
                # Y = (I_mode, prod_{m != mode} R_m).
                u, _s, _vt = np.linalg.svd(y, full_matrices=False)
                factors[mode] = u[:, : ranks[mode]]
            else:
                # Core in mode-0 unfolded form.
                core_unfolded = backend_impl.matmul(factors[0].T, y)
                core_y = y
        core_norm = float(np.linalg.norm(core_unfolded))
        # For orthonormal factors ||X - X̂||² = ||X||² - ||G||².
        residual_sq = max(x_norm**2 - core_norm**2, 0.0)
        fit = 1.0 - float(np.sqrt(residual_sq)) / x_norm
        fits.append(fit)
        iterations += 1
        if abs(fit - previous_fit) < tolerance:
            break
        previous_fit = fit
    return HOOINumbers(
        core=_fold_core(core_unfolded, ranks),
        factors=factors,
        fits=fits,
        iterations=iterations,
    )


def hooi_modeled_pass(
    encodings: Sequence[FCOOTensor],
    ranks: Sequence[int],
    numbers: HOOINumbers,
    *,
    device: DeviceSpec = TITAN_X,
    block_size: int = 128,
    threadlen: int = 8,
    ctx: ExecContext = DEFAULT_CONTEXT,
) -> TuckerResult:
    """Book ``numbers.iterations`` HOOI sweeps on a fresh timeline.

    Every SpTTMc books its mode's model-only profile, priced once per
    topology.  HOOI is strictly sequential on the timeline — every SVD
    needs the fully reduced unfolding — so the makespan equals the serial
    ledger sum.  ``device``, ``block_size``, ``threadlen`` and ``ctx`` are
    :func:`tucker_hooi`'s.  Returns the full :class:`TuckerResult`:
    ``numbers`` plus the modeled fields.
    """
    order = len(encodings)
    device, cluster = resolve_cluster(device, ctx.cluster)
    run = DecompositionTimeline(cluster, ctx.chaos)
    ttmc_time_by_mode: Dict[int, float] = {m: 0.0 for m in range(order)}
    # Each mode's profile on the current topology; a node loss clears it.
    profiles: Dict[int, KernelProfile] = {}
    iteration = 0
    while iteration < numbers.iterations:
        for mode in _sweep(order):
            if mode not in profiles:
                encoding = encodings[mode]
                spec = spttmc_spec(encoding, [ranks[m] for m in encoding.roles.product_modes])
                profiles[mode] = model(
                    encoding,
                    spec,
                    device=device,
                    block_size=block_size,
                    threadlen=threadlen,
                    ctx=kernel_context(ctx, run.cluster),
                )
            profile = profiles[mode]
            ttmc_time_by_mode[mode] += profile.estimated_time_s
            run.book(profile, f"spttmc:mode{mode}")
            failure = run.due_failure()
            if failure is not None:
                # The interrupted SpTTMc's bookings stay as wasted work.
                resident = [(encoding, threadlen) for encoding in encodings]
                run.recover(failure, resident, iteration=iteration, mode=mode)
                profiles.clear()
                break
        else:  # the sweep completed; a node loss breaks out to book it again
            iteration += 1

    return TuckerResult(
        core=numbers.core,
        factors=numbers.factors,
        fits=numbers.fits,
        iterations=numbers.iterations,
        ttmc_time_by_mode=ttmc_time_by_mode,
        **run.finish(ctx.metrics, "tucker_hooi", numbers.iterations),
    )


def _fold_core(core_unfolded: np.ndarray, ranks: Sequence[int]) -> np.ndarray:
    """Fold the mode-0 unfolded core back into a dense tensor of shape ``ranks``."""
    from repro.tensor.dense import fold_dense

    return fold_dense(core_unfolded, 0, tuple(ranks))
