"""CP-ALS (CANDECOMP/PARAFAC via alternating least squares) — Algorithm 1.

The decomposition iterates over the tensor modes; for each mode it computes
an MTTKRP, solves the small ``R × R`` normal equations, and normalises the
updated factor.  The MTTKRP dominates the run time (Figure 10), so the
algorithm is parameterised by an *engine* that supplies it:

* :class:`UnifiedGPUEngine` — the paper's contribution: F-COO is
  pre-encoded on the host once per mode, transferred to the GPU once, and
  every MTTKRP runs the unified one-shot kernel.  The per-mode times are
  nearly identical because the kernel is insensitive to the mode
  (Section IV-D, "Complete tensor-based algorithms").
* :class:`SplattCPUEngine` — SPLATT's CSF-based CPU MTTKRP sharing one
  fiber tree across modes, which makes the per-mode times uneven (Figure
  10's SPLATT bars).

Both engines return simulated kernel times; the dense linear algebra
(Gram matrices, the pseudo-inverse solve, column normalisation) is charged
to a simple dense-kernel model and reported as the "other" category, again
matching Figure 10's breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.algorithms.fit import cp_fit
from repro.algorithms.normalization import normalize_columns
from repro.backends import get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.cpusim.cpu import CPU_I7_5820K, CpuSpec
from repro.formats.fcoo import FCOOTensor
from repro.formats.csf import CSFTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, NodeFailure, resolve_cluster
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import Timeline, device_compute_key, device_copy_key
from repro.kernels.baselines.splatt import splatt_csf_mode_order, splatt_mttkrp
from repro.kernels.common import MTTKRPResult
from repro.kernels.unified.sharded import (
    RecoveryPlan,
    ShardedTimeline,
    partition_for_cluster,
    plan_node_recovery,
)
from repro.kernels.unified.spmttkrp import spmttkrp_footprint, unified_spmttkrp
from repro.kernels.unified.streaming import should_stream
from repro.obs.metrics import observe_decomposition
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor
from repro.util.rng import SeedLike
from repro.util.validation import check_positive_int, check_rank

__all__ = [
    "CPResult",
    "RecoveryRecord",
    "cp_als",
    "CPEngine",
    "UnifiedGPUEngine",
    "SplattCPUEngine",
]


class CPEngine(Protocol):
    """Interface a CP-ALS MTTKRP/dense-update provider must implement."""

    name: str

    def prepare(self, tensor: SparseTensor, rank: int) -> float:
        """Preprocess/transfer the tensor; returns the setup time in seconds."""
        ...

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> MTTKRPResult:
        """Run the MTTKRP for ``mode`` using the prepared tensor."""
        ...

    def dense_update_time(self, mode_size: int, rank: int, order: int) -> float:
        """Estimated time of the per-mode dense updates (Gram/solve/normalise)."""
        ...


@dataclass
class UnifiedGPUEngine:
    """CP-ALS engine backed by the unified F-COO GPU kernels.

    Attributes
    ----------
    device:
        Simulated GPU.
    block_size / threadlen:
        Default launch parameters; ``per_mode_params`` overrides them per
        mode (the auto-tuner of Figure 5 / Table V produces these).
    per_mode_params:
        Optional ``{mode: (block_size, threadlen)}`` mapping.
    ctx:
        The :class:`~repro.context.ExecContext` whose execution fields
        every MTTKRP uses:

        * ``streamed`` / ``num_streams`` / ``chunk_nnz`` — out-of-core
          controls.  The default (``streamed=None``) auto-falls back to the
          chunked streaming path when a mode's F-COO encoding does not fit
          in device memory, so CP-ALS completes on over-capacity tensors
          instead of raising
          :class:`~repro.gpusim.timing.OutOfDeviceMemory`.
        * ``cluster`` / ``devices`` — a
          :class:`~repro.gpusim.cluster.ClusterSpec` of one or several
          nodes (or a bare device count building a homogeneous cluster of
          ``device``) shards every MTTKRP across the cluster and
          all-reduces the partial factor updates.  The engine accumulates
          the per-device busy seconds of the whole decomposition in
          :attr:`device_timelines` and its scaling efficiency in
          :attr:`parallel_efficiency`.
        * ``preproc_cache`` — an optional
          :class:`~repro.serve.cache.PreprocCache` (any object with its
          ``encoding(tensor, operation, mode)`` protocol).  :meth:`prepare`
          then obtains the per-mode F-COO encodings through the cache
          instead of rebuilding them, so repeated decompositions of the
          same tensor — the multi-tenant serving pattern — skip the host
          preprocessing; the host seconds of cache *misses* are charged
          into the setup time (they are exactly what a later hit saves).
        * ``overlap_staging`` — defers resident shard staging out of
          :meth:`prepare` into per-mode per-device ledgers that
          :func:`cp_als` books on the copy engines (overlapped with the
          previous mode's reduction).
    """

    device: DeviceSpec = TITAN_X
    block_size: int = 128
    threadlen: int = 8
    per_mode_params: Optional[Dict[int, Tuple[int, int]]] = None
    name: str = "unified-gpu"
    ctx: ExecContext = DEFAULT_CONTEXT

    def __post_init__(self) -> None:
        self._encodings: Dict[int, FCOOTensor] = {}
        self._tensor: Optional[SparseTensor] = None
        self.device, self._cluster = resolve_cluster(
            self.device, self.ctx.cluster, self.ctx.devices
        )
        self._timeline = ShardedTimeline(
            self._cluster.num_devices if self._cluster is not None else 1
        )
        # mode -> {device slot: staging seconds} when ctx.overlap_staging
        # moved resident shard staging out of prepare()'s serial charge.
        self._deferred_staging: Dict[int, Dict[int, float]] = {}
        # survivor-local slot -> original physical slot, set by evict_node();
        # None while no node has been lost.
        self._slot_map: Optional[Tuple[int, ...]] = None

    def prepare(self, tensor: SparseTensor, rank: int) -> float:
        """Encode F-COO for every mode on the host and transfer once to the GPU.

        The paper performs exactly this preprocessing so that no format
        conversion or host transfer happens inside a CP iteration.  An
        encoding that will execute out-of-core cannot stay resident, so its
        bytes are *not* charged here — the streamed kernel re-ships them
        chunk-by-chunk inside every MTTKRP and charges the PCIe time there.
        """
        self._tensor = tensor
        # A fresh decomposition starts a fresh timeline: an engine reused
        # across cp_als() calls must not leak the previous run's MTTKRPs
        # into the next CPResult's per-device report.
        self._timeline = ShardedTimeline(self._timeline.num_devices)
        encode_s = 0.0
        if self.ctx.preproc_cache is not None:
            self._encodings = {}
            for mode in range(tensor.order):
                encoding, _hit, cost_s = self.ctx.preproc_cache.encoding(
                    tensor, OperationKind.SPMTTKRP, mode
                )
                self._encodings[mode] = encoding
                encode_s += cost_s
        else:
            self._encodings = {
                mode: FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, mode)
                for mode in range(tensor.order)
            }
        transfer_bytes = sum(tensor.shape[m] * rank * 4.0 for m in range(tensor.order))
        # In cluster mode every device stages its own shard over its own
        # PCIe link simultaneously, so an encoding's staging cost is the
        # largest shard (~1/N of the stream); the factor matrices go to
        # every device in parallel and are charged once.
        shard_divisor = self._cluster.num_devices if self._cluster is not None else 1
        self._deferred_staging = {}
        bandwidth = self.device.pcie_bandwidth_bytes_per_s
        for mode, enc in self._encodings.items():
            if self._will_stream(enc, rank):
                continue
            if self.ctx.overlap_staging:
                # Defer resident shard staging onto the per-device copy
                # engines: cp_als books each device's shard transfer during
                # the first sweep, overlapped with the previous mode's
                # reduction, instead of this serial up-front charge.
                if self._cluster is not None:
                    threadlen = self._params_for(mode)[1]
                    shards = partition_for_cluster(enc, self._cluster, threadlen=threadlen)
                    self._deferred_staging[mode] = {
                        slot: float(shard.tensor.storage_bytes(threadlen)) / bandwidth
                        for slot, shard in enumerate(shards)
                        if shard.nnz
                    }
                else:
                    self._deferred_staging[mode] = {
                        0: enc.storage_bytes(self._params_for(mode)[1]) / bandwidth
                    }
            else:
                transfer_bytes += enc.storage_bytes(self._params_for(mode)[1]) / shard_divisor
        return transfer_bytes / bandwidth + encode_s

    @property
    def deferred_staging(self) -> Dict[int, Dict[int, float]]:
        """Per-mode per-device shard staging deferred out of :meth:`prepare`.

        Empty unless the engine was built with
        ``ctx=ExecContext(overlap_staging=True)``; :func:`cp_als` consumes
        one mode entry per first-sweep mode and books it on the copy
        engines.
        """
        return self._deferred_staging

    def _will_stream(self, encoding: FCOOTensor, rank: int) -> bool:
        """The kernel's streamed/one-shot decision, evaluated for one mode.

        Uses :func:`spmttkrp_footprint` — the kernel's own accounting — so
        ``prepare()``'s transfer charging cannot drift from the branch the
        MTTKRP actually takes.
        """
        block_size, threadlen = self._params_for(encoding.mode)
        footprint, resident = spmttkrp_footprint(
            encoding, rank, block_size=block_size, threadlen=threadlen
        )
        if self._cluster is not None:
            # Each device holds only its shard (~1/N of the stream) next to
            # the full dense operands.
            footprint = resident + (footprint - resident) / self._cluster.num_devices
        return should_stream(encoding, footprint, self.device, self.ctx.streamed)

    def _params_for(self, mode: int) -> Tuple[int, int]:
        if self.per_mode_params and mode in self.per_mode_params:
            return self.per_mode_params[mode]
        return self.block_size, self.threadlen

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> MTTKRPResult:
        if not self._encodings:
            raise RuntimeError("prepare() must be called before mttkrp()")
        block_size, threadlen = self._params_for(mode)
        result = unified_spmttkrp(
            self._encodings[mode],
            factors,
            mode,
            device=self.device,
            block_size=block_size,
            threadlen=threadlen,
            ctx=ExecContext(
                streamed=self.ctx.streamed,
                num_streams=self.ctx.num_streams,
                chunk_nnz=self.ctx.chunk_nnz,
                cluster=self._cluster,
                backend=self.ctx.backend,
            ),
        )
        self._timeline.observe(result.profile, slot_map=self._slot_map)
        return result

    def evict_node(self, node_index: int) -> List[RecoveryPlan]:
        """Drop a failed node and re-partition every mode onto the survivors.

        Called by the decomposition drivers when a
        :class:`~repro.gpusim.cluster.NodeFailure` fires mid-run.  For each
        prepared mode encoding a :class:`~repro.kernels.unified.sharded.RecoveryPlan`
        is computed against the pre-failure topology (what must be re-staged
        onto each survivor), then the engine switches to the survivor
        cluster so every subsequent :meth:`mttkrp` shards across it.  The
        returned plans carry the modeled re-staging cost; booking them on a
        timeline is the caller's job (the engine itself never books).

        ``node_index`` is interpreted against the engine's *current*
        topology — after a previous eviction, indices refer to the
        survivor cluster.
        """
        cluster = self._cluster
        if cluster is None or cluster.num_nodes < 2:
            raise RuntimeError("evict_node() requires an engine on a multi-node cluster")
        plans = [
            plan_node_recovery(
                self._encodings[mode],
                cluster,
                node_index,
                threadlen=self._params_for(mode)[1],
            )
            for mode in sorted(self._encodings)
        ]
        local_to_current = cluster.surviving_slots(node_index)
        previous = self._slot_map
        # Compose with any earlier eviction so the map always lands on the
        # original physical slots the decomposition's lanes are keyed by.
        self._slot_map = tuple(
            previous[slot] if previous is not None else slot for slot in local_to_current
        )
        self._cluster = cluster.without_node(node_index)
        return plans

    # ------------------------------------------------------------------ #
    @property
    def slot_map(self) -> Optional[Tuple[int, ...]]:
        """Survivor-local slot -> original physical slot after a node loss.

        ``None`` while the full topology is intact.  The decomposition
        drivers use this to keep timeline bookings and per-device ledgers
        keyed by physical slot across an eviction.
        """
        return self._slot_map

    @property
    def resolved_cluster(self) -> Optional[ClusterSpec]:
        """The cluster MTTKRPs shard across (``None`` in single-GPU mode).

        This is the normalised form of ``ctx.cluster`` / ``ctx.devices``
        (see :func:`~repro.gpusim.cluster.resolve_cluster`) —
        what :func:`cp_als` books collective time against on the unified
        timeline.
        """
        return self._cluster

    @property
    def device_timelines(self) -> Optional[Dict[int, float]]:
        """Per-device busy seconds across all MTTKRPs run so far.

        ``None`` in single-GPU mode; in cluster mode a ``{device slot:
        seconds}`` mapping (idle trailing devices are absent).
        """
        if self._cluster is None:
            return None
        return dict(self._timeline.device_busy_s)

    @property
    def reduction_time_s(self) -> float:
        """Total modeled partial-output reduction seconds across MTTKRPs."""
        return self._timeline.reduction_time_s

    @property
    def parallel_efficiency(self) -> Optional[float]:
        """Cluster busy fraction over all sharded MTTKRPs, in ``(0, 1]``.

        ``sum(per-device busy) / (N * sum(sharded makespans))``; ``None``
        in single-GPU mode or before any MTTKRP ran.
        """
        if self._cluster is None:
            return None
        return self._timeline.parallel_efficiency

    def dense_update_time(self, mode_size: int, rank: int, order: int) -> float:
        """CUBLAS-style dense update: Gram, Hadamard, pseudo-inverse, GEMM.

        The matrix-matrix work is ``O(I·R²)`` and the solve ``O(R³)``; both
        run close to the device's dense throughput.  Launch overheads are not
        charged: the paper runs the dense linear algebra in a second CUDA
        stream that overlaps with the MTTKRP stream, so only the data-path
        time remains on the critical path.
        """
        flops = 4.0 * mode_size * rank**2 + 10.0 * rank**3
        bytes_moved = (3.0 * mode_size * rank + 4.0 * rank**2) * 4.0
        compute = flops / (self.device.peak_flops * 0.5)
        memory = bytes_moved / self.device.achievable_bandwidth_bytes_per_s
        return max(compute, memory)


@dataclass
class SplattCPUEngine:
    """CP-ALS engine backed by SPLATT's CSF CPU MTTKRP.

    One CSF tree (rooted at ``root_mode``, by default the shortest mode as
    SPLATT does) is shared across the per-mode MTTKRPs of each iteration.
    """

    cpu: CpuSpec = CPU_I7_5820K
    num_threads: Optional[int] = None
    root_mode: Optional[int] = None
    name: str = "splatt-cpu"

    def __post_init__(self) -> None:
        self._csf: Optional[CSFTensor] = None
        self._tensor: Optional[SparseTensor] = None

    def prepare(self, tensor: SparseTensor, rank: int) -> float:
        self._tensor = tensor
        root = self.root_mode
        if root is None:
            root = int(np.argmin(tensor.shape))
        self._csf = CSFTensor.from_sparse(tensor, splatt_csf_mode_order(tensor, root))
        # CSF construction is a sort + compress over the non-zeros; charge a
        # small host-side cost proportional to nnz (excluded from the CP
        # iteration time, as in the paper's measurements).
        return tensor.nnz * 40e-9

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> MTTKRPResult:
        if self._csf is None or self._tensor is None:
            raise RuntimeError("prepare() must be called before mttkrp()")
        return splatt_mttkrp(
            self._tensor,
            factors,
            mode,
            cpu=self.cpu,
            num_threads=self.num_threads,
            csf=self._csf,
        )

    def dense_update_time(self, mode_size: int, rank: int, order: int) -> float:
        """Dense update on the CPU (BLAS-backed, near peak FLOPs)."""
        flops = 4.0 * mode_size * rank**2 + 10.0 * rank**3
        bytes_moved = (3.0 * mode_size * rank + 4.0 * rank**2) * 4.0
        compute = flops / (self.cpu.peak_flops * 0.5)
        memory = bytes_moved / self.cpu.achievable_bandwidth_bytes_per_s
        return max(compute, memory)


@dataclass(frozen=True)
class RecoveryRecord:
    """Ledger entry for one mid-run node loss survived by checkpoint/replay.

    Attributes
    ----------
    failure:
        The :class:`~repro.gpusim.cluster.NodeFailure` that fired.
    iteration:
        0-based ALS sweep that was interrupted (and then replayed in full
        from its iteration-boundary checkpoint).
    mode:
        Mode boundary at which the loss was detected; the partial sweep up
        to and including this mode is discarded as wasted work.
    restage_s:
        Modeled seconds spent re-staging the failed node's shards onto the
        survivors (booked on the decomposition timeline's copy lanes).
    restaged_bytes:
        Total bytes re-staged across all modes and survivors.
    survivor_devices:
        Device count of the topology the run continued on.
    """

    failure: NodeFailure
    iteration: int
    mode: int
    restage_s: float
    restaged_bytes: float
    survivor_devices: int


@dataclass
class CPResult:
    """Result of a CP-ALS run.

    Attributes
    ----------
    factors:
        One normalised ``(I_m, R)`` factor per mode.
    weights:
        The λ column weights.
    fits:
        Fit value after each iteration (empty when fit tracking is off).
    iterations:
        Number of ALS iterations executed.
    mttkrp_time_by_mode:
        Total simulated MTTKRP seconds per mode (Figure 10's coloured bars).
    other_time_s:
        Total simulated dense-update seconds (Figure 10's "other").
    setup_time_s:
        Engine preprocessing/transfer time (not part of the iteration time).
    engine_name:
        Which engine produced the timings.
    device_time_by_device:
        Per-device busy seconds of the whole decomposition when the engine
        ran in multi-GPU mode (``None`` otherwise) — the per-device
        timeline of the sharded MTTKRPs.
    parallel_efficiency:
        Cluster busy fraction over the sharded MTTKRP makespans, in
        ``(0, 1]`` (``None`` for single-GPU engines).
    makespan_s:
        Modeled completion time of the decomposition's iteration work on
        the unified timeline (setup excluded, like :attr:`total_time_s`).
        Equals :attr:`total_time_s` up to float association when
        ``overlap_modes`` is off; with it on, never above — the mode-
        ``k`` all-reduce rides the link/NIC resources while the dense
        update books compute.
    overlap_modes:
        Whether the run overlapped each mode's collective with its dense
        update (see :func:`cp_als`).
    timeline:
        The :class:`~repro.gpusim.timeline.Timeline` the decomposition's
        per-mode MTTKRP computes, collectives and dense updates were
        booked on (queryable; Chrome-trace exportable).
    recoveries:
        One :class:`RecoveryRecord` per node loss survived mid-run (empty
        for failure-free runs).
    recovery_overhead_s:
        Total modeled re-staging seconds across all recoveries.  The
        replayed sweeps' compute cost is *not* in here — it lands in the
        ordinary per-mode ledgers and :attr:`makespan_s` like any other
        executed work.
    preemptions:
        Scheduler-level preemptions this run suffered.  A standalone
        decomposition is never preempted (the list stays empty); the
        field exists so :class:`CPResult` satisfies the
        :class:`~repro.context.TimedResult` protocol alongside
        ``ScheduleOutcome``, whose preemptions are real.
    """

    factors: List[np.ndarray]
    weights: np.ndarray
    fits: List[float]
    iterations: int
    mttkrp_time_by_mode: Dict[int, float]
    other_time_s: float
    setup_time_s: float
    engine_name: str
    device_time_by_device: Optional[Dict[int, float]] = None
    parallel_efficiency: Optional[float] = None
    makespan_s: Optional[float] = None
    overlap_modes: bool = False
    timeline: Optional[Timeline] = None
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    recovery_overhead_s: float = 0.0
    preemptions: List[object] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """Total serial simulated decomposition time (MTTKRPs + dense
        updates, no cross-phase overlap) — the pre-timeline ledger sum."""
        return sum(self.mttkrp_time_by_mode.values()) + self.other_time_s

    @property
    def overlap_saved_s(self) -> float:
        """Modeled seconds ``overlap_modes`` saved over serial execution
        (0 when the timeline was not tracked or nothing overlapped)."""
        if self.makespan_s is None:
            return 0.0
        return max(0.0, self.total_time_s - self.makespan_s)

    @property
    def final_fit(self) -> Optional[float]:
        """Fit after the last iteration (``None`` when not tracked)."""
        return self.fits[-1] if self.fits else None


def cp_als(
    tensor: SparseTensor,
    rank: int,
    *,
    engine: Optional[CPEngine] = None,
    max_iterations: int = 10,
    tolerance: float = 1e-5,
    seed: SeedLike = 0,
    compute_fit: bool = True,
    initial_factors: Optional[Sequence[np.ndarray]] = None,
    ctx: Optional[ExecContext] = None,
) -> CPResult:
    """Run CP-ALS (Algorithm 1) on a sparse tensor.

    Parameters
    ----------
    tensor:
        The sparse input tensor.
    rank:
        Decomposition rank ``R`` (number of factor columns).
    engine:
        MTTKRP provider; defaults to :class:`UnifiedGPUEngine`.
    max_iterations:
        Maximum number of ALS sweeps.
    tolerance:
        Stop when the fit improves by less than this between iterations
        (only active when ``compute_fit`` is on).
    seed:
        Seed for the random initial factors.
    compute_fit:
        Track the decomposition fit each iteration (costs one sparse model
        evaluation per iteration; disable for pure benchmarking).
    initial_factors:
        Optional explicit initial factors (overrides ``seed``).
    ctx:
        A :class:`~repro.context.ExecContext`.  When no ``engine`` is
        given, the default :class:`UnifiedGPUEngine` is built from it, so
        ``cp_als(x, r, ctx=ExecContext(devices=4))`` is the multi-GPU
        spelling.  The run itself reads:

        * ``overlap_modes`` — intra-kernel pipelining on the unified
          timeline: mode ``k``'s partial-output all-reduce books the
          cluster's link/NIC resources while mode ``k``'s dense update
          (the normal-equations solve on the reduce-scattered rows each
          device owns) books the compute engines; mode ``k + 1``'s MTTKRP
          waits for both — the updated factor must be fully distributed —
          so the numeric iteration order, and hence every factor, is
          bit-identical to the sequential schedule.  Only
          ``CPResult.makespan_s`` moves, and only downward: each mode pays
          ``max(collective, dense)`` instead of their sum.  A single-GPU
          engine has no collective, so the flag is a modeled no-op there.
        * ``chaos`` — optional :class:`~repro.gpusim.cluster.NodeFailure`
          events to survive.  A failure *fires* at the first mode boundary
          whose modeled completion time reaches ``failure.time_s`` while
          the engine shards across a multi-node cluster containing
          ``failure.node_index`` (indices read against the topology at
          that moment).  The interrupted sweep's partial work is discarded
          as wasted time (its bookings stay on the timeline), the failed
          node's shards are re-staged onto the survivors (modeled on the
          copy lanes), and the sweep replays in full from its
          iteration-boundary checkpoint on the survivor topology.  Because
          the sharded kernels are bit-identical across topologies and
          CP-ALS draws randomness only at initialisation, the returned
          factors are bit-identical to the failure-free run's.  Failures
          that cannot apply (single-GPU engine, out-of-range node) are
          ignored; ``recover_s`` is ignored here — a decomposition never
          rebalances back onto a returned node mid-run (the serving layer
          does reuse recovered nodes for *new* jobs).
        * ``overlap_staging`` — book each mode's resident shard staging on
          the per-device copy engines during the first sweep, overlapped
          with the previous mode's reduction, instead of charging it
          serially in engine setup (the factors are bit-identical; only
          modeled time moves, and only downward).
        * ``backend`` and ``metrics`` — the dense updates' backend and the
          registry the run's decomposition metrics land in.

    Returns
    -------
    CPResult
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
    backend_impl = get_backend(ctx.backend)
    rank = check_rank(rank)
    max_iterations = check_positive_int(max_iterations, "max_iterations")
    if tensor.nnz == 0:
        raise ValueError("cannot decompose an all-zero tensor")
    order = tensor.order
    if engine is None:
        engine = UnifiedGPUEngine(ctx=ctx)

    if initial_factors is not None:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in initial_factors]
        if len(factors) != order:
            raise ValueError(f"need one initial factor per mode ({order}), got {len(factors)}")
        for m, f in enumerate(factors):
            if f.shape != (tensor.shape[m], rank):
                raise ValueError(
                    f"initial factor {m} must have shape {(tensor.shape[m], rank)}, got {f.shape}"
                )
    else:
        factors = [np.array(f) for f in random_factors(tensor.shape, rank, seed=seed)]

    setup_time = engine.prepare(tensor, rank)
    mttkrp_time_by_mode: Dict[int, float] = {m: 0.0 for m in range(order)}
    other_time = 0.0
    weights = np.ones(rank, dtype=np.float64)
    fits: List[float] = []
    previous_fit = -np.inf
    iterations_run = 0

    # The decomposition's own timeline: per-device compute engines plus —
    # through the cluster's booking API — the link/NIC resources its
    # collectives occupy.  Booking is pure modeled time; the numeric
    # iteration below never consults it, which is what keeps the factors
    # bit-identical whether or not the modes overlap.
    cluster = getattr(engine, "resolved_cluster", None)
    num_slots = cluster.num_devices if cluster is not None else 1
    timeline = Timeline()
    compute_lanes = [
        timeline.resource(device_compute_key(slot), category="compute")
        for slot in range(num_slots)
    ]
    # Shard staging the engine deferred out of prepare() (ctx.overlap_staging):
    # each mode's per-device transfers book the copy engines during the first
    # sweep, so mode k+1's staging rides the copy lanes while mode k computes
    # and reduces.  Only the first mode's staging stays on the critical path.
    deferred_staging = dict(getattr(engine, "deferred_staging", None) or {})
    copy_lanes = (
        [
            timeline.resource(device_copy_key(slot), category="copy")
            for slot in range(num_slots)
        ]
        if deferred_staging
        else []
    )
    kernel_ready = 0.0  # when the next mode's MTTKRP may start

    # Fault tolerance: pending chaos events, the lanes still alive (a
    # survivor-local kernel slot i maps to physical lane active_lanes[i]),
    # and the recovery ledger.
    pending_failures = sorted(ctx.chaos or (), key=lambda f: (f.time_s, f.node_index))
    active_lanes = list(compute_lanes)
    recoveries: List[RecoveryRecord] = []
    recovery_overhead_s = 0.0

    grams = [backend_impl.gram(f) for f in factors]
    iteration = 0
    while iteration < max_iterations:
        # Iteration-boundary checkpoint: everything the sweep mutates.
        # Together with the (seed, iteration) pair — CP-ALS draws
        # randomness only at initialisation — this is the complete state
        # needed to replay the sweep bit-for-bit on any topology.
        checkpoint_factors = [f.copy() for f in factors]
        checkpoint_grams = [g.copy() for g in grams]
        checkpoint_weights = weights.copy()
        replay = False
        for mode in range(order):
            stage_end = 0.0
            staging = deferred_staging.pop(mode, None)
            if staging:
                for slot, stage_s in sorted(staging.items()):
                    if slot < len(copy_lanes):
                        landed = copy_lanes[slot].book(stage_s, label=f"stage:mode{mode}")
                        stage_end = max(stage_end, landed.end_s)

            result = engine.mttkrp(factors, mode)
            mttkrp_time_by_mode[mode] += result.estimated_time_s
            m_matrix = result.output

            # Book this mode on the timeline: per-device shard compute,
            # then the partial-output collective on the link/NIC tier.
            execution = getattr(getattr(result, "profile", None), "sharded", None)
            if execution is not None:
                compute_span = execution.max_shard_time_s
                reduce_s = execution.reduction_time_s
                busy_by_slot = execution.device_times
            else:
                compute_span = result.estimated_time_s
                reduce_s = 0.0
                busy_by_slot = {0: compute_span}
            kernel_start = max(kernel_ready, stage_end)
            for lane in active_lanes:
                kernel_start = max(kernel_start, lane.free_s)
            for slot, busy in busy_by_slot.items():
                if busy > 0.0 and slot < len(active_lanes):
                    active_lanes[slot].book(busy, ready_s=kernel_start, label=f"mttkrp:mode{mode}")
            kernel_end = kernel_start + compute_span
            reduce_end = kernel_end
            if reduce_s > 0.0 and cluster is not None:
                reduce_end = cluster.book_collective(
                    timeline,
                    reduce_s,
                    ready_s=kernel_end,
                    label=f"allreduce:mode{mode}",
                ).end_s

            # Chaos: did a node die while this mode's work was in flight?
            # Failures that cannot apply to the current engine/topology are
            # consumed and ignored.
            failure = None
            while pending_failures and pending_failures[0].time_s <= reduce_end:
                candidate = pending_failures.pop(0)
                if (
                    cluster is not None
                    and cluster.num_nodes > 1
                    and hasattr(engine, "evict_node")
                    and 0 <= candidate.node_index < cluster.num_nodes
                ):
                    failure = candidate
                    break
            if failure is not None:
                # This mode's kernel and collective never delivered: their
                # bookings stay on the timeline as wasted work.  Discard
                # the partial sweep, shrink to the survivors, re-stage the
                # lost shards, and replay the sweep from the checkpoint.
                plans = engine.evict_node(failure.node_index)
                cluster = engine.resolved_cluster
                slot_map = engine.slot_map
                active_lanes = [compute_lanes[slot] for slot in slot_map]
                factors = [f.copy() for f in checkpoint_factors]
                grams = [g.copy() for g in checkpoint_grams]
                weights = checkpoint_weights.copy()
                restage_ready = max(reduce_end, failure.time_s)
                restage_end = restage_ready
                for plan in plans:
                    restage_end = plan.book(
                        timeline,
                        ready_s=restage_end,
                        label=f"restage:node{failure.node_index}",
                    )
                restage_s = restage_end - restage_ready
                recovery_overhead_s += restage_s
                recoveries.append(
                    RecoveryRecord(
                        failure=failure,
                        iteration=iteration,
                        mode=mode,
                        restage_s=restage_s,
                        restaged_bytes=sum(p.total_restaged_bytes for p in plans),
                        survivor_devices=cluster.num_devices,
                    )
                )
                kernel_ready = restage_end
                replay = True
                break

            v = backend_impl.dense_hadamard(
                [grams[m] for m in range(order) if m != mode], rank
            )
            updated = backend_impl.matmul(m_matrix, np.linalg.pinv(v))
            normalized, weights = normalize_columns(updated)
            factors[mode] = normalized
            grams[mode] = backend_impl.gram(normalized)
            dense_s = engine.dense_update_time(tensor.shape[mode], rank, order)
            other_time += dense_s
            # Sequential: the dense update waits for the all-reduce.  With
            # overlap_modes the solve proceeds on each device's reduce-
            # scattered rows while the collective's tail rides the links,
            # so the dense update is gated on the kernel only; the next
            # mode still waits for the fully distributed factor
            # (kernel_ready = reduce_end below).
            timeline.book_together(
                active_lanes,
                dense_s,
                ready_s=kernel_end if ctx.overlap_modes else reduce_end,
                label=f"dense:mode{mode}",
            )
            kernel_ready = reduce_end

        if replay:
            continue  # same iteration again, from the checkpoint
        iterations_run += 1
        iteration += 1

        if compute_fit:
            fit = cp_fit(tensor, factors, weights)
            fits.append(fit)
            if abs(fit - previous_fit) < tolerance:
                break
            previous_fit = fit

    result = CPResult(
        factors=factors,
        weights=weights,
        fits=fits,
        iterations=iterations_run,
        mttkrp_time_by_mode=mttkrp_time_by_mode,
        other_time_s=other_time,
        setup_time_s=setup_time,
        engine_name=engine.name,
        device_time_by_device=getattr(engine, "device_timelines", None),
        parallel_efficiency=getattr(engine, "parallel_efficiency", None),
        makespan_s=timeline.makespan_s,
        overlap_modes=ctx.overlap_modes,
        timeline=timeline,
        recoveries=recoveries,
        recovery_overhead_s=recovery_overhead_s,
    )
    if ctx.metrics is not None:
        observe_decomposition(
            ctx.metrics,
            algorithm="cp_als",
            iterations=iterations_run,
            makespan_s=result.makespan_s or 0.0,
            recoveries=len(recoveries),
            recovery_overhead_s=recovery_overhead_s,
        )
    return result
