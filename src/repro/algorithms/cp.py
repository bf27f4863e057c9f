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

Both engines give each MTTKRP's numbers and, apart, its model-only
profile; the dense linear algebra (Gram matrices, the pseudo-inverse solve,
column normalisation) is charged to a simple dense-kernel model and
reported as the "other" category, again matching Figure 10's breakdown.

:func:`cp_als` runs in two passes.  :func:`cp_numeric_pass` is the plain
ALS loop: the numbers, with no timeline.  :func:`cp_modeled_pass` then books
the same sweeps on a
:class:`~repro.algorithms.decomposition.DecompositionTimeline` from each
mode's profile, node-loss recovery included; this module keeps CP's own
modeled part: the dense update and its overlap with the all-reduce.  The
serving layer runs the two passes apart, so a job's numbers are computed
once however often it is priced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.decomposition import (
    DecompositionTimeline,
    RecoveryRecord,
    kernel_context,
)
from repro.algorithms.fit import cp_sweep_fit
from repro.algorithms.normalization import normalize_columns
from repro.backends import Backend, get_backend
from repro.context import DEFAULT_CONTEXT, ExecContext
from repro.cpusim.cpu import CPU_I7_5820K, CpuProfile, CpuSpec
from repro.formats.fcoo import FCOOTensor
from repro.formats.csf import CSFTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec, resolve_cluster
from repro.gpusim.counters import KernelProfile
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timeline import Timeline
from repro.kernels.baselines.splatt import splatt_csf_mode_order, splatt_profile
from repro.kernels.common import Profile
from repro.kernels.reference.coo_reference import reference_mttkrp
from repro.kernels.unified.driver import compute, model
from repro.kernels.unified.spmttkrp import (
    spmttkrp_footprint,
    spmttkrp_operands,
    spmttkrp_spec,
)
from repro.kernels.unified.streaming import should_stream
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor
from repro.util.rng import SeedLike
from repro.util.validation import check_positive_int, check_rank

__all__ = [
    "CPNumbers",
    "CPResult",
    "cp_als",
    "cp_modeled_pass",
    "cp_numeric_pass",
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

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """The MTTKRP for ``mode`` on the prepared tensor: numbers only."""
        ...

    def value_norm(self) -> float:
        """The Frobenius norm of the values :meth:`mttkrp` reads, in float64."""
        ...

    def profile(
        self, mode: int, rank: int, cluster: Optional[ClusterSpec] = None
    ) -> Profile:
        """The model-only profile of a rank-``rank`` MTTKRP for ``mode``.

        ``cluster`` is the run's current topology when a node loss shrank
        it; ``None`` keeps the engine's own.
        """
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
        Launch parameters of every mode's MTTKRP (the auto-tuner of
        Figure 5 / Table V produces these).
    ctx:
        The :class:`~repro.context.ExecContext` whose execution fields
        every MTTKRP uses:

        * ``streamed`` / ``num_streams`` / ``chunk_nnz`` — out-of-core
          controls.  The default (``streamed=None``) auto-falls back to the
          chunked streaming path when a mode's F-COO encoding does not fit
          in device memory, so CP-ALS completes on over-capacity tensors
          instead of raising
          :class:`~repro.gpusim.timing.OutOfDeviceMemory`.
        * ``cluster`` — a :class:`~repro.gpusim.cluster.ClusterSpec` of
          one or several nodes: every run starts on it
          (:attr:`resolved_cluster`), sharding each MTTKRP across the
          cluster and all-reducing the partial factor updates.
          :func:`cp_als` reports the per-device busy seconds and the
          scaling efficiency.
    """

    device: DeviceSpec = TITAN_X
    block_size: int = 128
    threadlen: int = 8
    name: str = "unified-gpu"
    ctx: ExecContext = DEFAULT_CONTEXT

    def __post_init__(self) -> None:
        self._encodings: Dict[int, FCOOTensor] = {}
        self.device, self._cluster = resolve_cluster(self.device, self.ctx.cluster)

    def prepare(
        self,
        tensor: SparseTensor,
        rank: int,
        encodings: Optional[Mapping[int, FCOOTensor]] = None,
    ) -> float:
        """Encode F-COO for every mode on the host and transfer once to the GPU.

        The paper performs exactly this preprocessing so that no format
        conversion or host transfer happens inside a CP iteration.  An
        encoding that will execute out-of-core cannot stay resident, so its
        bytes are *not* charged here — the streamed kernel re-ships them
        chunk-by-chunk inside every MTTKRP and charges the PCIe time there.
        ``encodings`` maps every mode to ``tensor``'s SpMTTKRP encoding when
        the caller already holds them (a served job's, from the
        preprocessing cache); they are built here otherwise.
        """
        if encodings is None:
            encodings = {
                mode: FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, mode)
                for mode in range(tensor.order)
            }
        self._encodings = dict(encodings)
        transfer_bytes = sum(tensor.shape[m] * rank * 4.0 for m in range(tensor.order))
        # In cluster mode every device stages its own shard over its own
        # PCIe link simultaneously, so an encoding's staging cost is the
        # largest shard (~1/N of the stream); the factor matrices go to
        # every device in parallel and are charged once.
        shard_divisor = self._cluster.num_devices if self._cluster is not None else 1
        for enc in self._encodings.values():
            if not self._will_stream(enc, rank):
                transfer_bytes += enc.storage_bytes(self.threadlen) / shard_divisor
        return transfer_bytes / self.device.pcie_bandwidth_bytes_per_s

    def _will_stream(self, encoding: FCOOTensor, rank: int) -> bool:
        """The kernel's streamed/one-shot decision, evaluated for one mode.

        Uses :func:`spmttkrp_footprint` — the kernel's own accounting — so
        ``prepare()``'s transfer charging cannot drift from the branch the
        MTTKRP actually takes.
        """
        footprint, resident = spmttkrp_footprint(
            encoding, rank, block_size=self.block_size, threadlen=self.threadlen
        )
        if self._cluster is not None:
            # Each device holds only its shard (~1/N of the stream) next to
            # the full dense operands.
            footprint = resident + (footprint - resident) / self._cluster.num_devices
        return should_stream(encoding, footprint, self.device, self.ctx.streamed)

    def _encoding(self, mode: int) -> FCOOTensor:
        if not self._encodings:
            raise RuntimeError("prepare() must be called before mttkrp()")
        return self._encodings[mode]

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """The unified SpMTTKRP's numbers: one canonical backend pass, the
        same on every topology and path."""
        operands = spmttkrp_operands(self._encoding(mode), factors, mode)
        return compute(*operands, get_backend(self.ctx.backend))

    def value_norm(self) -> float:
        """The norm of the last mode's F-COO values: float32, as the
        MTTKRPs read them, summed in float64."""
        return self._encoding(len(self._encodings) - 1).norm()

    def profile(
        self, mode: int, rank: int, cluster: Optional[ClusterSpec] = None
    ) -> KernelProfile:
        """The unified SpMTTKRP's cost model for ``mode`` (one-shot,
        streamed or sharded across ``cluster`` or the engine's own)."""
        encoding = self._encoding(mode)
        return model(
            encoding,
            spmttkrp_spec(encoding, rank),
            device=self.device,
            block_size=self.block_size,
            threadlen=self.threadlen,
            ctx=kernel_context(self.ctx, cluster if cluster is not None else self._cluster),
        )

    def resident(self) -> List[Tuple[FCOOTensor, int]]:
        """Each prepared mode's encoding with its threadlen, in mode order:
        the device-resident streams a node loss re-stages."""
        return [(enc, self.threadlen) for _mode, enc in sorted(self._encodings.items())]

    @property
    def resolved_cluster(self) -> Optional[ClusterSpec]:
        """The cluster every run starts on (``None`` in single-GPU mode).

        This is the normalised form of ``ctx.cluster``
        (see :func:`~repro.gpusim.cluster.resolve_cluster`).  A node loss
        moves only that run onto the survivors; the engine keeps its
        configuration.
        """
        return self._cluster

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

    def _prepared(self) -> Tuple[SparseTensor, CSFTensor]:
        if self._csf is None or self._tensor is None:
            raise RuntimeError("prepare() must be called before mttkrp()")
        return self._tensor, self._csf

    def mttkrp(self, factors: Sequence[np.ndarray], mode: int) -> np.ndarray:
        """SPLATT's MTTKRP numbers (the tree walk never changes them)."""
        tensor, _csf = self._prepared()
        return reference_mttkrp(tensor, factors, mode)

    def value_norm(self) -> float:
        """The tensor's norm: SPLATT's MTTKRP reads its float64 values."""
        tensor, _csf = self._prepared()
        return tensor.norm()

    def profile(
        self, mode: int, rank: int, cluster: Optional[ClusterSpec] = None
    ) -> CpuProfile:
        """SPLATT's modeled MTTKRP on the CPU (a CPU run has no cluster)."""
        tensor, csf = self._prepared()
        return splatt_profile(
            tensor, mode, rank, cpu=self.cpu, num_threads=self.num_threads, csf=csf
        )

    def dense_update_time(self, mode_size: int, rank: int, order: int) -> float:
        """Dense update on the CPU (BLAS-backed, near peak FLOPs)."""
        flops = 4.0 * mode_size * rank**2 + 10.0 * rank**3
        bytes_moved = (3.0 * mode_size * rank + 4.0 * rank**2) * 4.0
        compute = flops / (self.cpu.peak_flops * 0.5)
        memory = bytes_moved / self.cpu.achievable_bandwidth_bytes_per_s
        return max(compute, memory)


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
        One :class:`~repro.algorithms.decomposition.RecoveryRecord` per
        node loss survived mid-run (empty for failure-free runs).
    recovery_overhead_s:
        Total modeled re-staging seconds across all recoveries.  The cost
        of the sweeps booked again on the survivors is *not* in here — it
        lands in the ordinary per-mode ledgers and :attr:`makespan_s` like
        any other executed work.
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
        Track the decomposition fit each iteration.  It is read off each
        sweep's last MTTKRP and the Gram matrices the dense update already
        holds, so it adds no pass over the non-zeros.
    initial_factors:
        Optional explicit initial factors (overrides ``seed``).
    ctx:
        A :class:`~repro.context.ExecContext`.  When no ``engine`` is
        given, the default :class:`UnifiedGPUEngine` is built from it, so
        ``cp_als(x, r, ctx=ExecContext(cluster=ClusterSpec.homogeneous()))``
        is the multi-GPU spelling.  The run itself reads:

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
          events to survive, in the modeled pass.  A failure *fires* at the
          first mode boundary whose modeled completion time reaches
          ``failure.time_s`` while the run shards across a multi-node
          cluster containing ``failure.node_index`` (indices read against
          the topology at that moment).  The interrupted sweep's partial
          work is wasted time (its bookings stay on the timeline), the
          failed node's shards are re-staged onto the survivors (modeled on
          the copy lanes), and the whole sweep is booked again on the
          survivor topology.  The numbers are computed once, by the
          numeric pass: the sharded kernels are bit-identical across
          topologies, so the factors are the failure-free run's by
          construction.  Failures that cannot apply (single-GPU engine,
          out-of-range node) are ignored; ``recover_s`` is ignored here — a
          decomposition never rebalances back onto a returned node mid-run
          (the serving layer does reuse recovered nodes for *new* jobs).
          The engine keeps its configured topology: its next run starts on
          all of it.  :func:`~repro.algorithms.tucker.tucker_hooi` recovers
          through the same
          :class:`~repro.algorithms.decomposition.DecompositionTimeline`.
        * ``backend`` and ``metrics`` — the dense updates' backend and the
          registry the run's decomposition metrics land in.

    Returns
    -------
    CPResult
    """
    ctx = ctx if ctx is not None else DEFAULT_CONTEXT
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
    numbers = cp_numeric_pass(
        tensor,
        engine,
        factors,
        max_iterations=max_iterations,
        tolerance=tolerance,
        compute_fit=compute_fit,
        backend=ctx.backend,
    )
    return cp_modeled_pass(
        engine, tensor.shape, numbers, setup_time_s=setup_time, ctx=ctx
    )


class CPNumbers(NamedTuple):
    """What CP-ALS's numeric pass produces: the :class:`CPResult` fields
    that do not depend on where or how the run executes."""

    factors: List[np.ndarray]
    weights: np.ndarray
    fits: List[float]
    iterations: int


def cp_numeric_pass(
    tensor: SparseTensor,
    engine: CPEngine,
    factors: List[np.ndarray],
    *,
    max_iterations: int,
    tolerance: float = 1e-5,
    compute_fit: bool = True,
    backend: Union[str, Backend, None] = None,
) -> CPNumbers:
    """The plain ALS loop of :func:`cp_als`: numbers only, no timeline.

    ``engine`` is prepared for ``tensor``; ``factors`` holds the initial
    factors and is updated in place, one normalised factor per mode.  The
    loop stops after ``max_iterations`` sweeps, or earlier when
    ``compute_fit`` is on and the fit improves by less than ``tolerance``.
    ``backend`` runs the dense updates.  Each fit is read off the sweep's
    last MTTKRP (:func:`~repro.algorithms.fit.cp_sweep_fit`) against the
    norm of the values the engine's MTTKRPs read.  Values whose norm is
    zero raise :class:`ValueError` before any MTTKRP, with or without
    ``compute_fit``: they have no fit, and their factors would be zero.
    """
    x_norm = engine.value_norm()
    if x_norm == 0.0:
        raise ValueError("cannot compute the fit of an all-zero tensor")
    backend_impl = get_backend(backend)
    order = tensor.order
    rank = factors[0].shape[1]
    weights = np.ones(rank, dtype=np.float64)
    grams = [backend_impl.gram(f) for f in factors]
    fits: List[float] = []
    previous_fit = -np.inf
    iterations = 0
    while iterations < max_iterations:
        for mode in range(order):
            output = engine.mttkrp(factors, mode)
            v = backend_impl.dense_hadamard(
                [grams[m] for m in range(order) if m != mode], rank
            )
            updated = backend_impl.matmul(output, np.linalg.pinv(v))
            normalized, weights = normalize_columns(updated)
            factors[mode] = normalized
            grams[mode] = backend_impl.gram(normalized)
        iterations += 1
        if compute_fit:
            fit = cp_sweep_fit(x_norm, output, factors[-1], weights, grams)
            fits.append(fit)
            if abs(fit - previous_fit) < tolerance:
                break
            previous_fit = fit
    return CPNumbers(factors=factors, weights=weights, fits=fits, iterations=iterations)


def cp_modeled_pass(
    engine: CPEngine,
    shape: Sequence[int],
    numbers: CPNumbers,
    *,
    setup_time_s: float,
    ctx: ExecContext = DEFAULT_CONTEXT,
) -> CPResult:
    """Book ``numbers.iterations`` CP-ALS sweeps on a fresh timeline.

    Every MTTKRP books its mode's model-only profile, priced once per
    topology; each dense update books the current topology's compute
    engines after it.  ``engine`` is prepared for a tensor of ``shape``;
    ``setup_time_s`` is what its ``prepare`` returned.  ``ctx`` supplies
    ``chaos``, ``overlap_modes`` and ``metrics`` (see :func:`cp_als`).
    Returns the full :class:`CPResult`: ``numbers`` plus the modeled fields.
    """
    order = len(shape)
    rank = numbers.weights.shape[0]
    mttkrp_time_by_mode: Dict[int, float] = {m: 0.0 for m in range(order)}
    other_time = 0.0
    run = DecompositionTimeline(getattr(engine, "resolved_cluster", None), ctx.chaos)
    # Each mode's profile on the current topology; a node loss clears it.
    profiles: Dict[int, Profile] = {}
    iteration = 0
    while iteration < numbers.iterations:
        for mode in range(order):
            if mode not in profiles:
                profiles[mode] = engine.profile(mode, rank, run.cluster)
            profile = profiles[mode]
            mttkrp_time_by_mode[mode] += profile.estimated_time_s
            kernel_end, reduce_end = run.book(profile, f"mttkrp:mode{mode}")
            failure = run.due_failure()
            if failure is not None:
                # This mode's kernel and collective never delivered: their
                # bookings stay on the timeline as wasted work.  Re-stage
                # the lost shards on the survivors and book the sweep again.
                run.recover(failure, engine.resident(), iteration=iteration, mode=mode)
                profiles.clear()
                break
            dense_s = engine.dense_update_time(shape[mode], rank, order)
            other_time += dense_s
            # Sequential: the dense update waits for the all-reduce.  With
            # overlap_modes the solve proceeds on each device's reduce-
            # scattered rows while the collective's tail rides the links,
            # so the dense update is gated on the kernel only; the next
            # mode's kernel still books after both, at the makespan.
            run.timeline.book_together(
                run.lanes,
                dense_s,
                ready_s=kernel_end if ctx.overlap_modes else reduce_end,
                label=f"dense:mode{mode}",
            )
        else:  # the sweep completed; a node loss breaks out to book it again
            iteration += 1

    return CPResult(
        factors=numbers.factors,
        weights=numbers.weights,
        fits=numbers.fits,
        iterations=numbers.iterations,
        mttkrp_time_by_mode=mttkrp_time_by_mode,
        other_time_s=other_time,
        setup_time_s=setup_time_s,
        engine_name=engine.name,
        overlap_modes=ctx.overlap_modes,
        **run.finish(ctx.metrics, "cp_als", numbers.iterations),
    )
