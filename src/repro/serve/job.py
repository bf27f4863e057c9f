"""The serving subsystem's unit of work: tenant-submitted jobs.

A :class:`Job` is one request against the simulated cluster — a single
unified kernel invocation (SpTTM / SpMTTKRP / SpTTMc) or a full
decomposition (CP-ALS / Tucker-HOOI).  Jobs carry everything needed to
execute them deterministically: the tensor, the target mode and rank, a
factor seed (the dense operands are regenerated from it, so a job is a
value, not a closure), a tenant id, an arrival time on the simulated clock
and a priority class.

:class:`JobResult` is the scheduler's ledger for one job: the numeric
output, where it ran, which execution path it took (one-shot / streamed /
sharded / decomposition), whether preprocessing hit the cache, and the full
latency breakdown (queue wait, host preprocessing, staging, execution).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.context import SLO
from repro.formats.mode_encoding import OperationKind
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_mode, check_rank

__all__ = ["JobKind", "Job", "JobStatus", "JobResult"]


class JobKind(enum.Enum):
    """What a serving job asks the cluster to compute."""

    SPTTM = "spttm"
    SPMTTKRP = "spmttkrp"
    SPTTMC = "spttmc"
    CP_ALS = "cp_als"
    TUCKER = "tucker"

    @classmethod
    def coerce(cls, value: "JobKind | str") -> "JobKind":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise ValueError(
                f"unknown job kind {value!r}; choose from "
                f"{[k.value for k in cls]}"
            ) from exc

    @property
    def is_kernel(self) -> bool:
        """Single-kernel jobs (one F-COO encoding, one launch)."""
        return self in (JobKind.SPTTM, JobKind.SPMTTKRP, JobKind.SPTTMC)

    @property
    def operation(self) -> OperationKind:
        """The F-COO encoding this kind preprocesses (decompositions use
        the encoding of their bottleneck kernel)."""
        return _ENCODED_OPERATION[self]


_ENCODED_OPERATION = {
    JobKind.SPTTM: OperationKind.SPTTM,
    JobKind.SPMTTKRP: OperationKind.SPMTTKRP,
    JobKind.SPTTMC: OperationKind.SPTTMC,
    JobKind.CP_ALS: OperationKind.SPMTTKRP,
    JobKind.TUCKER: OperationKind.SPTTMC,
}


@dataclass(frozen=True)
class Job:
    """One tenant request against the serving cluster.

    Attributes
    ----------
    job_id:
        Unique id; ties in the queue order break on it, so ids make the
        schedule fully deterministic.
    tenant:
        Submitting tenant (informational; the preprocessing cache is shared
        across tenants and keyed by tensor *content*, so tenants submitting
        the same tensor share its encodings).
    kind:
        What to compute.
    tensor:
        The sparse input.
    mode:
        Target mode for kernel jobs (ignored by decompositions, which sweep
        all modes).
    rank:
        Factor columns for kernels / CP; decompositions clamp per-mode
        ranks to the mode sizes.
    priority:
        Priority class, lower is more urgent (0 = interactive, 1 = batch).
    arrival_s:
        Arrival time on the simulated clock.
    iterations:
        ALS/HOOI sweeps for decomposition jobs.
    factor_seed:
        Seed regenerating the dense operands (kernel factors, decomposition
        initial factors).
    slo:
        Optional :class:`~repro.context.SLO`: a latency deadline (relative
        to arrival), an SLO priority class, and whether the deadline-aware
        scheduler may preempt this job.  ``None`` — the default, and what
        every pre-SLO workload carries — means "batch semantics":
        no deadline, preemptible, priority taken from :attr:`priority`.
    """

    job_id: int
    tenant: str
    kind: JobKind
    tensor: SparseTensor
    mode: int = 0
    rank: int = 8
    priority: int = 1
    arrival_s: float = 0.0
    iterations: int = 2
    factor_seed: int = 0
    slo: Optional[SLO] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", JobKind.coerce(self.kind))
        check_mode(self.mode, self.tensor.order)
        check_rank(self.rank)
        if self.priority < 0:
            raise ValueError(f"priority must be non-negative, got {self.priority}")
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be non-negative, got {self.arrival_s}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be positive, got {self.iterations}")
        if not self.kind.is_kernel and self.tensor.nnz == 0:
            raise ValueError("decomposition jobs need a non-empty tensor")

    # ------------------------------------------------------------------ #
    @property
    def operation(self) -> OperationKind:
        """The F-COO operation this job's preprocessing targets."""
        return self.kind.operation

    @property
    def tucker_ranks(self) -> Tuple[int, ...]:
        """Per-mode multilinear rank of a Tucker job (clamped to the shape)."""
        return tuple(min(self.rank, s) for s in self.tensor.shape)

    @property
    def deadline_s(self) -> float:
        """Absolute completion deadline (``inf`` for jobs without one)."""
        if self.slo is None:
            return math.inf
        return self.slo.deadline_for(self.arrival_s)

    @property
    def preemptible(self) -> bool:
        """Whether the deadline-aware policy may preempt this job."""
        return self.slo.preemptible if self.slo is not None else True

    def factors(self) -> List[np.ndarray]:
        """The job's dense operands, regenerated deterministically.

        One ``(I_m, rank)`` factor per mode; kernel jobs use the subset
        their operation reads, CP-ALS uses them as the initial guess.
        """
        factors = random_factors(self.tensor.shape, self.rank, seed=self.factor_seed)
        return [np.asarray(f) for f in factors]

    @property
    def batch_key(self) -> Tuple[str, str, int, int]:
        """Jobs sharing this key may batch on one device: they share one
        F-COO encoding (same tensor content, operation and mode) and the
        same launch geometry (same rank)."""
        return (self.tensor.content_key, self.operation.value, self.mode, self.rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(id={self.job_id}, tenant={self.tenant!r}, kind={self.kind.value}, "
            f"nnz={self.tensor.nnz}, mode={self.mode}, rank={self.rank}, "
            f"priority={self.priority}, arrival={self.arrival_s:.3e}s)"
        )


class JobStatus(enum.Enum):
    """Terminal state of a job in the serving ledger."""

    COMPLETED = "completed"
    REJECTED = "rejected"


@dataclass
class JobResult:
    """The scheduler's ledger for one job.

    Attributes
    ----------
    job / status / reject_reason:
        The job and how it ended (``reject_reason`` set only for rejects).
    output:
        The numeric result: the kernel output (dense matrix /
        :class:`~repro.formats.semisparse.SemiSparseTensor`) or the
        decomposition result object.  ``None`` for rejected jobs.
    device_slots:
        Cluster slots the job ran on (several for a sharded job).
    execution:
        Path taken: ``"one-shot"``, ``"streamed"``, ``"sharded"`` or
        ``"decomposition"``.
    encode_cache_hit / tuner_cache_hit:
        Whether the F-COO encoding / tuned launch parameters came from the
        preprocessing cache (``tuner_cache_hit`` is ``None`` when the
        engine ran with auto-tuning off).
    batch_id / batch_leader:
        Batch the job executed in (``None`` outside a batch); the leader
        paid the batch's staging.
    preproc_s / stage_s / exec_s:
        Host preprocessing (encode + tune on a miss), host-to-device
        staging, and execution seconds.
    stage_start_s / exec_start_s / finish_s:
        Absolute simulated times of the staging start, kernel start and
        completion.
    placement:
        The :class:`~repro.serve.placement.Placement` the job executed
        with — pricing it through :func:`~repro.serve.execute.price_job`
        reproduces ``exec_s`` and ``execution``, and
        :func:`~repro.serve.execute.execute_job` reproduces ``output`` bit
        for bit on any placement (the properties ``tests/test_serving.py``
        asserts).
    requeues:
        How many times the job was torn down by a node failure and
        re-admitted before this (final) run; 0 for an undisturbed job.
    preemptions:
        How many times the deadline-aware policy preempted this job before
        it started computing and later re-dispatched it; 0 for an
        undisturbed job.
    preempted_s:
        Modeled seconds between the (last) preemption and the
        re-dispatched staging start — the victim-side latency cost of
        preemption.
    compute_s:
        Busy seconds the job's ``compute``-phase bookings attributed on the
        timeline (kernel time, including any run a node loss later tore
        down).  Filled by the span attribution fold after the run; 0 for
        rejected jobs.
    nic_wait_s:
        Seconds the job's collectives queued behind other jobs' traffic on
        shared link/NIC resources (``start - queued_from`` of its
        collective bookings) — pure congestion, not transfer time.
    preemption_overhead_s:
        Busy seconds of the job's ``recovery`` phase bookings: the
        re-staging it paid because it was torn off a failed node.  A
        preempted job re-stages from scratch, which counts as ``stage``.
    """

    job: Job
    status: JobStatus
    reject_reason: Optional[str] = None
    output: Any = None
    device_slots: Tuple[int, ...] = ()
    execution: str = ""
    encode_cache_hit: bool = False
    tuner_cache_hit: Optional[bool] = None
    batch_id: Optional[int] = None
    batch_leader: bool = False
    preproc_s: float = 0.0
    stage_s: float = 0.0
    exec_s: float = 0.0
    stage_start_s: float = 0.0
    exec_start_s: float = 0.0
    finish_s: float = 0.0
    block_size: int = 128
    threadlen: int = 8
    placement: Any = None
    requeues: int = 0
    preemptions: int = 0
    preempted_s: float = 0.0
    compute_s: float = 0.0
    nic_wait_s: float = 0.0
    preemption_overhead_s: float = 0.0

    @property
    def completed(self) -> bool:
        """Whether the job produced a result."""
        return self.status is JobStatus.COMPLETED

    @property
    def missed_deadline(self) -> bool:
        """Whether the job had a deadline and failed it (rejected jobs with
        a deadline count as missed; jobs without one never miss)."""
        if self.job.slo is None or not self.job.slo.has_deadline:
            return False
        if not self.completed:
            return True
        return self.finish_s > self.job.deadline_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: completion minus arrival."""
        return self.finish_s - self.job.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Seconds between arrival and the start of staging (host
        preprocessing included — it delays staging)."""
        return max(0.0, self.stage_start_s - self.job.arrival_s)
