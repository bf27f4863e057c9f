"""Seeded synthetic serving workloads and the default serving cluster.

A serving benchmark needs a *repeatable* multi-tenant traffic pattern:
:func:`generate_workload` expands a :class:`WorkloadSpec` into a job list
with exponential inter-arrival times, a configurable kind mix, a small
shared tensor pool (so repeat submissions exercise the preprocessing
cache), priority classes, and — optionally — a "whale" tensor larger than
any single device (exercising the capability-weighted sharded path) and an
inadmissible giant whose dense operands exceed every device (exercising
admission control).  Everything derives from one seed; the same spec
always yields the same workload.

:func:`default_serving_cluster` is the heterogeneous node the serving
experiments run on: two full-rate and two half-rate analog GPUs.  Like the
capacity experiments, the devices are memory-scaled to the synthetic
analogs' size (the pool tensors carry thousands of non-zeros, not the
paper's 10^8) so the capacity effects — sharding, streamed fallback,
admission rejects — appear at laptop scale; the interconnect latency is
scaled down by the same reasoning as :func:`repro.bench.scaling.analog_interconnect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.context import SLO
from repro.gpusim.cluster import ClusterSpec, InterconnectSpec, NodeFailure, NodeSpec
from repro.gpusim.device import TITAN_X, scaled_device
from repro.serve.job import Job, JobKind
from repro.tensor.random import random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from repro.util.validation import check_non_negative_int, check_positive_int

__all__ = [
    "WorkloadSpec",
    "ChaosSpec",
    "generate_workload",
    "generate_chaos",
    "default_serving_cluster",
    "default_multinode_serving_cluster",
    "SERVE_INTERCONNECT",
    "SERVE_NIC",
]

#: The serving experiments' device link: PCIe-P2P bandwidth with the latency
#: scaled to the analog workloads (the pool tensors are ~10^4 smaller than
#: the paper's, so kernel times are microseconds; an unscaled 5 us hop would
#: dominate every collective the way it never would at paper scale).
SERVE_INTERCONNECT = InterconnectSpec("PCIe 3.0 x16 P2P [serving analog]", 12e9, 0.25e-6)

#: The multi-node serving experiments' inter-node tier: a 10 GbE NIC with
#: its latency scaled by the same factor as :data:`SERVE_INTERCONNECT` —
#: roughly a tenth of the P2P bandwidth and 10x the P2P latency, so the NIC
#: is unambiguously the slow tier and node locality genuinely pays.
SERVE_NIC = InterconnectSpec("10 GbE NIC [serving analog]", 1.25e9, 2.5e-6)


def default_serving_cluster() -> ClusterSpec:
    """The default heterogeneous serving node: 2 full-rate + 2 half-rate GPUs.

    A one-node cluster; the node carries the cluster's name, which keys
    its ``link:`` lane on the serving timeline.

    The half-rate members have half the DRAM/PCIe bandwidth (so their
    capability weight — and therefore their shard share and placement rank —
    is half the full-rate members') and half the memory.  Memory is scaled
    to the synthetic analog workloads so the default workload's whale
    tensor genuinely exceeds the largest device.
    """
    big = scaled_device(TITAN_X, 2.0e-5, name_suffix="serve big")
    small = scaled_device(
        TITAN_X, 1.0e-5, bandwidth_scale=0.5, name_suffix="serve small"
    )
    return NodeSpec(
        devices=(big, big, small, small),
        interconnect=SERVE_INTERCONNECT,
        name="serving node (2x full-rate + 2x half-rate)",
    ).as_cluster()


def default_multinode_serving_cluster(num_nodes: int = 2) -> ClusterSpec:
    """The default multi-node serving cluster: big and small nodes over a NIC.

    Even-indexed nodes hold two full-rate devices, odd-indexed nodes two
    half-rate/half-memory devices — the same device analogs as
    :func:`default_serving_cluster`, regrouped into nodes — joined by the
    :data:`SERVE_NIC` slow tier.  Sized so the default workload's whale
    tensor fits a *big node's* aggregate memory (its shards stay inside
    one node, off the NIC) while the cross-node tensor
    (``WorkloadSpec.cross_node_every``) exceeds every node's aggregate and
    must span the NIC.
    """
    check_positive_int(num_nodes, "num_nodes")
    big = scaled_device(TITAN_X, 2.0e-5, name_suffix="serve big")
    small = scaled_device(
        TITAN_X, 1.0e-5, bandwidth_scale=0.5, name_suffix="serve small"
    )
    nodes = tuple(
        NodeSpec(
            devices=(big, big) if i % 2 == 0 else (small, small),
            interconnect=SERVE_INTERCONNECT,
            name=f"node{i} ({'full' if i % 2 == 0 else 'half'}-rate pair)",
        )
        for i in range(num_nodes)
    )
    return ClusterSpec(
        nodes=nodes,
        nic=SERVE_NIC,
        name=f"serving cluster ({num_nodes} nodes over {SERVE_NIC.name})",
    )


def _default_kind_mix() -> Dict[JobKind, float]:
    return {
        JobKind.SPTTM: 0.30,
        JobKind.SPMTTKRP: 0.28,
        JobKind.SPTTMC: 0.20,
        JobKind.CP_ALS: 0.14,
        JobKind.TUCKER: 0.08,
    }


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic serving workload.

    Attributes
    ----------
    num_jobs / seed:
        Workload size and the seed every random choice derives from.
    num_tenants:
        Tenants round-robin-ish over the tensor pool (tenant names are
        informational; the cache keys on tensor content).
    mean_interarrival_s:
        Mean of the exponential inter-arrival distribution (simulated
        seconds); sized so the default cluster runs moderately loaded.
    kind_mix:
        Relative frequency of each job kind (normalised internally).
    rank_choices:
        Ranks sampled *per pool tensor* (each tenant model has one rank, so
        repeat submissions share tuner entries and batch keys; SpTTMc jobs
        cap theirs at 8 — the unfolding width is the rank to the power
        ``order - 1``).
    pool_tensors:
        Distinct small tensors in the shared pool.
    whale_every:
        Every ``n``-th job submits the pool's whale (an encoding larger
        than any single device, so it shards); 0 disables whales.
    cross_node_every:
        Every ``n``-th job submits the cross-node tensor — larger than any
        single *node's* aggregate memory on the default multi-node serving
        cluster, so its shards must span the NIC (on a single-node cluster
        it simply shards cluster-wide, streaming where needed); 0 (the
        default) disables it, keeping single-node workloads byte-identical
        to previous releases.  These jobs model the cross-node tenants of
        a multi-node deployment.
    giant_every:
        Every ``n``-th job submits the inadmissible giant (dense operands
        exceeding every device, so admission rejects it); 0 disables.
    high_priority_fraction:
        Fraction of jobs in the urgent class (priority 0; the rest are
        priority 1).
    latency_slo_fraction:
        Fraction of jobs carrying a latency :class:`~repro.context.SLO`
        (a hard completion deadline; the job is also forced into the
        urgent priority class and marked non-preemptible).  0 (the
        default) draws no SLOs at all, keeping the RNG stream — and
        therefore the whole workload — byte-identical to pre-SLO
        releases.
    deadline_slack:
        Deadline scale for latency-SLO jobs, as a multiple of
        ``mean_interarrival_s``: each deadline is
        ``mean_interarrival_s * deadline_slack * U(0.75, 1.5)`` past the
        job's arrival.
    """

    num_jobs: int = 100
    seed: int = 0
    num_tenants: int = 6
    mean_interarrival_s: float = 3.0e-6
    kind_mix: Dict[JobKind, float] = field(default_factory=_default_kind_mix)
    rank_choices: Tuple[int, ...] = (4, 8, 16)
    pool_tensors: int = 5
    whale_every: int = 9
    cross_node_every: int = 0
    giant_every: int = 33
    high_priority_fraction: float = 0.15
    latency_slo_fraction: float = 0.0
    deadline_slack: float = 12.0

    def __post_init__(self) -> None:
        check_non_negative_int(self.num_jobs, "num_jobs")
        check_positive_int(self.num_tenants, "num_tenants")
        check_positive_int(self.pool_tensors, "pool_tensors")
        if self.mean_interarrival_s <= 0:
            raise ValueError(
                f"mean_interarrival_s must be positive, got {self.mean_interarrival_s}"
            )
        if not self.kind_mix:
            raise ValueError("kind_mix must not be empty")
        if self.whale_every < 0 or self.giant_every < 0 or self.cross_node_every < 0:
            raise ValueError(
                "whale_every / cross_node_every / giant_every must be non-negative"
            )
        if not 0.0 <= self.high_priority_fraction <= 1.0:
            raise ValueError(
                f"high_priority_fraction must be in [0, 1], got {self.high_priority_fraction}"
            )
        if not 0.0 <= self.latency_slo_fraction <= 1.0:
            raise ValueError(
                f"latency_slo_fraction must be in [0, 1], got {self.latency_slo_fraction}"
            )
        if self.deadline_slack <= 0.0:
            raise ValueError(
                f"deadline_slack must be positive, got {self.deadline_slack}"
            )


def _tensor_pool(spec: WorkloadSpec, rng: np.random.Generator) -> List[SparseTensor]:
    """The shared pool of small tensors (orders 3 and 4, a few thousand nnz)."""
    pool: List[SparseTensor] = []
    for i in range(spec.pool_tensors):
        order = 3 if i % 2 == 0 else 4
        if order == 3:
            shape = tuple(int(rng.integers(24, 64)) for _ in range(3))
            nnz = int(rng.integers(600, 2400))
        else:
            shape = tuple(int(rng.integers(8, 20)) for _ in range(4))
            nnz = int(rng.integers(400, 1200))
        pool.append(
            random_sparse_tensor(
                shape,
                nnz,
                seed=int(rng.integers(0, 2**31 - 1)),
                distribution="power",
                concentration=1.0,
            )
        )
    return pool


def _whale_tensor(rng: np.random.Generator) -> SparseTensor:
    """A tensor whose F-COO encoding exceeds any default serving device."""
    return random_sparse_tensor(
        (160, 200, 140),
        48_000,
        seed=int(rng.integers(0, 2**31 - 1)),
        distribution="power",
        concentration=1.1,
    )


def _cross_node_tensor(rng: np.random.Generator) -> SparseTensor:
    """A tensor bigger than any single *node* of the multi-node cluster.

    Its F-COO encoding (plus a resident replica per member) exceeds even
    the big node's aggregate memory, so the placer cannot keep the job
    node-local: the shards span every node and the partial outputs reduce
    over the NIC — the cross-node tenant the multi-node workload models.
    The dense operands stay small, so the job is always admissible.
    """
    return random_sparse_tensor(
        (240, 280, 200),
        130_000,
        seed=int(rng.integers(0, 2**31 - 1)),
        distribution="power",
        concentration=1.05,
    )


def _giant_tensor(rng: np.random.Generator) -> SparseTensor:
    """A tensor whose *dense operands* exceed every device: inadmissible.

    The huge leading mode makes the factor matrix alone larger than the
    scaled device memories while the non-zero count stays tiny.
    """
    k = 400
    indices = np.stack(
        [
            rng.integers(0, 3_000_000, size=k),
            rng.integers(0, 24, size=k),
            rng.integers(0, 12, size=k),
        ],
        axis=1,
    )
    values = rng.standard_normal(k)
    return SparseTensor(indices, values, (3_000_000, 24, 12))


def generate_workload(spec: WorkloadSpec) -> List[Job]:
    """Expand a :class:`WorkloadSpec` into a deterministic job list.

    Jobs come back sorted by arrival time with ids in arrival order; the
    same spec always produces the same list (tensors, factors and arrivals
    all derive from ``spec.seed``).
    """
    rng = np.random.default_rng(spec.seed)
    pool = _tensor_pool(spec, rng)
    pool_ranks = [int(rng.choice(spec.rank_choices)) for _ in pool]
    whale = _whale_tensor(rng) if spec.whale_every else None
    giant = _giant_tensor(rng) if spec.giant_every else None
    # Drawn only when enabled, so a spec without cross-node tenants keeps
    # the exact RNG stream (and therefore workload) of previous releases.
    cross = _cross_node_tensor(rng) if spec.cross_node_every else None
    whale_rank, giant_rank, cross_rank = 8, 4, 8

    kinds = list(spec.kind_mix)
    mix = np.asarray([spec.kind_mix[k] for k in kinds], dtype=np.float64)
    if (mix < 0).any() or mix.sum() <= 0:
        raise ValueError("kind_mix frequencies must be non-negative and sum > 0")
    mix = mix / mix.sum()

    jobs: List[Job] = []
    clock = 0.0
    for job_id in range(spec.num_jobs):
        clock += float(rng.exponential(spec.mean_interarrival_s))
        kind = kinds[int(rng.choice(len(kinds), p=mix))]
        if spec.giant_every and job_id % spec.giant_every == spec.giant_every - 1:
            tensor, kind, rank = giant, JobKind.SPMTTKRP, giant_rank
        elif (
            spec.cross_node_every
            and job_id % spec.cross_node_every == spec.cross_node_every - 1
        ):
            tensor, rank = cross, cross_rank
            if not kind.is_kernel:
                kind = JobKind.SPMTTKRP  # keep cross-node decompositions out
        elif spec.whale_every and job_id % spec.whale_every == spec.whale_every - 1:
            tensor, rank = whale, whale_rank
            if not kind.is_kernel:
                kind = JobKind.SPMTTKRP  # keep whale decompositions out of quick runs
        else:
            pick = int(rng.integers(0, len(pool)))
            tensor, rank = pool[pick], pool_ranks[pick]
        if kind in (JobKind.SPTTMC, JobKind.TUCKER):
            rank = min(rank, 8)
        mode = int(rng.integers(0, tensor.order))
        priority = 0 if rng.random() < spec.high_priority_fraction else 1
        # SLO draws are gated exactly like the cross-node tensor above: a
        # spec without SLOs performs none, so its RNG stream (and workload)
        # stays byte-identical to pre-SLO releases.
        slo = None
        if spec.latency_slo_fraction and rng.random() < spec.latency_slo_fraction:
            slack = spec.mean_interarrival_s * spec.deadline_slack
            slo = SLO.latency(float(slack * rng.uniform(0.75, 1.5)))
            priority = 0  # latency tenants are by definition interactive
        jobs.append(
            Job(
                job_id=job_id,
                tenant=f"tenant-{int(rng.integers(0, spec.num_tenants))}",
                kind=kind,
                tensor=tensor,
                mode=mode,
                rank=rank,
                priority=priority,
                arrival_s=clock,
                iterations=2,
                factor_seed=int(rng.integers(0, 2**31 - 1)),
                slo=slo,
            )
        )
    return jobs


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded node-failure injection for a serving (or decomposition) run.

    The chaos layer draws its events from its *own* RNG stream
    (``np.random.default_rng(seed)``), completely independent of
    :func:`generate_workload`'s — enabling chaos never perturbs the job
    list, so a chaos run and its failure-free twin schedule the exact same
    work.

    Attributes
    ----------
    seed:
        Seed of the chaos stream.
    num_failures:
        How many failure events to draw.
    window_s:
        Failure times are uniform in ``(0, window_s)`` — size it to the
        modeled makespan of the run under attack so the failures land
        mid-flight.
    fail_node:
        Pin every failure to this node index; ``None`` draws the victim
        uniformly from ``num_nodes``.
    recover_after_s:
        When set, each failed node recovers this many modeled seconds
        after its failure (new work may then place on it again);
        ``None`` means the node stays down for the rest of the run.
    """

    seed: int = 0
    num_failures: int = 1
    window_s: float = 1e-4
    fail_node: Optional[int] = None
    recover_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive_int(self.num_failures, "num_failures")
        if self.window_s <= 0.0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.recover_after_s is not None and self.recover_after_s <= 0.0:
            raise ValueError(
                f"recover_after_s must be positive, got {self.recover_after_s}"
            )


def generate_chaos(spec: ChaosSpec, *, num_nodes: int) -> List[NodeFailure]:
    """Expand a :class:`ChaosSpec` into a sorted list of failure events.

    Deterministic in ``spec.seed``; the stream is independent of the
    workload generator's, so the same workload can be replayed with and
    without chaos.
    """
    num_nodes = check_positive_int(num_nodes, "num_nodes")
    if spec.fail_node is not None and not 0 <= spec.fail_node < num_nodes:
        raise ValueError(
            f"fail_node must be in [0, {num_nodes}), got {spec.fail_node}"
        )
    rng = np.random.default_rng(spec.seed)
    events = []
    for _ in range(spec.num_failures):
        time_s = float(rng.uniform(0.0, spec.window_s))
        node = (
            spec.fail_node
            if spec.fail_node is not None
            else int(rng.integers(0, num_nodes))
        )
        events.append(
            NodeFailure(
                time_s=time_s,
                node_index=node,
                recover_s=(
                    time_s + spec.recover_after_s
                    if spec.recover_after_s is not None
                    else None
                ),
            )
        )
    return sorted(events, key=lambda e: (e.time_s, e.node_index))
