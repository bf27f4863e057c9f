"""Multi-tenant serving over the simulated cluster (extension experiment).

The paper measures one kernel at a time; the ROADMAP's north star is a
system *serving* a stream of them.  This runner generates a seeded
synthetic multi-tenant workload (see
:class:`repro.serve.workload.WorkloadSpec`), serves it through the
:class:`repro.serve.ServingEngine` on the default heterogeneous analog
node, and reports throughput, latency percentiles, per-device utilisation
and preprocessing-cache effectiveness.  Everything is simulated time from
the deterministic cost models, so the numbers are reproducible bit for bit
and feed the CI regression gate (``repro.bench.regression``).
"""

from __future__ import annotations

from typing import Optional

from repro.serve.engine import ServingEngine, ServingReport
from repro.serve.workload import (
    ChaosSpec,
    WorkloadSpec,
    default_multinode_serving_cluster,
    generate_chaos,
    generate_workload,
)

__all__ = ["run_serving", "DEFAULT_CROSS_NODE_EVERY"]

#: Cross-node tenant cadence of the multi-node serving mode: every n-th job
#: submits the tensor that exceeds any single node's aggregate memory.
DEFAULT_CROSS_NODE_EVERY = 14


def run_serving(
    *,
    num_jobs: int = 100,
    seed: int = 0,
    policy: str = "priority",
    nodes: Optional[int] = None,
    chaos_seed: Optional[int] = None,
    fail_node: Optional[int] = None,
    slo_fraction: float = 0.0,
    deadline_slack: Optional[float] = None,
) -> ServingReport:
    """Serve a seeded synthetic workload and return the full report.

    The engine autotunes every kernel job's launch through its
    preprocessing cache.

    Parameters
    ----------
    num_jobs / seed:
        Workload size and seed (the default 100-job workload exercises
        one-shot and capability-weighted sharded kernels, decompositions,
        batching, cache hits and admission rejects; none of its jobs runs
        streamed).
    policy:
        ``"priority"``, ``"fifo"`` or ``"deadline"`` (earliest deadline
        first with chunk-boundary preemption of batch jobs).
    nodes:
        Multi-node serving mode: with ``nodes >= 2`` the engine runs on
        :func:`~repro.serve.workload.default_multinode_serving_cluster`
        instead of the heterogeneous
        :func:`~repro.serve.workload.default_serving_cluster`, and the
        workload adds cross-node tenants every
        :data:`DEFAULT_CROSS_NODE_EVERY` jobs, so the report exercises
        node-local sharding (off the NIC) *and* NIC-spanning jobs.
    chaos_seed / fail_node:
        Seeded chaos layer: with ``chaos_seed`` set, one node-loss event is
        drawn (:func:`~repro.serve.workload.generate_chaos`) inside the
        workload's arrival window and injected into the run — the
        scheduler tears down jobs in flight on the dead node and re-admits
        them on survivors.  ``fail_node`` pins the victim node instead of
        drawing it; the node does not recover.  Chaos draws from its own
        RNG stream, so the job list is identical to the failure-free run.
    slo_fraction / deadline_slack:
        SLO-driven serving: ``slo_fraction`` of the jobs become latency
        tenants with a deadline (see
        :attr:`~repro.serve.workload.WorkloadSpec.latency_slo_fraction`);
        ``deadline_slack`` overrides the workload's deadline tightness.
        The SLO draws are gated on the fraction, so ``slo_fraction=0``
        (the default) keeps the workload byte-identical to earlier PRs.
    """
    cluster = None
    cross_node_every = 0
    if nodes is not None and nodes >= 2:
        cluster = default_multinode_serving_cluster(nodes)
        cross_node_every = DEFAULT_CROSS_NODE_EVERY
    engine = ServingEngine(cluster, policy=policy, autotune=True)
    spec_kwargs = dict(
        num_jobs=num_jobs,
        seed=seed,
        cross_node_every=cross_node_every,
        latency_slo_fraction=slo_fraction,
    )
    if deadline_slack is not None:
        spec_kwargs["deadline_slack"] = deadline_slack
    jobs = generate_workload(WorkloadSpec(**spec_kwargs))
    chaos = None
    if chaos_seed is not None:
        num_targets = (
            nodes
            if nodes is not None and nodes >= 2
            else engine.cluster.num_devices
        )
        # Strike inside the arrival window, so jobs are still in flight.
        window_s = max((j.arrival_s for j in jobs), default=0.0) or 1e-3
        chaos = generate_chaos(
            ChaosSpec(
                seed=chaos_seed,
                num_failures=1,
                window_s=window_s,
                fail_node=fail_node,
            ),
            num_nodes=num_targets,
        )
    return engine.run(jobs, chaos=chaos)
