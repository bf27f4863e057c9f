"""Benchmark-regression gate for CI.

The simulated kernel times are *deterministic* — they are cost-model
arithmetic, not wall-clock measurements — so they make a noise-free
regression signal: if a code change makes a modeled hot path slower (more
traffic, a lost overlap, a worse reduction), the simulated seconds move and
CI can fail on it without flaky-timer tolerance games.

``collect_metrics()`` runs a quick-mode subset of the scaling, streaming
and serving experiments and flattens them into named scalar metrics
(seconds; lower is better — the serving suite reports latency percentiles,
the makespan and seconds-per-job, i.e. inverse throughput, so a throughput
regression fails the gate too).  The committed baselines live in
``benchmarks/baselines/`` as ``BENCH_scaling.json`` /
``BENCH_streaming.json`` / ``BENCH_serving.json``; the CI ``bench`` job
re-collects the metrics, uploads them as artifacts, and fails when any
metric regresses by more than the tolerance (default 20 %).  Improvements
never fail; refresh the baseline with ``--update`` when a change is an
intentional model shift.

Usage::

    python -m repro.bench.regression --check             # compare vs baseline
    python -m repro.bench.regression --update            # rewrite the baseline
    python -m repro.bench.regression --check --out-dir bench-artifacts
    python -m repro.bench.regression --check --suite wallclock   # wall time

One suite is *not* simulated time: ``wallclock`` (see
:mod:`repro.bench.wallclock`) measures real host seconds per execution
backend.  It is excluded from the default ``--check`` run — wall time is
noisy and the suite takes minutes — and runs in its own CI job via
``--suite wallclock``, with a wide ratio band (``SUITE_TOLERANCES``) plus
zero-tolerance identity/speedup counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.bench.multinode import run_multinode_scaling
from repro.bench.scaling import run_scaling, run_weak_scaling
from repro.bench.serving import DEFAULT_CROSS_NODE_EVERY, run_serving
from repro.bench.streaming import run_streaming
from repro.gpusim.timeline import Timeline
from repro.serve.autoscale import AutoscalerSpec

__all__ = [
    "DEFAULT_BASELINE_DIR",
    "DEFAULT_TOLERANCE",
    "DEFAULT_SUITES",
    "SUITE_TOLERANCES",
    "collect_metrics",
    "compare_metrics",
    "main",
]

#: Where the committed baselines live, relative to the repository root.
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"

#: Maximum tolerated slowdown of any single metric (0.2 == +20 %).
DEFAULT_TOLERANCE = 0.20

#: The artifact files, keyed by suite name.
ARTIFACT_FILES = {
    "scaling": "BENCH_scaling.json",
    "multinode": "BENCH_multinode.json",
    "streaming": "BENCH_streaming.json",
    "serving": "BENCH_serving.json",
    "timeline": "BENCH_timeline.json",
    "faults": "BENCH_faults.json",
    "slo": "BENCH_slo.json",
    "obs": "BENCH_obs.json",
    "adaptive": "BENCH_adaptive.json",
    "wallclock": "BENCH_wallclock.json",
}

#: The deterministic simulated-time suites — what ``--check`` runs when no
#: ``--suite`` is given.  The ``wallclock`` suite measures real host time
#: (noisy, and minutes-long), so it runs only on explicit request: the CI
#: ``wallclock`` job passes ``--suite wallclock``.
DEFAULT_SUITES = tuple(s for s in ARTIFACT_FILES if s != "wallclock")

#: Per-suite tolerance floors.  Wall-clock ratios on shared runners need a
#: far wider band than the noise-free simulated seconds; the effective
#: tolerance for a suite is ``max(--tolerance, SUITE_TOLERANCES[suite])``.
#: (Counts stay zero-tolerance everywhere — the band never applies to them.)
SUITE_TOLERANCES = {"wallclock": 0.50}


def _scaling_metrics() -> Dict[str, float]:
    """Quick-mode multi-GPU scaling subset: one dataset, three kernels."""
    metrics: Dict[str, float] = {}
    strong = run_scaling(
        rank=8, datasets=["brainq"], device_counts=(1, 2, 4), seed=0
    )
    for row in strong.rows:
        key = f"strong/{row.operation}/{row.workload}/gpus={row.num_devices}"
        metrics[key] = row.time_s
    weak = run_weak_scaling(rank=8, device_counts=(1, 2, 4), seed=0)
    for row in weak.rows:
        key = f"weak/{row.operation}/gpus={row.num_devices}"
        metrics[key] = row.time_s
    return metrics


def _multinode_metrics() -> Dict[str, float]:
    """Quick-mode multi-node subset: one dataset, 1/2/4 nodes of 2 GPUs.

    Beyond the per-point kernel times, the suite tracks the modeled
    hierarchical reduction seconds of the largest cluster per all-reduce
    kernel, and ``.../hier_minus_flat_count`` pseudo-counts — 0 while the
    hierarchical collective is no costlier than the flat ring on every
    row, 1 the moment any row regresses past it (counts fail on any
    increase, so the gate pins the tentpole property).
    """
    metrics: Dict[str, float] = {}
    result = run_multinode_scaling(
        rank=8, datasets=["brainq"], node_counts=(1, 2, 4), devices_per_node=2, seed=0
    )
    violations = 0
    for row in result.rows:
        key = f"multinode/{row.operation}/{row.workload}/nodes={row.num_nodes}"
        metrics[key] = row.time_s
        if row.num_nodes > 1:
            metrics[f"{key}/reduction"] = row.reduction_s
            if row.reduction_s > row.flat_reduction_s + 1e-15:
                # Count every offending row, not just the first: a refresh
                # after a model change should see the full damage at once.
                violations += 1
    metrics["multinode/hier_minus_flat_count"] = float(violations)
    return metrics


def _streaming_metrics() -> Dict[str, float]:
    """Quick-mode out-of-core subset: the smaller dataset analogs."""
    metrics: Dict[str, float] = {}
    result = run_streaming(rank=8, datasets=["brainq", "nell2"])
    for row in result.rows:
        key = f"streamed/{row.dataset}/streams={row.num_streams}"
        metrics[key] = row.streamed_s
    return metrics


def _serving_metrics() -> Dict[str, float]:
    """Quick-mode serving subset: a 40-job workload on the default node.

    Most metrics are simulated seconds (lower is better): the latency
    percentiles and makespan catch latency regressions, and seconds-per-
    completed-job is the throughput inverse, so slower serving fails the
    gate from either direction.  ``serve/rejected_jobs_count`` is a
    *count* (see :func:`compare_metrics`: any increase over the baseline
    fails, no ratio tolerance): wrongly refusing traffic makes every
    latency metric look better — the rejected jobs leave the population —
    so the rejection count itself must not grow.
    """
    report = run_serving(num_jobs=40, seed=0)
    completed = max(len(report.completed), 1)
    return {
        "serve/p50_latency": report.p50_latency_s,
        "serve/p99_latency": report.p99_latency_s,
        "serve/makespan": report.makespan_s,
        "serve/seconds_per_job": report.makespan_s / completed,
        "serve/mean_queue_wait": report.mean_queue_wait_s,
        "serve/rejected_jobs_count": float(len(report.rejected)),
    }


def _timeline_metrics() -> Dict[str, float]:
    """Unified-timeline suite: NIC congestion and intra-kernel overlap.

    Two deterministic scenarios pin the tentpole properties of the
    simulated-time resource engine:

    * **congestion** — two cross-node all-reduces booked concurrently on a
      shared two-node timeline.  ``.../congestion_slowdown_ratio`` is the
      second collective's finish over the idle-NIC closed form (larger
      means the contention model got more pessimistic, which the ratio
      tolerance flags), and ``.../contended_lt_idle_count`` counts — over
      a payload/topology sweep — any booked collective finishing *earlier*
      than the idle model, which must never happen (``_count``: any
      increase fails).
    * **overlap** — a sharded CP-ALS run with ``overlap_modes`` on vs off
      (identical factors by construction).  ``.../overlap_makespan`` is
      the overlapped modeled makespan (seconds, lower is better) and
      ``.../overlap_time_ratio`` is overlapped over sequential makespan —
      at most 1, the inverse of the overlap speedup.  The ratio tolerance
      alone cannot catch a *silently disabled* overlap (the ratio is
      bounded by 1.0, inside +20 % of any healthy baseline), so two
      zero-tolerance counts pin the property:
      ``.../overlap_gt_sequential_count`` — the overlapped makespan
      exceeded the sequential one (the engine guarantee broke) — and
      ``.../overlap_lost_count`` — the scenario, constructed to hide well
      over 1 % of the sequential makespan, saved 1 % or less, i.e.
      ``overlap_modes`` stopped overlapping anything.
    """
    from repro.algorithms.cp import UnifiedGPUEngine, cp_als
    from repro.context import ExecContext
    from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec
    from repro.tensor.random import random_sparse_tensor

    metrics: Dict[str, float] = {}
    contended_violations = 0

    def contended_ends(num_nodes: int, nbytes: float) -> Tuple[float, float]:
        cluster = ClusterSpec.homogeneous(num_nodes=num_nodes, devices_per_node=2, nic=ETHERNET_10G)
        idle = cluster.allreduce_time(nbytes)
        timeline = Timeline()
        first = cluster.book_allreduce(timeline, nbytes)
        second = cluster.book_allreduce(timeline, nbytes)
        return idle, max(first.end_s, second.end_s)

    for num_nodes in (2, 3):
        for nbytes in (64 * 1024, 1 << 20, 8 << 20):
            idle, contended = contended_ends(num_nodes, float(nbytes))
            if contended < idle:
                contended_violations += 1
    idle, contended = contended_ends(2, float(8 << 20))
    metrics["timeline/congestion_slowdown_ratio"] = contended / idle
    metrics["timeline/contended_lt_idle_count"] = float(contended_violations)

    cluster = ClusterSpec.homogeneous(num_nodes=2, devices_per_node=2, nic=ETHERNET_10G)
    # A tall mode-0 makes the dense update big enough to hide a visible
    # fraction of the collective behind, so a lost overlap moves the ratio.
    tensor = random_sparse_tensor((60_000, 60, 50), 12_000, seed=3)
    sequential = cp_als(
        tensor,
        16,
        engine=UnifiedGPUEngine(ctx=ExecContext(cluster=cluster)),
        max_iterations=2,
        compute_fit=False,
    )
    overlapped = cp_als(
        tensor,
        16,
        engine=UnifiedGPUEngine(ctx=ExecContext(cluster=cluster)),
        max_iterations=2,
        compute_fit=False,
        ctx=ExecContext(overlap_modes=True),
    )
    ratio = overlapped.makespan_s / sequential.makespan_s
    metrics["timeline/overlap_makespan"] = overlapped.makespan_s
    metrics["timeline/overlap_time_ratio"] = ratio
    metrics["timeline/overlap_gt_sequential_count"] = float(
        overlapped.makespan_s > sequential.makespan_s
    )
    metrics["timeline/overlap_lost_count"] = float(ratio > 0.99)
    return metrics


def _faults_metrics() -> Dict[str, float]:
    """Fault-tolerance suite: checkpoint/replay under seeded node loss.

    Three scenarios pin the tentpole property — a run that loses a node
    mid-flight must produce *bit-identical* numerics to its failure-free
    twin, at a modeled recovery cost:

    * **CP-ALS / Tucker-HOOI** — a two-node sharded decomposition with one
      node killed mid-sweep.  ``faults/identity_violation_count`` counts
      any factor/weight/core array that is not ``np.array_equal`` to the
      failure-free run's (zero tolerance: any increase fails), and
      ``faults/recovery_cost_missing_count`` fires when a recovery was
      recorded with no positive modeled restage cost — recovery must never
      be free.  ``faults/cp_recovery_overhead_ratio`` records the
      recovered-over-clean makespan ratio; note it may be *below* 1 — the
      survivor topology drops the slow NIC collective — so it is tracked
      with the ordinary ratio tolerance, never asserted > 1.
    * **serving** — the 40-job multi-node workload with one seeded node
      loss.  ``faults/serve_lost_jobs_count`` (zero tolerance) is the
      number of jobs the chaos run completed *fewer* than the clean run —
      a node loss may delay work, never lose it — and
      ``faults/serve_requeued_jobs`` tracks the re-queue volume.
    """
    import numpy as np

    from repro.algorithms.cp import UnifiedGPUEngine, cp_als
    from repro.algorithms.tucker import tucker_hooi
    from repro.context import ExecContext
    from repro.gpusim.cluster import ETHERNET_10G, ClusterSpec, NodeFailure
    from repro.tensor.random import random_sparse_tensor

    def two_nodes() -> ClusterSpec:
        return ClusterSpec.homogeneous(num_nodes=2, devices_per_node=2, nic=ETHERNET_10G)

    metrics: Dict[str, float] = {}
    identity_violations = 0
    missing_cost = 0
    tensor = random_sparse_tensor((300, 40, 30), 6_000, seed=11)

    clean_cp = cp_als(
        tensor,
        8,
        engine=UnifiedGPUEngine(ctx=ExecContext(cluster=two_nodes())),
        max_iterations=3,
        compute_fit=False,
    )
    failure = NodeFailure(time_s=clean_cp.makespan_s * 0.4, node_index=0)
    faulty_cp = cp_als(
        tensor,
        8,
        engine=UnifiedGPUEngine(ctx=ExecContext(cluster=two_nodes())),
        max_iterations=3,
        compute_fit=False,
        ctx=ExecContext(chaos=(failure,)),
    )
    identity_violations += sum(
        not np.array_equal(a, b)
        for a, b in zip(clean_cp.factors, faulty_cp.factors)
    )
    identity_violations += not np.array_equal(clean_cp.weights, faulty_cp.weights)
    missing_cost += not (
        faulty_cp.recoveries and faulty_cp.recovery_overhead_s > 0.0
    )
    metrics["faults/cp_restage"] = faulty_cp.recovery_overhead_s
    metrics["faults/cp_recovered_makespan"] = faulty_cp.makespan_s
    metrics["faults/cp_recovery_overhead_ratio"] = (
        faulty_cp.makespan_s / clean_cp.makespan_s
    )

    clean_tk = tucker_hooi(
        tensor, (6, 6, 6), ctx=ExecContext(cluster=two_nodes()), max_iterations=2
    )
    tk_failure = NodeFailure(time_s=clean_tk.makespan_s * 0.4, node_index=1)
    faulty_tk = tucker_hooi(
        tensor,
        (6, 6, 6),
        ctx=ExecContext(cluster=two_nodes(), chaos=(tk_failure,)),
        max_iterations=2,
    )
    identity_violations += sum(
        not np.array_equal(a, b)
        for a, b in zip(clean_tk.factors, faulty_tk.factors)
    )
    identity_violations += not np.array_equal(clean_tk.core, faulty_tk.core)
    missing_cost += not (
        faulty_tk.recoveries and faulty_tk.recovery_overhead_s > 0.0
    )
    metrics["faults/tucker_restage"] = faulty_tk.recovery_overhead_s

    clean_serve = run_serving(num_jobs=40, seed=0, nodes=2)
    # chaos_seed=4 draws a failure instant that catches jobs in flight on
    # node 0, so the re-queue path is genuinely exercised (requeues > 0).
    chaos_serve = run_serving(num_jobs=40, seed=0, nodes=2, chaos_seed=4, fail_node=0)
    metrics["faults/serve_lost_jobs_count"] = float(
        max(0, len(clean_serve.completed) - len(chaos_serve.completed))
    )
    metrics["faults/serve_requeued_jobs"] = float(chaos_serve.requeued_jobs)
    metrics["faults/serve_chaos_makespan"] = chaos_serve.makespan_s

    metrics["faults/identity_violation_count"] = float(identity_violations)
    metrics["faults/recovery_cost_missing_count"] = float(missing_cost)
    return metrics


def _comparable_arrays(output) -> List[object]:
    """The comparable ndarrays of any job output type.

    Shared by the SLO and adaptive suites' bit-identity gates: a dense
    kernel output is one array, a semi-sparse output its coordinate and
    value arrays, and a decomposition its factors plus weights/core.
    """
    import numpy as np

    if output is None:
        return []
    if isinstance(output, np.ndarray):
        return [output]
    if hasattr(output, "fiber_values"):  # SemiSparseTensor
        return [output.fiber_coords, output.fiber_values]
    out: List[object] = []  # CPResult / TuckerResult
    out.extend(getattr(output, "factors", []) or [])
    for attr in ("weights", "core"):
        value = getattr(output, attr, None)
        if value is not None:
            out.append(value)
    return out


def _slo_metrics() -> Dict[str, float]:
    """SLO-driven serving suite: deadline economics and preemption.

    A 100-job workload with 30 % latency tenants (each carrying a
    deadline) is served under the three policies on identical job lists.
    Two zero-tolerance counts pin the tentpole properties:

    * ``slo/preempted_identity_violation_count`` — every job the deadline
      policy completed (preempted-and-resumed victims included) must be
      ``np.array_equal`` to its twin from the preemption-free priority
      run.  Preemption moves work in *time*, never in *value*.
    * ``slo/deadline_unsound_count`` — the deadline policy's miss rate
      exceeded FIFO's on the same workload, i.e. deadline awareness made
      deadlines *worse*; must never happen.

    The remaining metrics track the economics with the ordinary ratio
    tolerance: miss rates per policy, the SLO-grade p99.9 latency, the
    modeled preemption overhead (victims' resume latency + factor
    re-stages), and the autoscaled run's makespan and scale-up volume
    (the pool starts at one device, so a loaded run must scale up).
    """
    import numpy as np

    slo_kwargs = dict(num_jobs=100, seed=0, slo_fraction=0.3, deadline_slack=30.0)
    edf = run_serving(policy="deadline", **slo_kwargs)
    fifo = run_serving(policy="fifo", **slo_kwargs)
    priority = run_serving(policy="priority", **slo_kwargs)

    arrays = _comparable_arrays

    twin = {r.job.job_id: r for r in priority.results if r.completed}
    identity_violations = 0
    for result in edf.results:
        other = twin.get(result.job.job_id)
        if not result.completed or other is None:
            continue
        ours, theirs = arrays(result.output), arrays(other.output)
        identity_violations += len(ours) != len(theirs) or any(
            not np.array_equal(a, b) for a, b in zip(ours, theirs)
        )

    autoscaled = run_serving(
        policy="deadline",
        autoscale=AutoscalerSpec(min_devices=1),
        **slo_kwargs,
    )
    scale_ups = sum(1 for e in autoscaled.scale_events if e.action == "up")

    return {
        "slo/deadline_miss_rate": edf.deadline_miss_rate,
        "slo/fifo_miss_rate": fifo.deadline_miss_rate,
        "slo/deadline_unsound_count": float(
            edf.deadline_miss_rate > fifo.deadline_miss_rate + 1e-12
        ),
        "slo/preempted_identity_violation_count": float(identity_violations),
        "slo/preemptions": float(len(edf.preemptions)),
        "slo/preemption_overhead": edf.preemption_overhead_s,
        "slo/p999_latency": edf.p999_latency_s,
        "slo/makespan": edf.makespan_s,
        "slo/autoscale_makespan": autoscaled.makespan_s,
        "slo/autoscale_scale_ups": float(scale_ups),
        "slo/autoscale_never_scaled_count": float(scale_ups == 0),
    }


def _obs_metrics() -> Dict[str, float]:
    """Observability suite: span attribution soundness and determinism.

    A 40-job multi-node serving run is collected twice with full
    telemetry.  Three zero-tolerance counts pin the tentpole properties:

    * ``obs/attribution_gap_count`` — resources whose span-attributed plus
      untagged busy seconds do not reconcile with the timeline's busy
      time.  The attribution fold must account for every booked second; a
      single unreconciled resource fails the gate.
    * ``obs/untagged_busy_count`` — busy scheduler bookings carrying no
      span.  Every busy booking the serving path makes is tagged; an
      untagged one means a new code path forgot its span.
    * ``obs/metrics_nondeterminism_count`` — the two runs' Prometheus
      expositions or JSONL event logs differed byte for byte.  Telemetry
      is pure simulated-time arithmetic; any nondeterminism is a bug.

    The per-phase attributed seconds and the total NIC queueing wait ride
    along under the ordinary ratio tolerance, so attribution drift (e.g. a
    phase silently absorbing another's seconds) also surfaces.
    """
    first = run_serving(num_jobs=40, seed=0, nodes=2)
    second = run_serving(num_jobs=40, seed=0, nodes=2)
    attribution = first.attribution
    totals = attribution.phase_totals()
    nondeterminism = float(
        first.metrics.to_prometheus() != second.metrics.to_prometheus()
        or first.events.to_jsonl() != second.events.to_jsonl()
    )
    return {
        "obs/attribution_gap_count": float(attribution.gap_count),
        "obs/untagged_busy_count": float(attribution.untagged_busy_count),
        "obs/metrics_nondeterminism_count": nondeterminism,
        "obs/stage_attributed": totals.get("stage", 0.0),
        "obs/compute_attributed": totals.get("compute", 0.0),
        "obs/collective_attributed": totals.get("collective", 0.0),
        "obs/nic_wait": sum(c.nic_wait_s for c in attribution.jobs.values()),
        "obs/scheduler_events": float(len(first.events)),
    }


def _adaptive_metrics() -> Dict[str, float]:
    """Closed-loop scheduling suite: adaptive must never lose to static.

    Each scenario serves the same 40-job workload twice through one
    engine — the first run warms the preprocessing cache *and* the
    observation store, the second run is measured with the feedback loop
    closed — once static (FIFO NIC, feedback never consumed) and once
    adaptive (hedged run, plus a non-FIFO NIC discipline on the
    multi-node scenarios).  Three zero-tolerance counts pin the tentpole
    properties:

    * ``adaptive/regression_count`` — a measured adaptive makespan
      exceeded its static twin's.  The hedged engine trial-schedules both
      ways and keeps adaptive only on a strict win, so this must never
      happen by construction.
    * ``adaptive/identity_violation_count`` — a job completed by both
      twins whose outputs are not ``np.array_equal``.  Feedback moves
      work in *time*, never in *value*.
    * ``adaptive/gang_feasibility_violation_count`` — the adaptive runs'
      timelines reported booking violations (a displaced collective gang
      torn apart or double-booked); must stay empty under every NIC
      discipline.

    The per-scenario improvement ratios (adaptive over static makespan,
    at most 1.0 when the hedge holds) ride along as ungated ``_info``
    trend metrics, and the measured adaptive makespans are gated with the
    ordinary ratio tolerance.
    """
    import numpy as np

    from repro.serve.engine import ServingEngine
    from repro.serve.workload import (
        WorkloadSpec,
        default_multinode_serving_cluster,
        generate_workload,
    )

    def measure(make_cluster, jobs, *, adaptive: bool, nic_policy: str = "fifo"):
        engine = ServingEngine(
            make_cluster(),
            autotune=True,
            adaptive=adaptive,
            nic_policy=nic_policy,
        )
        engine.run(jobs)  # warm-up: fills the cache and observation store
        return engine.run(jobs)

    single_jobs = generate_workload(WorkloadSpec(num_jobs=40, seed=0))
    multi_jobs = generate_workload(
        WorkloadSpec(
            num_jobs=40, seed=0, cross_node_every=DEFAULT_CROSS_NODE_EVERY
        )
    )
    single = lambda: None  # noqa: E731 - default serving node
    multi = lambda: default_multinode_serving_cluster(2)  # noqa: E731

    scenarios = {
        "serving": (
            measure(single, single_jobs, adaptive=False),
            measure(single, single_jobs, adaptive=True),
        ),
        "multinode_fair": (
            measure(multi, multi_jobs, adaptive=False),
            measure(multi, multi_jobs, adaptive=True, nic_policy="fair"),
        ),
        "multinode_priority": (
            measure(multi, multi_jobs, adaptive=False),
            measure(multi, multi_jobs, adaptive=True, nic_policy="priority"),
        ),
    }

    metrics: Dict[str, float] = {}
    regressions = 0
    identity_violations = 0
    infeasible = 0
    for name, (static, adaptive) in scenarios.items():
        regressions += adaptive.makespan_s > static.makespan_s + 1e-12
        twin = {r.job.job_id: r for r in static.results if r.completed}
        for result in adaptive.results:
            other = twin.get(result.job.job_id)
            if not result.completed or other is None:
                continue
            ours = _comparable_arrays(result.output)
            theirs = _comparable_arrays(other.output)
            identity_violations += len(ours) != len(theirs) or any(
                not np.array_equal(a, b) for a, b in zip(ours, theirs)
            )
        if adaptive.timeline is not None:
            infeasible += len(adaptive.timeline.violations())
        metrics[f"adaptive/{name}_makespan"] = adaptive.makespan_s
        metrics[f"adaptive/{name}_improvement_ratio_info"] = (
            adaptive.makespan_s / static.makespan_s if static.makespan_s else 1.0
        )
    metrics["adaptive/regression_count"] = float(regressions)
    metrics["adaptive/identity_violation_count"] = float(identity_violations)
    metrics["adaptive/gang_feasibility_violation_count"] = float(infeasible)
    return metrics


def _wallclock_metrics() -> Dict[str, float]:
    """Wall-clock suite (quick mode): see :mod:`repro.bench.wallclock`.

    The only suite measuring real host seconds.  Ratios are gated with the
    wide ``SUITE_TOLERANCES["wallclock"]`` band, the ``_count`` metrics
    (identity violations, SpMTTKRP speedup < 2×) are zero-tolerance, and
    the ``_info`` absolute medians are recorded but never gated.
    """
    from repro.bench.wallclock import run_wallclock

    return run_wallclock(quick=True)


_SUITE_COLLECTORS = {
    "scaling": _scaling_metrics,
    "multinode": _multinode_metrics,
    "streaming": _streaming_metrics,
    "serving": _serving_metrics,
    "timeline": _timeline_metrics,
    "faults": _faults_metrics,
    "slo": _slo_metrics,
    "obs": _obs_metrics,
    "adaptive": _adaptive_metrics,
    "wallclock": _wallclock_metrics,
}


def collect_metrics(
    suites: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Regression metrics grouped by suite; default: the simulated suites."""
    selected = tuple(suites) if suites else DEFAULT_SUITES
    unknown = [s for s in selected if s not in _SUITE_COLLECTORS]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; "
            f"choose from {', '.join(_SUITE_COLLECTORS)}"
        )
    return {suite: _SUITE_COLLECTORS[suite]() for suite in selected}


def compare_metrics(
    baseline: Dict[str, float],
    current: Dict[str, float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Compare one suite against its baseline.

    Returns ``(regressions, notes)``: a metric regresses when it is more
    than ``tolerance`` slower than the baseline; metrics added or removed
    relative to the baseline are reported as notes (they fail nothing —
    they mean the baseline needs an ``--update``).  Metrics whose name
    ends in ``_count`` are integer counts, not seconds: *any* increase
    over the baseline fails, with no ratio tolerance (a ratio of a small
    count is meaningless), while decreases pass as improvements.  Metrics
    ending in ``_info`` are recorded for trend artifacts but never gated
    (the wall-clock suite uses this for absolute medians, which are
    machine-dependent).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    regressions: List[str] = []
    notes: List[str] = []
    for name in sorted(set(baseline) | set(current)):
        if name.endswith("_info"):
            continue
        if name not in current:
            notes.append(f"metric disappeared (baseline has it): {name}")
            continue
        if name not in baseline:
            notes.append(f"new metric (not in baseline): {name}")
            continue
        base, now = baseline[name], current[name]
        if name.endswith("_count"):
            if now > base:
                regressions.append(
                    f"{name}: {base:.0f} -> {now:.0f} (count may not increase)"
                )
            continue
        if base <= 0.0:
            # A zero-cost baseline cannot express a ratio; only flag it
            # when the metric became non-trivially expensive.
            if now > 1e-12:
                regressions.append(f"{name}: baseline 0 s -> {now:.3e} s")
            continue
        ratio = now / base
        if ratio > 1.0 + tolerance:
            regressions.append(
                f"{name}: {base:.3e} s -> {now:.3e} s (+{(ratio - 1.0) * 100.0:.1f}%)"
            )
    return regressions, notes


def _payload(suite: str, metrics: Dict[str, float]) -> Dict[str, object]:
    if suite == "wallclock":
        return {
            "version": __version__,
            "tolerance": SUITE_TOLERANCES["wallclock"],
            "unit": (
                "wall-clock seconds (noisy; ratios banded, _count zero-"
                "tolerance, _info ungated)"
            ),
            "metrics": metrics,
        }
    return {
        "version": __version__,
        "tolerance": DEFAULT_TOLERANCE,
        "unit": "simulated seconds (deterministic; lower is better)",
        "metrics": metrics,
    }


def _write_suite(path: Path, suite: str, metrics: Dict[str, float]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(_payload(suite, metrics), indent=2, sort_keys=True) + "\n"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code (non-zero on regression)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Deterministic benchmark-regression gate for CI.",
    )
    action = parser.add_mutually_exclusive_group()
    action.add_argument(
        "--check", action="store_true", help="compare current metrics to the baseline"
    )
    action.add_argument(
        "--update", action="store_true", help="rewrite the committed baseline files"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help=f"directory of the committed baselines (default: {DEFAULT_BASELINE_DIR})",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="also write the freshly collected metrics here (the CI artifacts)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"maximum tolerated slowdown ratio (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--suite",
        action="append",
        dest="suite",
        metavar="NAME",
        default=None,
        help=(
            "suite(s) to run (repeatable); default: every simulated-time "
            "suite.  The 'wallclock' suite measures real host time and runs "
            "only when requested explicitly; see --list-suites"
        ),
    )
    parser.add_argument(
        "--list-suites",
        action="store_true",
        help="print the known suite names (one per line) and exit",
    )
    args = parser.parse_args(argv)

    if args.list_suites:
        for suite in ARTIFACT_FILES:
            print(suite)
        return 0
    if not (args.check or args.update):
        parser.error("one of the arguments --check --update is required")

    if args.suite:
        unknown = [s for s in args.suite if s not in ARTIFACT_FILES]
        if unknown:
            parser.error(
                f"unknown suite(s): {', '.join(unknown)}; "
                f"valid suites: {', '.join(ARTIFACT_FILES)} "
                "(see --list-suites)"
            )

    suites = collect_metrics(args.suite)

    if args.out_dir is not None:
        for suite, metrics in suites.items():
            _write_suite(args.out_dir / ARTIFACT_FILES[suite], suite, metrics)

    if args.update:
        for suite, metrics in suites.items():
            path = args.baseline_dir / ARTIFACT_FILES[suite]
            _write_suite(path, suite, metrics)
            print(f"wrote {path} ({len(metrics)} metrics)")
        return 0

    total_violations = 0
    failed_suites: List[str] = []
    for suite, metrics in suites.items():
        suite_tolerance = max(args.tolerance, SUITE_TOLERANCES.get(suite, 0.0))
        path = args.baseline_dir / ARTIFACT_FILES[suite]
        if not path.exists():
            print(f"FAIL [{suite}] missing baseline {path}; run with --update")
            failed_suites.append(suite)
            total_violations += 1
            continue
        baseline = json.loads(path.read_text())["metrics"]
        regressions, notes = compare_metrics(
            baseline, metrics, tolerance=suite_tolerance
        )
        for note in notes:
            print(f"note [{suite}] {note}")
        if regressions:
            failed_suites.append(suite)
            total_violations += len(regressions)
            for regression in regressions:
                print(f"FAIL [{suite}] {regression}")
        else:
            print(
                f"ok   [{suite}] {len(metrics)} metrics within "
                f"{suite_tolerance * 100.0:.0f}% of baseline"
            )
    if failed_suites:
        # Every violation has already been printed above — one CI round
        # sees the complete damage; this is the roll-up.
        print(
            f"FAIL {total_violations} violation(s) across "
            f"{len(failed_suites)} suite(s): {', '.join(failed_suites)}"
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
