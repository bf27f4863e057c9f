"""SLO-driven serving and the unified ``ExecContext`` API (PR 7).

Four pillars:

(a) **checkpointable bookings** — ``Timeline.release`` / ``truncate`` give
    engine time back exactly (tail-only, verified before mutation), so a
    preempted job's lanes roll back to the pre-commit horizons;
(b) **preemption identity** — a batch job preempted at a streamed chunk
    boundary (or torn down mid-staging) and later resumed produces output
    bit-identical to its unpreempted run, and the deadline it made room
    for is met *only because* of the preemption;
(c) **deadline economics** — the ``"deadline"`` policy's miss rate never
    exceeds FIFO's on the same workload, and with no SLOs in play it
    degenerates bit-identically to the ``"priority"`` policy (zero extra
    RNG draws, zero preemptions);
(d) **one context API** — every kernel/driver takes its execution
    controls as a validated ``ctx=ExecContext(...)``, and every run result
    carries the timeline its makespan is read from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.cp import cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.context import DEFAULT_CONTEXT, SLO, ExecContext
from repro.gpusim.cluster import NodeFailure
from repro.gpusim.timeline import Timeline, device_copy_key
from repro.serve import Job, JobKind, ServingEngine, execute_job
from repro.serve.workload import WorkloadSpec, generate_workload
from repro.tensor.random import random_sparse_tensor
from test_serving import assert_same_output, one_device_cluster
from test_streaming import CASES, RANK

BIG_CASE = "order3-power"


def outputs_equal(a, b) -> bool:
    """Bit-identical comparison across every job output type."""
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "fiber_values"):
        return np.array_equal(a.fiber_coords, b.fiber_coords) and np.array_equal(
            a.fiber_values, b.fiber_values
        )
    ours = list(getattr(a, "factors", []) or [])
    theirs = list(getattr(b, "factors", []) or [])
    for attr in ("weights", "core"):
        va, vb = getattr(a, attr, None), getattr(b, attr, None)
        if (va is None) != (vb is None):
            return False
        if va is not None:
            ours.append(va)
            theirs.append(vb)
    return len(ours) == len(theirs) and all(
        np.array_equal(x, y) for x, y in zip(ours, theirs)
    )


# ---------------------------------------------------------------------- #
# (a) Checkpointable bookings
# ---------------------------------------------------------------------- #
class TestReleaseAndTruncate:
    def test_release_tail_restores_horizons_exactly(self):
        timeline = Timeline()
        lane = timeline.resource("dev0.compute", category="compute")
        kept = lane.book(1.0, label="kept")
        b1 = lane.book(2.0, label="tail1")
        b2 = lane.book(3.0, label="tail2")
        assert lane.free_s == 6.0 and lane.busy_s == 6.0
        released = timeline.release([b1, b2])
        assert released == 5.0
        assert lane.free_s == kept.end_s == 1.0
        assert lane.busy_s == 1.0
        assert lane.num_bookings == 1
        assert [e.label for e in timeline.events] == ["kept"]
        # The freed window is bookable again, from the restored horizon.
        again = lane.book(2.0, label="rebooked")
        assert again.start_s == 1.0

    def test_release_interior_booking_rejected_without_mutation(self):
        timeline = Timeline()
        lane = timeline.resource("dev0.compute", category="compute")
        first = lane.book(1.0)
        lane.book(2.0)
        with pytest.raises(ValueError, match="tail"):
            timeline.release([first])
        assert lane.free_s == 3.0 and lane.num_bookings == 2

    def test_release_duplicate_and_unknown_rejected(self):
        timeline = Timeline()
        lane = timeline.resource("dev0.compute", category="compute")
        booking = lane.book(1.0)
        with pytest.raises(ValueError):
            timeline.release([booking, booking])
        assert lane.free_s == 1.0 and lane.num_bookings == 1
        foreign = Timeline().resource("devX.compute").book(1.0)
        with pytest.raises(ValueError, match="unknown"):
            timeline.release([foreign])

    def test_release_gang_booking_across_resources(self):
        timeline = Timeline()
        lanes = [
            timeline.resource(device_copy_key(slot), category="copy")
            for slot in range(3)
        ]
        lanes[0].book(1.0)  # stagger one member's horizon
        gang = timeline.book_together(lanes, 2.0, label="collective")
        assert gang.start_s == 1.0 and gang.end_s == 3.0
        timeline.release(gang.bookings)
        assert [lane.free_s for lane in lanes] == [1.0, 0.0, 0.0]

    def test_truncate_newest_booking_at_boundary(self):
        timeline = Timeline()
        lane = timeline.resource("dev0.compute", category="compute")
        lane.book(1.0)
        tail = lane.book(4.0, label="exec")
        shortened = timeline.truncate(tail, 3.0)
        assert shortened.end_s == 3.0 and shortened.label == "exec"
        assert lane.free_s == 3.0
        assert lane.busy_s == pytest.approx(3.0)
        assert shortened in timeline.events and tail not in timeline.events

    def test_truncate_rejects_non_newest_and_out_of_bounds(self):
        timeline = Timeline()
        lane = timeline.resource("dev0.compute", category="compute")
        first = lane.book(1.0)
        tail = lane.book(2.0)
        with pytest.raises(ValueError, match="newest"):
            timeline.truncate(first, 0.5)
        with pytest.raises(ValueError, match="outside"):
            timeline.truncate(tail, 0.5)
        assert lane.free_s == 3.0


# ---------------------------------------------------------------------- #
# (b) Preemption identity
# ---------------------------------------------------------------------- #
class TestPreemption:
    def _streamed_batch_scenario(self):
        """A streamed batch job alone on a tiny device, plus its ledger."""
        tensor = CASES[BIG_CASE]()
        cluster = one_device_cluster(5_000)
        batch = Job(
            job_id=0, tenant="batch", kind=JobKind.SPMTTKRP, tensor=tensor, rank=RANK
        )
        (alone,) = self._engine(cluster).run([batch]).results
        assert alone.execution == "streamed"
        return cluster, batch, alone

    def _engine(self, cluster, policy="deadline"):
        return ServingEngine(cluster, policy=policy)

    def test_chunk_boundary_preemption_meets_deadline_bit_identically(self):
        cluster, batch, alone = self._streamed_batch_scenario()
        small = random_sparse_tensor((6, 5, 4), nnz=20, seed=3)
        mid = (alone.exec_start_s + alone.finish_s) / 2

        def urgent(deadline_s):
            return Job(
                job_id=1,
                tenant="lat",
                kind=JobKind.SPMTTKRP,
                tensor=small,
                rank=4,
                arrival_s=mid,
                slo=SLO.latency(deadline_s),
            )

        # Urgent finish without preemption (the priority policy never
        # preempts) and with it (an over-tight deadline always triggers).
        pair = [batch, urgent((alone.finish_s - mid) * 0.5)]
        unpreempted = {
            r.job.job_id: r for r in self._engine(cluster, "priority").run(pair).results
        }[1]
        forced = {r.job.job_id: r for r in self._engine(cluster).run(pair).results}[1]
        assert forced.finish_s < unpreempted.finish_s

        # A deadline feasible ONLY via preemption.
        deadline_s = (forced.finish_s - mid) * 1.05
        assert mid + deadline_s < unpreempted.finish_s
        report = self._engine(cluster).run([batch, urgent(deadline_s)])
        assert not report.timeline.violations()
        (record,) = report.preemptions
        assert record.job_id == 0 and record.preempted_by == 1
        assert 0 < record.completed_chunks < record.total_chunks
        by_id = {r.job.job_id: r for r in report.results}
        assert not by_id[1].missed_deadline
        victim = by_id[0]
        assert victim.completed and victim.preemptions == 1
        assert victim.preempted_s > 0.0
        # The tentpole: preempted-and-resumed output is bit-identical to
        # the unpreempted run and to a fresh pure replay.
        assert_same_output(victim.output, alone.output)
        assert_same_output(victim.output, execute_job(batch))
        labels = [e.label for e in report.timeline.events]
        assert "resume-stage:job0" in labels and "resume:job0" in labels

    def test_workload_preemptions_are_value_preserving(self):
        """Stage-straddle / full-release preemptions across a real workload:
        every deadline-policy output matches the preemption-free twin."""
        jobs = generate_workload(
            WorkloadSpec(num_jobs=60, seed=11, latency_slo_fraction=0.3)
        )
        edf = ServingEngine(policy="deadline").run(jobs)
        twin = ServingEngine(policy="priority").run(jobs)
        assert edf.preemptions  # the scenario actually preempts
        assert not twin.preemptions
        assert not edf.timeline.violations()
        others = {r.job.job_id: r for r in twin.results if r.completed}
        for result in edf.results:
            if result.completed and result.job.job_id in others:
                assert outputs_equal(result.output, others[result.job.job_id].output)

    def test_deadline_miss_rate_never_worse_than_fifo(self):
        jobs = generate_workload(
            WorkloadSpec(num_jobs=100, seed=0, latency_slo_fraction=0.3)
        )
        edf = ServingEngine(policy="deadline").run(jobs)
        fifo = ServingEngine(policy="fifo").run(jobs)
        assert edf.slo_jobs and fifo.slo_jobs
        assert edf.deadline_miss_rate <= fifo.deadline_miss_rate

    def test_preempted_job_survives_chaos_node_loss(self):
        """Preemption and chaos compose: a run with both loses no jobs and
        keeps every common output bit-identical to the chaos-free run."""
        from repro.bench.serving import run_serving

        kwargs = dict(num_jobs=40, seed=0, nodes=2, policy="deadline", slo_fraction=0.3)
        clean = run_serving(**kwargs)
        chaotic = run_serving(chaos_seed=4, fail_node=0, **kwargs)
        assert chaotic.requeued_jobs > 0
        assert len(chaotic.completed) >= len(clean.completed)
        assert not chaotic.timeline.violations()
        others = {r.job.job_id: r for r in clean.results if r.completed}
        for result in chaotic.results:
            if result.completed and result.job.job_id in others:
                assert outputs_equal(result.output, others[result.job.job_id].output)

    def test_latency_jobs_are_never_preempted(self):
        jobs = generate_workload(
            WorkloadSpec(num_jobs=100, seed=0, latency_slo_fraction=0.3)
        )
        report = ServingEngine(policy="deadline").run(jobs)
        by_id = {j.job_id: j for j in jobs}
        for record in report.preemptions:
            victim = by_id[record.job_id]
            assert victim.preemptible and victim.slo is None


class TestDeadlineDegeneracy:
    def test_no_slo_workload_is_bit_identical_to_priority_policy(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=40, seed=7))
        assert all(j.slo is None for j in jobs)
        deadline = ServingEngine(policy="deadline").run(jobs)
        priority = ServingEngine(policy="priority").run(jobs)
        assert not deadline.preemptions
        for a, b in zip(deadline.results, priority.results):
            assert a.job.job_id == b.job.job_id
            assert a.status == b.status
            assert a.finish_s == b.finish_s
            assert a.stage_start_s == b.stage_start_s
            assert outputs_equal(a.output, b.output)

    def test_zero_fraction_draws_no_slo_rng(self):
        base = generate_workload(WorkloadSpec(num_jobs=30, seed=5))
        gated = generate_workload(
            WorkloadSpec(num_jobs=30, seed=5, latency_slo_fraction=0.0)
        )
        for a, b in zip(base, gated):
            assert a.arrival_s == b.arrival_s
            assert a.priority == b.priority
            assert a.factor_seed == b.factor_seed
            assert a.slo is None and b.slo is None

    def test_earliest_deadline_dispatches_first(self):
        cluster = one_device_cluster(1 << 30)
        tensor = random_sparse_tensor((8, 6, 5), nnz=30, seed=1)
        relaxed = Job(
            job_id=0, tenant="a", kind=JobKind.SPMTTKRP, tensor=tensor,
            rank=4, slo=SLO.latency(5.0),
        )
        # A different rank: the two share the encoding but never a batch.
        tight = Job(
            job_id=1, tenant="b", kind=JobKind.SPMTTKRP, tensor=tensor,
            rank=5, slo=SLO.latency(1.0),
        )
        report = ServingEngine(cluster, policy="deadline").run([relaxed, tight])
        by_id = {r.job.job_id: r for r in report.results}
        assert by_id[1].stage_start_s <= by_id[0].stage_start_s
        assert by_id[1].finish_s <= by_id[0].finish_s


# ---------------------------------------------------------------------- #
# (d) ExecContext validation and run results
# ---------------------------------------------------------------------- #
class TestExecContextValidation:
    def test_context_validation_and_evolve(self):
        with pytest.raises(ValueError):
            ExecContext(num_streams=0)
        with pytest.raises(ValueError):
            ExecContext(chunk_nnz=0)
        evolved = DEFAULT_CONTEXT.evolve(num_streams=5)
        assert evolved.num_streams == 5 and DEFAULT_CONTEXT.num_streams == 2
        failures = [NodeFailure(time_s=1.0, node_index=0)]
        assert isinstance(ExecContext(chaos=failures).chaos, tuple)

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(deadline_s=0.0)
        with pytest.raises(ValueError):
            SLO(deadline_s=float("inf"))
        with pytest.raises(ValueError):
            SLO(priority=-1)
        latency = SLO.latency(2.5)
        assert latency.has_deadline and not latency.preemptible
        assert latency.deadline_for(1.0) == 3.5
        batch = SLO.batch()
        assert not batch.has_deadline and batch.preemptible
        assert batch.deadline_for(1.0) == float("inf")


class TestRunResults:
    """CP-ALS, Tucker-HOOI, a scheduler run and a serving run each return
    the timeline they booked on; ``--trace`` exports it."""

    @staticmethod
    def _run(kind):
        tensor = random_sparse_tensor((20, 15, 10), nnz=300, seed=0)
        jobs = generate_workload(WorkloadSpec(num_jobs=5))
        if kind == "cp_als":
            return cp_als(tensor, 4, max_iterations=1, compute_fit=False)
        if kind == "tucker_hooi":
            return tucker_hooi(tensor, (3, 3, 3), max_iterations=1)
        if kind == "scheduler":
            return ServingEngine().scheduler.run(jobs)
        return ServingEngine().run(jobs)

    @pytest.mark.parametrize(
        "kind", ["cp_als", "tucker_hooi", "scheduler", "serving"]
    )
    def test_makespan_is_the_span_of_its_timeline(self, kind):
        result = self._run(kind)
        assert result.timeline.events
        assert result.makespan_s > 0.0
        assert result.makespan_s == result.timeline.makespan_s
        assert not result.timeline.violations()
