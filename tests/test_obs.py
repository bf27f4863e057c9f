"""Observability layer: metrics registry, event log, span attribution.

Covers the PR 8 tentpole end to end:

* the deterministic :class:`~repro.obs.metrics.MetricsRegistry` (counters,
  gauges, fixed-bucket histograms, Prometheus/JSON export);
* the structured :class:`~repro.obs.events.EventLog` and its schema;
* span-tagged timeline bookings, per-resource wait accounting, and the
  :func:`~repro.obs.attribution.attribute` fold's reconciliation identity;
* the serving stack's wiring: every busy scheduler booking tagged, the
  per-job cost breakdown on :class:`~repro.serve.job.JobResult`, and
  byte-identical telemetry across repeated runs.
"""

import json

import pytest

from repro.context import ExecContext
from repro.gpusim.timeline import SPAN_PHASES, Span, Timeline
from repro.obs.attribution import attribute
from repro.obs.events import EVENT_KINDS, EVENT_SCHEMA_VERSION, EventLog
from repro.obs.metrics import KERNEL_SECONDS_BUCKETS, MetricsRegistry
from repro.serve.workload import WorkloadSpec
from repro.tensor.random import random_sparse_tensor


# ---------------------------------------------------------------------- #
# MetricsRegistry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs", ("status",))
        counter.inc(status="ok")
        counter.inc(2, status="ok")
        counter.inc(0, status="bad")
        assert counter.value(status="ok") == 3
        assert counter.value(status="bad") == 0
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1, status="ok")

    def test_label_set_is_validated(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("a",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(b="x")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()

    def test_gauge_overwrites(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4.0)
        gauge.set(2.0)
        assert gauge.value() == 2.0

    def test_registration_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("k",))
        assert registry.counter("x_total", "help", ("k",)) is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total", "help", ("k",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x_total", "help", ("other",))

    def test_histogram_buckets_fixed_and_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("seconds", "s", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count() == 5
        assert hist.sum() == pytest.approx(56.05)
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("seconds", "s", buckets=(0.1, 1.0))
        text = registry.to_prometheus()
        assert 'seconds_bucket{le="0.1"} 1' in text
        assert 'seconds_bucket{le="1"} 3' in text
        assert 'seconds_bucket{le="10"} 4' in text
        assert 'seconds_bucket{le="+Inf"} 5' in text
        assert "seconds_count 5" in text

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))

    def test_prometheus_exposition_layout(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things", ("k",)).inc(3, k="v")
        registry.gauge("b").set(1.5)
        text = registry.to_prometheus()
        assert text.endswith("\n")
        assert text.splitlines() == [
            "# HELP a_total things",
            "# TYPE a_total counter",
            'a_total{k="v"} 3',
            "# TYPE b gauge",
            "b 1.5",
        ]

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("k",)).inc(k='say "hi"\n')
        assert 'c_total{k="say \\"hi\\"\\n"} 1' in registry.to_prometheus()

    def test_integer_valued_samples_render_as_integers(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(40.0)
        assert "g 40" in registry.to_prometheus().splitlines()

    def test_json_export_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total", "things", ("k",)).inc(2, k="v")
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["a_total"]["kind"] == "counter"
        assert payload["a_total"]["values"]['{k="v"}'] == 2.0

    def test_export_order_is_registration_order(self):
        registry = MetricsRegistry()
        registry.gauge("zzz").set(1)
        registry.gauge("aaa").set(1)
        assert registry.metrics == ("zzz", "aaa")
        text = registry.to_prometheus()
        assert text.index("zzz") < text.index("aaa")

    def test_kernel_profile_observer_counts_paths(self):
        tensor = random_sparse_tensor((30, 20, 10), 400, seed=0)
        from repro.kernels.unified.spttm import unified_spttm

        registry = MetricsRegistry()
        ctx = ExecContext(metrics=registry)
        import numpy as np

        matrix = np.ones((30, 4))
        unified_spttm(tensor, matrix, 0, ctx=ctx)
        unified_spttm(tensor, matrix, 0, ctx=ctx)
        launches = registry.get("repro_kernel_launches_total")
        assert launches.value(kernel="spttm", path="one-shot") == 2
        nnz = registry.get("repro_kernel_nnz_total")
        assert nnz.value(kernel="spttm", path="one-shot") == 2 * tensor.nnz
        hist = registry.get("repro_kernel_seconds")
        assert hist.count(kernel="spttm", path="one-shot") == 2
        assert hist.buckets == KERNEL_SECONDS_BUCKETS


# ---------------------------------------------------------------------- #
# EventLog
# ---------------------------------------------------------------------- #
class TestEventLog:
    def test_emit_and_jsonl_schema(self):
        log = EventLog()
        log.emit("admit", time_s=1.5, job_id="job0", tenant="t", priority=1)
        log.emit("scale", time_s=2.0, action="up", slot=3)
        lines = log.to_jsonl().splitlines()
        assert len(lines) == len(log) == 2
        first = json.loads(lines[0])
        assert list(first)[:5] == ["v", "seq", "t", "kind", "job_id"]
        assert first == {
            "v": EVENT_SCHEMA_VERSION,
            "seq": 0,
            "t": 1.5,
            "kind": "admit",
            "job_id": "job0",
            "priority": 1,
            "tenant": "t",
        }
        assert json.loads(lines[1])["job_id"] == ""

    def test_detail_fields_sorted(self):
        log = EventLog()
        event = log.emit("dispatch", time_s=0.0, job_id="job1", zz=1, aa=2)
        assert [k for k, _ in event.fields] == ["aa", "zz"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventLog().emit("explode", time_s=0.0)

    def test_bad_time_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError, match="finite"):
            log.emit("admit", time_s=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            log.emit("admit", time_s=-1.0)

    def test_header_shadowing_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            EventLog().emit("admit", time_s=0.0, seq=9)

    def test_counts_in_vocabulary_order(self):
        log = EventLog()
        log.emit("complete", time_s=1.0)
        log.emit("admit", time_s=0.0)
        log.emit("admit", time_s=0.5)
        assert list(log.counts().items()) == [("admit", 2), ("complete", 1)]
        assert set(log.counts()) <= set(EVENT_KINDS)

    def test_write(self, tmp_path):
        log = EventLog()
        log.emit("node_failure", time_s=3.0, node=1)
        path = tmp_path / "events.jsonl"
        log.write(str(path))
        assert path.read_text() == log.to_jsonl()

    def test_mark_and_rollback_discard_trial_events(self):
        log = EventLog()
        log.emit("admit", time_s=0.0, job_id="job0")
        mark = log.mark()
        log.emit("dispatch", time_s=1.0, job_id="job0")
        log.emit("complete", time_s=2.0, job_id="job0")
        assert log.rollback(mark) == 2
        assert len(log) == 1 and log.counts() == {"admit": 1}
        # Re-emission after rollback keeps seq contiguous.
        event = log.emit("dispatch", time_s=1.5, job_id="job0")
        assert event.seq == 1
        with pytest.raises(ValueError, match="outside"):
            log.rollback(5)

    def test_retract_removes_one_and_export_renumbers(self):
        log = EventLog()
        log.emit("admit", time_s=0.0, job_id="job0")
        stale = log.emit("complete", time_s=2.0, job_id="job0")
        kept = log.emit("preempt", time_s=1.0, job_id="job0")
        log.retract(stale)
        assert [e.kind for e in log.events] == ["admit", "preempt"]
        # Handles held across a retraction stay valid (identity match).
        log.retract(kept)
        assert log.counts() == {"admit": 1}
        lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
        assert [line["seq"] for line in lines] == [0]
        with pytest.raises(ValueError, match="not in log"):
            log.retract(stale)


# ---------------------------------------------------------------------- #
# Span tagging + wait accounting on the timeline
# ---------------------------------------------------------------------- #
class TestSpansAndWaits:
    def test_span_validates_phase(self):
        for phase in SPAN_PHASES:
            Span("job0", phase=phase)
        Span("job0")  # empty phase allowed
        with pytest.raises(ValueError):
            Span("job0", phase="daydreaming")

    def test_booking_wait_is_queueing_delay(self):
        timeline = Timeline()
        lane = timeline.resource("gpu0.compute", category="compute")
        first = lane.book(2.0, ready_s=0.0)
        second = lane.book(1.0, ready_s=0.5)
        assert first.wait_s == 0.0
        assert second.start_s == 2.0
        assert second.wait_s == pytest.approx(1.5)
        assert lane.wait_time == pytest.approx(1.5)
        assert timeline.wait_s("gpu0.compute") == pytest.approx(1.5)

    def test_queued_from_overrides_ready_for_wait(self):
        timeline = Timeline()
        lane = timeline.resource("nic", category="nic")
        lane.book(3.0, ready_s=0.0)
        booking = lane.book(1.0, ready_s=3.0, queued_from_s=1.0)
        # Dependency gate unchanged (starts at the horizon), but the wait
        # is measured from when the work was actually ready.
        assert booking.start_s == 3.0
        assert booking.wait_s == pytest.approx(2.0)

    def test_release_rolls_back_wait(self):
        timeline = Timeline()
        lane = timeline.resource("gpu0.copy", category="copy")
        lane.book(2.0, ready_s=0.0)
        queued = lane.book(1.0, ready_s=0.0)
        assert lane.wait_time == pytest.approx(2.0)
        timeline.release([queued])
        assert lane.wait_time == 0.0
        assert lane.free_s == 2.0

    def test_gang_wait_counted_per_member(self):
        timeline = Timeline()
        a = timeline.resource("link0", category="link")
        b = timeline.resource("link1", category="link")
        a.book(4.0, ready_s=0.0)
        gang = timeline.book_together([a, b], 1.0, ready_s=1.0)
        assert gang.start_s == 4.0
        for booking in gang.bookings:
            assert booking.wait_s == pytest.approx(3.0)

    def test_chrome_trace_carries_span_args(self):
        timeline = Timeline()
        lane = timeline.resource("gpu0.compute", category="compute")
        lane.book(1.0, span=Span("job7", kernel="spttm", phase="compute"))
        events = [
            e for e in timeline.chrome_trace()["traceEvents"] if e["ph"] == "X"
        ]
        assert events[0]["args"]["job_id"] == "job7"
        assert events[0]["args"]["kernel"] == "spttm"
        assert events[0]["args"]["phase"] == "compute"


# ---------------------------------------------------------------------- #
# Attribution fold
# ---------------------------------------------------------------------- #
class TestAttribution:
    def _tagged_timeline(self) -> Timeline:
        timeline = Timeline()
        copy = timeline.resource("gpu0.copy", category="copy")
        compute = timeline.resource("gpu0.compute", category="compute")
        nic = timeline.resource("nic", category="nic")
        copy.book(1.0, span=Span("job0", phase="stage"))
        compute.book(2.0, ready_s=1.0, span=Span("job0", phase="compute"))
        nic.book(0.5, ready_s=3.0, span=Span("job0", phase="collective"))
        copy.book(0.25, ready_s=1.0, span=Span("job1", phase="stage"))
        compute.book(1.0, ready_s=3.0, span=Span("job1", phase="compute"))
        # Non-busy reservation: holds the lane, carries no cost.
        compute.book(5.0, busy=False, label="barrier:job1")
        return timeline

    def test_reconciliation_identity(self):
        attribution = attribute(self._tagged_timeline())
        assert attribution.gap_count == 0
        assert attribution.untagged_busy_count == 0
        for cost in attribution.resources.values():
            assert cost.reconciles
            assert cost.gap_s == pytest.approx(0.0, abs=1e-12)

    def test_per_job_phase_split(self):
        attribution = attribute(self._tagged_timeline())
        assert list(attribution.jobs) == ["job0", "job1"]  # sorted by id
        job0 = attribution.jobs["job0"]
        assert job0.stage_s == pytest.approx(1.0)
        assert job0.compute_s == pytest.approx(2.0)
        assert job0.collective_s == pytest.approx(0.5)
        assert job0.busy_s == pytest.approx(3.5)
        job1 = attribution.jobs["job1"]
        assert job1.busy_s == pytest.approx(1.25)
        totals = attribution.phase_totals()
        assert totals["stage"] == pytest.approx(1.25)
        assert totals["compute"] == pytest.approx(3.0)

    def test_untagged_busy_bookings_are_gapless_but_counted(self):
        timeline = Timeline()
        lane = timeline.resource("gpu0.compute", category="compute")
        lane.book(1.0)  # busy, no span
        attribution = attribute(timeline)
        assert attribution.gap_count == 0  # untagged time is accounted
        assert attribution.untagged_busy_count == 1
        cost = attribution.resources["gpu0.compute"]
        assert cost.untagged_s == pytest.approx(1.0)
        assert cost.attributed_s == 0.0

    def test_nic_wait_deduped_per_gang_window(self):
        timeline = Timeline()
        links = [
            timeline.resource(f"link{i}", category="link") for i in range(3)
        ]
        for link in links:
            link.book(2.0)  # background traffic: the collective queues
        timeline.book_together(
            links,
            1.0,
            ready_s=2.0,
            label="allreduce:job0",
            span=Span("job0", phase="collective"),
            queued_from_s=0.5,
        )
        attribution = attribute(timeline)
        # Three members, one shared window: the wait counts once.
        assert attribution.jobs["job0"].nic_wait_s == pytest.approx(1.5)
        assert attribution.jobs["job0"].collective_s == pytest.approx(3.0)

    def test_publish_writes_expected_families(self):
        registry = MetricsRegistry()
        attribute(self._tagged_timeline()).publish(registry)
        assert registry.counter(
            "repro_attributed_seconds_total", labels=("phase",)
        ).value(phase="compute") == pytest.approx(3.0)
        assert registry.gauge("repro_attribution_gap_resources").value() == 0
        wait = registry.get("repro_resource_wait_seconds_total")
        assert wait is not None


# ---------------------------------------------------------------------- #
# Serving-stack wiring
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def instrumented_report():
    from repro.serve.engine import ServingEngine

    engine = ServingEngine()
    return engine.run_workload(WorkloadSpec(num_jobs=25, seed=7))


class TestServingTelemetry:
    def test_every_busy_booking_is_tagged(self, instrumented_report):
        attribution = instrumented_report.attribution
        assert attribution.gap_count == 0
        assert attribution.untagged_busy_count == 0

    def test_attribution_reconciles_with_timeline(self, instrumented_report):
        timeline = instrumented_report.timeline
        attribution = instrumented_report.attribution
        for resource in timeline.resources:
            cost = attribution.resources[resource.key]
            assert cost.busy_s == resource.busy_s
            assert cost.reconciles

    def test_job_results_carry_cost_breakdown(self, instrumented_report):
        for result in instrumented_report.completed:
            assert result.compute_s >= 0.0
            assert result.nic_wait_s >= 0.0
            assert result.preemption_overhead_s == 0.0  # no chaos/preemption
            cost = instrumented_report.attribution.jobs[f"job{result.job.job_id}"]
            assert result.compute_s == cost.compute_s

    def test_event_log_covers_lifecycle(self, instrumented_report):
        counts = instrumented_report.events.counts()
        submitted = len(instrumented_report.results)
        assert counts["admit"] + counts.get("reject", 0) == submitted
        assert counts["dispatch"] == counts["complete"]
        assert set(counts) <= set(EVENT_KINDS)

    def test_revoked_commitments_leave_no_stale_events(self):
        # Chaos teardown and preemption both revoke committed-ahead work;
        # the log must still read as the final schedule's true history:
        # exactly one "complete" per job that actually completed.
        from collections import Counter

        from repro.serve import ServingEngine
        from repro.serve.workload import (
            ChaosSpec,
            default_multinode_serving_cluster,
            generate_chaos,
            generate_workload,
        )

        cluster = default_multinode_serving_cluster(2)
        jobs = generate_workload(WorkloadSpec(num_jobs=30, seed=4))
        chaos = generate_chaos(ChaosSpec(seed=4), num_nodes=2)
        report = ServingEngine(cluster).run(jobs, chaos=chaos)
        counts = report.events.counts()
        assert counts["requeue"] > 0  # the chaos run exercised teardown
        completes = Counter(
            e.job_id for e in report.events.events if e.kind == "complete"
        )
        assert all(n == 1 for n in completes.values())
        assert len(completes) == len(report.completed)
        # Victims that had started keep their dispatch as history, so
        # dispatches = completes + started-then-torn-down requeues.
        assert counts["dispatch"] >= counts["complete"]
        lines = report.events.to_jsonl().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == list(
            range(len(lines))
        )

    def test_preempted_victims_complete_once(self):
        from collections import Counter

        from repro.serve import AutoscalerSpec, ServingEngine

        engine = ServingEngine(
            policy="deadline", autoscale=AutoscalerSpec(min_devices=1)
        )
        report = engine.run_workload(
            WorkloadSpec(num_jobs=60, seed=0, latency_slo_fraction=0.3)
        )
        counts = report.events.counts()
        assert counts["preempt"] > 0  # the workload exercised preemption
        completes = Counter(
            e.job_id for e in report.events.events if e.kind == "complete"
        )
        assert all(n == 1 for n in completes.values())
        assert len(completes) == len(report.completed)
        # A full-release victim's phantom dispatch is retracted and its
        # re-dispatch re-emitted; a trial re-commit replaces its own pair;
        # a mid-chunk victim keeps its dispatch and completes via resume —
        # so every completed job pairs one start with one complete.
        starts = counts["dispatch"] + counts.get("resume", 0)
        mid_chunk = sum(1 for e in report.events.events if e.kind == "resume")
        assert starts == counts["complete"] + mid_chunk
        assert report.attribution.gap_count == 0

    def test_registry_covers_all_layers(self, instrumented_report):
        names = instrumented_report.metrics.metrics
        assert "repro_kernel_launches_total" in names
        assert "repro_attributed_seconds_total" in names
        assert "repro_serve_jobs_total" in names
        jobs = instrumented_report.metrics.get("repro_serve_jobs_total")
        assert jobs.value(status="completed") == len(instrumented_report.completed)

    def test_telemetry_is_byte_deterministic(self):
        from repro.serve.engine import ServingEngine

        def collect():
            report = ServingEngine().run_workload(WorkloadSpec(num_jobs=25, seed=7))
            return report.metrics.to_prometheus(), report.events.to_jsonl()

        assert collect() == collect()

    def test_telemetry_does_not_perturb_schedule(self, instrumented_report):
        # The pre-observability invariant: passing caller-owned sinks (or
        # none at all at the scheduler layer) yields the same schedule.
        from repro.serve.engine import ServingEngine
        from repro.serve.workload import generate_workload

        jobs = generate_workload(WorkloadSpec(num_jobs=25, seed=7))
        outcome = ServingEngine().scheduler.run(jobs)  # no sinks
        assert [r.finish_s for r in outcome.results] == [
            r.finish_s for r in instrumented_report.results
        ]

    def test_decomposition_metrics_published(self):
        from repro.algorithms.cp import cp_als

        registry = MetricsRegistry()
        tensor = random_sparse_tensor((20, 15, 10), 300, seed=1)
        cp_als(tensor, 4, max_iterations=2, ctx=ExecContext(metrics=registry))
        runs = registry.get("repro_decomposition_runs_total")
        assert runs.value(algorithm="cp_als") == 1
        iters = registry.get("repro_decomposition_iterations_total")
        assert iters.value(algorithm="cp_als") == 2

    def test_serving_publishes_one_run_per_decomposition_job(self, instrumented_report):
        from collections import Counter

        from repro.serve.job import JobKind

        completed = Counter(r.job.kind for r in instrumented_report.completed)
        assert completed[JobKind.CP_ALS] > 0
        runs = instrumented_report.metrics.get("repro_decomposition_runs_total")
        assert runs.value(algorithm="cp_als") == completed[JobKind.CP_ALS]
        assert runs.value(algorithm="tucker_hooi") == completed[JobKind.TUCKER]


# ---------------------------------------------------------------------- #
# ServingReport.render tables (PR 8 satellite)
# ---------------------------------------------------------------------- #
class TestServingReportRender:
    def test_render_tables_and_sections(self, instrumented_report):
        text = instrumented_report.render()
        # Summary lines.
        assert "Serving report" in text
        assert "jobs: 25 submitted" in text
        assert "preproc cache:" in text
        # Observability sections.
        assert "attribution:" in text
        assert "0 unreconciled resources" in text
        assert "telemetry:" in text
        assert "events logged" in text
        # The per-device utilization table: header row, separator, one row
        # per device with the busy/utilization columns filled.
        lines = text.splitlines()
        header = next(line for line in lines if line.startswith("| slot"))
        for column in ("slot", "device", "jobs", "busy", "utilization"):
            assert column in header
        separator = lines[lines.index(header) + 1]
        assert set(separator) <= {"|", "-", " "}
        rows = [
            line
            for line in lines[lines.index(header) + 2 :]
            if line.startswith("|")
        ]
        assert len(rows) == instrumented_report.cluster.num_devices
        for slot, row in enumerate(rows):
            cells = [c.strip() for c in row.strip("|").split("|")]
            assert cells[0] == str(slot)
            assert cells[-1].endswith("%")

    def test_render_reports_rejections(self):
        from repro.serve.engine import ServingEngine

        engine = ServingEngine(max_queue_depth=1)
        report = engine.run_workload(WorkloadSpec(num_jobs=25, seed=7))
        if report.rejected:  # queue bound makes shedding likely, not certain
            text = report.render()
            assert "rejected x" in text
