"""Closed-loop adaptive scheduling: the feedback loop never loses or lies.

The hedged adaptive engine (``ServingEngine(adaptive=True)``) trial-runs
every job list both ways and keeps the adaptive schedule only on a strict
makespan win, so four properties must hold on *every* seeded workload:

1. the adaptive makespan never exceeds the static one;
2. adaptive and static runs produce bit-identical job outputs — feedback
   moves work in time, never in value;
3. with a cold observation store, the adaptive run is event-for-event
   identical to the static run (the hedge's tie-break keeps the static
   schedule);
4. on two nodes, where cross-node collectives queue on the NICs in
   arrival order, no adaptive run over-books a resource
   (``Timeline.violations() == {}``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.autotune import tune_unified
from repro.obs.events import EventLog
from repro.serve.cache import (
    RERANK_TOLERANCE,
    SERVING_BLOCK_SIZES,
    SERVING_THREADLENS,
    PreprocCache,
)
from repro.serve.engine import ServingEngine
from repro.serve.feedback import DECAY, ObservationStore
from repro.serve.workload import (
    WorkloadSpec,
    default_multinode_serving_cluster,
    default_serving_cluster,
    generate_workload,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _arrays(output):
    """The comparable ndarrays of any job output type."""
    if output is None:
        return []
    if isinstance(output, np.ndarray):
        return [output]
    if hasattr(output, "fiber_values"):  # SemiSparseTensor
        return [output.fiber_coords, output.fiber_values]
    out = list(getattr(output, "factors", []) or [])
    for attr in ("weights", "core"):
        value = getattr(output, attr, None)
        if value is not None:
            out.append(value)
    return out


def _assert_identical_outputs(static, adaptive):
    twin = {r.job.job_id: r for r in static.results if r.completed}
    for result in adaptive.results:
        other = twin.get(result.job.job_id)
        if not result.completed or other is None:
            continue
        ours, theirs = _arrays(result.output), _arrays(other.output)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)


class TestAdaptiveNeverLoses:
    @given(seed=SEEDS, num_jobs=st.integers(min_value=2, max_value=8))
    def test_single_node_makespan_and_outputs(self, seed, num_jobs):
        """Properties 1 + 2 on the heterogeneous single node: across a cold
        and a warm run, adaptive never exceeds the static makespan and all
        outputs stay bit-identical."""
        jobs = generate_workload(WorkloadSpec(num_jobs=num_jobs, seed=seed))
        static = ServingEngine(default_serving_cluster(), autotune=True)
        adaptive = ServingEngine(
            default_serving_cluster(), autotune=True, adaptive=True
        )
        for _ in range(2):  # cold run, then warm (observations recorded)
            s = static.run(jobs)
            a = adaptive.run(jobs)
            assert a.makespan_s <= s.makespan_s + 1e-12
            _assert_identical_outputs(s, a)

    @given(
        seed=SEEDS,
        num_jobs=st.integers(min_value=2, max_value=6),
        cross_node_every=st.sampled_from([2, 3]),
        latency_slo_fraction=st.sampled_from([0.0, 0.5]),
    )
    def test_multinode_makespan_and_outputs(
        self, seed, num_jobs, cross_node_every, latency_slo_fraction
    ):
        """Properties 1, 2 and 4 on two nodes with cross-node collectives
        and latency-SLO tenants: across a cold and a warm run, adaptive
        never exceeds the static makespan, outputs stay bit-identical, and
        the adaptive timeline over-books nothing."""
        jobs = generate_workload(
            WorkloadSpec(
                num_jobs=num_jobs,
                seed=seed,
                cross_node_every=cross_node_every,
                latency_slo_fraction=latency_slo_fraction,
            )
        )
        static = ServingEngine(default_multinode_serving_cluster(2), autotune=True)
        adaptive = ServingEngine(
            default_multinode_serving_cluster(2), autotune=True, adaptive=True
        )
        for _ in range(2):
            s = static.run(jobs)
            a = adaptive.run(jobs)
            assert a.timeline.violations() == {}
            assert a.makespan_s <= s.makespan_s + 1e-12
            _assert_identical_outputs(s, a)


class TestColdStartIdentity:
    @given(seed=SEEDS, num_jobs=st.integers(min_value=2, max_value=8))
    def test_cold_adaptive_fifo_is_event_identical_to_static(self, seed, num_jobs):
        """Property 3: with no observations the adaptive trial collapses to
        the static schedule, the tie-break keeps static, and the event logs
        match line for line."""
        jobs = generate_workload(WorkloadSpec(num_jobs=num_jobs, seed=seed))
        static_log, adaptive_log = EventLog(), EventLog()
        static = ServingEngine(default_serving_cluster(), autotune=True).run(
            jobs, events=static_log
        )
        engine = ServingEngine(default_serving_cluster(), autotune=True, adaptive=True)
        assert len(engine.observations) == 0
        adaptive = engine.run(jobs, events=adaptive_log)
        assert engine.last_adaptive_won is False
        assert adaptive_log.to_jsonl() == static_log.to_jsonl()
        assert adaptive.makespan_s == static.makespan_s
        assert [r.finish_s for r in adaptive.results] == [
            r.finish_s for r in static.results
        ]


class TestObservationStore:
    def test_records_fold_into_estimates(self):
        store = ObservationStore()
        assert len(store) == 0
        store.record(
            kind="spttm",
            content_key="k1",
            device_names=["Titan X"],
            slots=[0],
            nodes=[0],
            exec_s=2.0,
            device_wait_s=0.5,
            nic_wait_s=0.0,
        )
        assert len(store) == 1
        assert store.expected_exec_any("spttm", "k1") == pytest.approx(2.0)
        # The EMA moves toward later observations without jumping to them.
        store.record(
            kind="spttm",
            content_key="k1",
            device_names=["Titan X"],
            slots=[0],
            nodes=[0],
            exec_s=4.0,
            device_wait_s=0.0,
            nic_wait_s=0.0,
        )
        expected = store.expected_exec_any("spttm", "k1")
        assert 2.0 < expected < 4.0
        assert store.expected_exec_any("spttm", "other") is None

    def test_ema_weights_the_newest_observation_by_decay(self):
        store = ObservationStore()
        for exec_s in (2.0, 4.0):
            store.record(
                kind="spttm",
                content_key="k1",
                device_names=["Titan X"],
                slots=[0],
                nodes=[0],
                exec_s=exec_s,
                device_wait_s=0.0,
                nic_wait_s=0.0,
            )
        assert DECAY == 0.25
        assert store.expected_exec_any("spttm", "k1") == (1.0 - DECAY) * 2.0 + DECAY * 4.0

    def test_clone_is_independent(self):
        store = ObservationStore()
        store.record(
            kind="spttm",
            content_key="k1",
            device_names=["Titan X"],
            slots=[0],
            nodes=[0],
            exec_s=1.0,
            device_wait_s=0.0,
            nic_wait_s=0.0,
        )
        copy = store.clone()
        copy.record(
            kind="spttm",
            content_key="k1",
            device_names=["Titan X"],
            slots=[0],
            nodes=[0],
            exec_s=9.0,
            device_wait_s=0.0,
            nic_wait_s=0.0,
        )
        assert len(store) == 1 and len(copy) == 2
        assert store.expected_exec_any("spttm", "k1") == pytest.approx(1.0)

    def test_engine_records_across_runs(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=6, seed=0))
        engine = ServingEngine(default_serving_cluster(), autotune=True)
        engine.run(jobs)
        first = len(engine.observations)
        assert first > 0  # static runs still warm the store
        engine.run(jobs)
        assert len(engine.observations) > first


class TestNicPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="nic_policy"):
            ServingEngine(
                default_serving_cluster(), nic_policy="weighted"
            ).run(generate_workload(WorkloadSpec(num_jobs=1, seed=0)))

    @pytest.mark.parametrize("nic_policy", ["fifo", "fair", "priority"])
    def test_accepted_policy_changes_nothing(self, nic_policy):
        """Every collective queues in arrival order whatever the value: an
        adaptive two-node engine given an accepted policy schedules, logs
        and computes exactly as one given none, cold and warm."""
        jobs = generate_workload(
            WorkloadSpec(
                num_jobs=6, seed=3, cross_node_every=2, latency_slo_fraction=0.5
            )
        )
        plain = ServingEngine(
            default_multinode_serving_cluster(2), autotune=True, adaptive=True
        )
        given_policy = ServingEngine(
            default_multinode_serving_cluster(2),
            autotune=True,
            adaptive=True,
            nic_policy=nic_policy,
        )
        for _ in range(2):
            plain_log, policy_log = EventLog(), EventLog()
            a = plain.run(jobs, events=plain_log)
            b = given_policy.run(jobs, events=policy_log)
            assert policy_log.to_jsonl() == plain_log.to_jsonl()
            assert b.makespan_s == a.makespan_s
            _assert_identical_outputs(a, b)


class TestTunerRerank:
    def test_rerank_gates_on_drift_and_known_keys(self):
        from repro.tensor.random import random_sparse_tensor

        cache = PreprocCache()
        tensor = random_sparse_tensor((20, 20, 20), 300, seed=5)
        encoding = cache.encoding(tensor, "spttm", 0)[0]
        config, hit, _ = cache.tuner_config(tensor, "spttm", 0, 8, encoding=encoding)
        assert not hit
        surface = tune_unified(
            encoding,
            "spttm",
            0,
            rank=8,
            block_sizes=SERVING_BLOCK_SIZES,
            threadlens=SERVING_THREADLENS,
        )
        runner_up = np.sort(surface.times, axis=None)[1]
        assert runner_up < 1.2 * surface.best_time
        # An observation 20% off the prediction is within the tolerance: the
        # cached config stays, though it would lose to the runner-up.
        kept, changed = cache.rerank_tuner_config(
            tensor, "spttm", 0, 8, observed_s=1.2 * surface.best_time
        )
        assert kept == config and not changed
        # A wildly slow observation dethrones the cached winner.
        moved, changed = cache.rerank_tuner_config(
            tensor, "spttm", 0, 8, observed_s=1e30
        )
        assert changed and moved != config
        # A shape the tuner never swept is a no-op.
        other = random_sparse_tensor((9, 9, 9), 50, seed=6)
        _, changed = cache.rerank_tuner_config(
            other, "spttm", 0, 8, observed_s=1.0
        )
        assert not changed

    def test_observation_past_tolerance_moves_to_the_runner_up(self):
        from repro.tensor.random import random_sparse_tensor

        cache = PreprocCache()
        tensor = random_sparse_tensor((20, 20, 20), 300, seed=5)
        encoding = cache.encoding(tensor, "spttm", 0)[0]
        config, _, _ = cache.tuner_config(tensor, "spttm", 0, 8, encoding=encoding)
        surface = tune_unified(
            encoding,
            "spttm",
            0,
            rank=8,
            block_sizes=SERVING_BLOCK_SIZES,
            threadlens=SERVING_THREADLENS,
        )
        assert config == surface.best
        i, j = np.unravel_index(np.argsort(surface.times, axis=None)[1], surface.times.shape)
        runner_up = (SERVING_BLOCK_SIZES[i], SERVING_THREADLENS[j])
        observed_s = (1.0 + RERANK_TOLERANCE) * 1.01 * surface.best_time
        assert surface.times[i, j] < observed_s
        # Just past the tolerance, the observation replaces the winner's
        # cell and the runner-up takes over.
        moved, changed = cache.rerank_tuner_config(tensor, "spttm", 0, 8, observed_s=observed_s)
        assert changed and moved == runner_up
        # A later tuner lookup serves the re-ranked config as a hit.
        served, hit, cost_s = cache.tuner_config(tensor, "spttm", 0, 8, encoding=encoding)
        assert (served, hit, cost_s) == (runner_up, True, 0.0)
