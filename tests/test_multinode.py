"""Property harness for multi-node hierarchical execution.

The central claims:

* **bit identity** — for every unified kernel and for CP-ALS/Tucker,
  execution across a two-tier :class:`ClusterSpec` (1/2/4 nodes,
  node-boundary-straddling segments included) computes the same result as
  one-shot single-GPU execution;
* **the collective cost model** — the hierarchical all-reduce is never
  costlier than the topology-oblivious flat ring whenever the NIC is the
  slower (lower-bandwidth, higher-latency) tier, and a one-node cluster
  charges *exactly* the ring all-reduce and pairwise exchange formulas;
* **placer locality** — a sharded job that fits inside one node never
  crosses the NIC; only jobs too large for every node spill cluster-wide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.cp import UnifiedGPUEngine, cp_als
from repro.algorithms.tucker import tucker_hooi
from repro.bench.scaling import run_multinode_scaling
from repro.cli import main as cli_main
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.gpusim.cluster import (
    ClusterSpec,
    ETHERNET_10G,
    InterconnectSpec,
    NVLINK1,
    NodeFailure,
    NodeSpec,
    PCIE3_P2P,
    resolve_cluster,
)
from repro.gpusim.device import TITAN_X, scaled_device
from repro.gpusim.timeline import Timeline
from repro.kernels.unified import partition_shards, partition_shards_hierarchical
from repro.kernels.unified.sharded import partition_for_cluster
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.kernels.unified.spttmc import unified_spttmc
from repro.serve import Job, JobKind, ServingEngine, WorkloadSpec, generate_workload
from repro.serve.placement import Placer, job_geometry
from repro.serve.workload import (
    SERVE_NIC,
    default_multinode_serving_cluster,
    default_serving_cluster,
)
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor
from test_streaming import CASE_PARAMS, CASES, run_kernel, run_reference

THREADLEN = 4
BLOCK_SIZE = 32
RANK = 3


def two_tier(
    num_nodes: int = 2,
    devices_per_node: int = 2,
    *,
    intra: InterconnectSpec = NVLINK1,
    nic: InterconnectSpec = ETHERNET_10G,
) -> ClusterSpec:
    return ClusterSpec.homogeneous(
        TITAN_X, devices_per_node, num_nodes=num_nodes, interconnect=intra, nic=nic
    )


# ---------------------------------------------------------------------- #
# The cluster model
# ---------------------------------------------------------------------- #


class TestMultiNodeModel:
    def test_construction_and_flat_layout(self):
        cluster = two_tier(2, 4)
        assert cluster.num_nodes == 2
        assert cluster.num_devices == 8
        assert cluster.node_slots(0) == (0, 1, 2, 3)
        assert cluster.node_slots(1) == (4, 5, 6, 7)
        assert cluster.device_node == (0, 0, 0, 0, 1, 1, 1, 1)
        assert cluster.is_homogeneous
        cluster.validate()

    def test_empty_and_invalid_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=())
        with pytest.raises(ValueError):
            ClusterSpec.homogeneous(TITAN_X, 2, num_nodes=0)
        with pytest.raises(ValueError):
            NodeSpec.homogeneous(TITAN_X, 0)
        with pytest.raises(ValueError):
            ClusterSpec(
                nodes=(NodeSpec.homogeneous(TITAN_X, 2),),
                nic=InterconnectSpec("bad", 0.0, 1e-6),
            )
        # A cluster is not a node.
        with pytest.raises(ValueError):
            ClusterSpec(nodes=(ClusterSpec.homogeneous(TITAN_X, 2),))

    def test_duplicate_device_id_across_nodes_rejected(self):
        from dataclasses import replace

        fast = TITAN_X
        slow = replace(TITAN_X, num_sms=TITAN_X.num_sms // 2)  # same id
        with pytest.raises(ValueError, match="device id"):
            ClusterSpec(
                nodes=(
                    NodeSpec(devices=(fast,), name="fast"),
                    NodeSpec(devices=(slow,), name="slow"),
                )
            )

    def test_duplicate_node_name_rejected(self):
        """Node names key the link and NIC lanes: two nodes sharing a name
        would book one lane twice per collective."""
        node = NodeSpec.homogeneous(TITAN_X, 2, name="node")
        with pytest.raises(ValueError, match="node name"):
            ClusterSpec(nodes=(node, node), nic=ETHERNET_10G)
        with pytest.raises(ValueError, match="node name"):
            ClusterSpec(nodes=(NodeSpec(devices=(TITAN_X,) * 2), NodeSpec(devices=(TITAN_X,) * 2)))

    def test_node_as_cluster_is_one_node_without_nic(self):
        node = NodeSpec.homogeneous(TITAN_X, 3, interconnect=NVLINK1, name="n0")
        cluster = node.as_cluster()
        assert cluster.num_nodes == 1 and cluster.nodes == (node,)
        assert cluster.devices == node.devices
        assert cluster.name == "n0"
        assert cluster.nodes[0].interconnect is NVLINK1
        timeline = Timeline()
        booking = cluster.book_allreduce(timeline, 1 << 20)
        assert {b.resource for b in booking.bookings} == {cluster.link_resource_key(0)}
        assert not any(e.category == "nic" for e in timeline.events)

    def test_resolve_cluster_keeps_one_node_cluster(self):
        # One node stays a one-node cluster, and its collectives book no NIC.
        device, multi = resolve_cluster(TITAN_X, two_tier(1, 4))
        assert multi.num_nodes == 1
        assert multi.num_devices == 4
        timeline = Timeline()
        multi.book_allreduce(timeline, 1 << 20)
        assert not any(e.category == "nic" for e in timeline.events)
        # One node of one device -> plain single-device execution.
        device, multi = resolve_cluster(TITAN_X, two_tier(1, 1))
        assert multi is None and device == TITAN_X
        # Several nodes stay multi-node.
        device, multi = resolve_cluster(TITAN_X, two_tier(2, 2))
        assert multi.num_nodes == 2

    def test_capability_weights_sum_and_node_grouping(self):
        big = scaled_device(TITAN_X, 1.0, name_suffix="mn-big")
        small = scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="mn-small")
        cluster = ClusterSpec(
            nodes=(
                NodeSpec(devices=(big, big), name="big"),
                NodeSpec(devices=(small, small), name="small"),
            )
        )
        weights = cluster.capability_weights()
        node_weights = cluster.node_capability_weights()
        assert sum(weights) == pytest.approx(1.0)
        assert sum(node_weights) == pytest.approx(1.0)
        # The full-rate node carries twice the half-rate node's weight.
        assert node_weights[0] == pytest.approx(2.0 * node_weights[1])
        assert node_weights[0] == pytest.approx(weights[0] + weights[1])


# ---------------------------------------------------------------------- #
# The hierarchical collective cost model
# ---------------------------------------------------------------------- #


class TestHierarchicalCollectives:
    @given(
        devices=st.lists(
            st.sampled_from(
                [
                    TITAN_X,
                    scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="half"),
                ]
            ),
            min_size=2,
            max_size=8,
        ),
        bandwidth=st.floats(min_value=1e8, max_value=1e12),
        latency=st.floats(min_value=0.0, max_value=1e-4, allow_subnormal=False),
        nbytes=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e12)),
        payloads=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=7),
    )
    def test_one_node_charges_ring_and_pairwise_exactly(
        self, devices, bandwidth, latency, nbytes, payloads
    ):
        """A one-node cluster charges the ring all-reduce and the pairwise
        boundary exchange to the bit, whatever its NIC."""
        link = InterconnectSpec("p2p", bandwidth, latency)
        cluster = ClusterSpec(nodes=(NodeSpec(devices, link, "n0"),), nic=ETHERNET_10G)
        n = len(devices)
        ring = (
            0.0
            if nbytes == 0.0
            else (2.0 * (n - 1) / n) * nbytes / bandwidth + 2 * (n - 1) * latency
        )
        assert cluster.allreduce_time(nbytes) == ring
        assert cluster.hierarchical_allreduce_time(nbytes) == ring
        payloads = payloads[: n - 1]
        slots = list(range(1, len(payloads) + 1))
        pairwise = max(payloads) / bandwidth + latency
        assert (
            cluster.neighbor_exchange_time(
                payloads, slots=slots, sources=[slot - 1 for slot in slots]
            )
            == pairwise
        )

    @pytest.mark.parametrize("num_nodes", [2, 3, 4])
    @pytest.mark.parametrize("devices_per_node", [1, 2, 4])
    def test_hierarchical_never_loses_to_flat_ring(self, num_nodes, devices_per_node):
        """hierarchical <= flat whenever the NIC is the slower tier."""
        cluster = two_tier(
            num_nodes, devices_per_node, intra=PCIE3_P2P, nic=ETHERNET_10G
        )
        for nbytes in (0.0, 64.0, 4096.0, 1e6, 64e6):
            hier = cluster.hierarchical_allreduce_time(nbytes)
            flat = cluster.flat_allreduce_time(nbytes)
            assert hier <= flat + 1e-18, (num_nodes, devices_per_node, nbytes)
            assert cluster.allreduce_time(nbytes) == min(hier, flat)

    def test_hierarchical_strictly_wins_with_slow_nic(self):
        cluster = two_tier(2, 4, intra=NVLINK1, nic=ETHERNET_10G)
        assert cluster.hierarchical_allreduce_time(64e6) < cluster.flat_allreduce_time(
            64e6
        )
        assert cluster.allreduce_algorithm(64e6) == "hierarchical"

    def test_flat_ring_can_win_when_nic_is_fast(self):
        """Algorithm selection is real: a NIC faster than the P2P tier can
        flip the choice, and allreduce_time still takes the cheaper one."""
        fast_nic = InterconnectSpec("fat NIC", 100e9, 0.5e-6)
        slow_p2p = InterconnectSpec("slow P2P", 2e9, 10e-6)
        cluster = two_tier(4, 2, intra=slow_p2p, nic=fast_nic)
        nbytes = 64e6
        assert cluster.allreduce_time(nbytes) == min(
            cluster.hierarchical_allreduce_time(nbytes),
            cluster.flat_allreduce_time(nbytes),
        )

    @given(
        num_nodes=st.integers(min_value=2, max_value=5),
        devices_per_node=st.integers(min_value=1, max_value=5),
        p2p_bw=st.floats(min_value=1e9, max_value=1e12),
        nic_ratio=st.floats(min_value=1e-3, max_value=1.0),
        p2p_lat=st.floats(min_value=0.0, max_value=1e-5),
        lat_factor=st.floats(min_value=1.0, max_value=100.0),
        nbytes=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_hierarchical_never_loses_property(
        self, num_nodes, devices_per_node, p2p_bw, nic_ratio, p2p_lat, lat_factor, nbytes
    ):
        """Hypothesis sweep of the tentpole inequality: for any equal-node
        cluster whose NIC has no more bandwidth and no less latency than
        the P2P tier, hierarchical <= flat ring."""
        intra = InterconnectSpec("p2p", p2p_bw, p2p_lat)
        nic = InterconnectSpec("nic", p2p_bw * nic_ratio, p2p_lat * lat_factor)
        cluster = two_tier(num_nodes, devices_per_node, intra=intra, nic=nic)
        hier = cluster.hierarchical_allreduce_time(nbytes)
        flat = cluster.flat_allreduce_time(nbytes)
        assert hier <= flat * (1.0 + 1e-12) + 1e-18

    def test_neighbor_exchange_tiers(self):
        cluster = two_tier(2, 2, intra=NVLINK1, nic=ETHERNET_10G)
        payload = [65536.0]
        # inside node 0, then node 0 -> 1
        intra_cost = cluster.neighbor_exchange_time(payload, slots=[1], sources=[0])
        nic_cost = cluster.neighbor_exchange_time(payload, slots=[2], sources=[1])
        assert nic_cost > intra_cost
        with pytest.raises(ValueError):
            cluster.neighbor_exchange_time(payload, slots=[0], sources=[0])
        with pytest.raises(ValueError):
            cluster.neighbor_exchange_time(payload, slots=[1, 2], sources=[0, 1])

    def test_neighbor_exchange_respects_explicit_source(self):
        """An empty placeholder shard can put the physical sender in
        another node: slot 3's neighbor-by-index is slot 2 (same node),
        but a source in node 0 must be priced over the NIC."""
        cluster = two_tier(2, 2, intra=NVLINK1, nic=ETHERNET_10G)
        payload = [65536.0]
        adjacent = cluster.neighbor_exchange_time(payload, slots=[3], sources=[2])
        crossing = cluster.neighbor_exchange_time(payload, slots=[3], sources=[1])
        assert crossing > adjacent  # NIC, not node 1's P2P tier
        assert crossing == cluster.neighbor_exchange_time(payload, slots=[2], sources=[1])
        with pytest.raises(ValueError):
            cluster.neighbor_exchange_time(payload, slots=[2], sources=[2])
        with pytest.raises(ValueError):
            cluster.neighbor_exchange_time(payload, slots=[3], sources=[0, 1])

    def test_boundary_reduction_prices_nic_past_empty_placeholder(self):
        """SpTTM on a cluster where one device is allocated no partitions:
        the carrying shard's physical predecessor is in the *other* node,
        so the boundary exchange must be priced over the NIC."""
        big = scaled_device(TITAN_X, 1.0, name_suffix="mn-big")
        feeble = scaled_device(
            TITAN_X, 1.0, bandwidth_scale=1e-6, name_suffix="mn-feeble"
        )
        cluster = ClusterSpec(
            nodes=(
                NodeSpec(devices=(big,), name="solo"),
                NodeSpec(devices=(feeble, big), name="mixed"),
            ),
            nic=ETHERNET_10G,
        )
        tensor = CASES["single-segment"]()  # one fiber: every boundary carries
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        result = run_kernel(unified_spttm, tensor, factors, 2, ctx=ExecContext(cluster=cluster))
        execution = result.profile.sharded
        assert execution is not None and execution.reduction_kind == "boundary"
        # The feeble device (flat slot 1) got no partitions; slots 0 and 2
        # executed, and slot 2's carried segment arrives from node 0.
        executed = [ledger.index for ledger in execution.shards]
        assert executed == [0, 2]
        assert execution.shards[1].carries_in
        expected = cluster.neighbor_exchange_time(
            [execution.reduction_bytes], slots=[2], sources=[0]
        )
        assert execution.reduction_time_s == pytest.approx(expected)
        # Bit identity still holds with the placeholder in the middle.
        one_shot = run_kernel(unified_spttm, tensor, factors, 2, ctx=ExecContext(streamed=False))
        assert result.output.allclose(one_shot.output)


# ---------------------------------------------------------------------- #
# Topology-aware partitioning
# ---------------------------------------------------------------------- #


class TestHierarchicalPartition:
    def test_slot_aligned_contiguous_coverage(self):
        fcoo = FCOOTensor.from_sparse(CASES["order3-power"](), "spmttkrp", 0)
        cluster = two_tier(2, 2)
        shards = partition_shards_hierarchical(fcoo, cluster, threadlen=THREADLEN)
        assert len(shards) == cluster.num_devices
        assert shards[0].start == 0
        assert shards[-1].stop == fcoo.nnz
        for prev, nxt in zip(shards, shards[1:]):
            assert prev.stop == nxt.start
            assert nxt.start % THREADLEN == 0
        assert sum(s.nnz for s in shards) == fcoo.nnz

    def test_node_spans_follow_node_weights(self):
        big = scaled_device(TITAN_X, 1.0, name_suffix="mn-big")
        small = scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="mn-small")
        cluster = ClusterSpec(
            nodes=(
                NodeSpec(devices=(big, big), name="big"),
                NodeSpec(devices=(small, small), name="small"),
            )
        )
        tensor = random_sparse_tensor((40, 60, 50), 3000, seed=0)
        fcoo = FCOOTensor.from_sparse(tensor, "spmttkrp", 0)
        shards = partition_shards_hierarchical(fcoo, cluster, threadlen=THREADLEN)
        node0 = shards[0].nnz + shards[1].nnz
        node1 = shards[2].nnz + shards[3].nnz
        # The full-rate node gets ~2x the non-zeros (threadlen granularity).
        assert node0 == pytest.approx(2.0 * node1, rel=0.05)
        # Devices inside one node split evenly (identical capabilities).
        assert abs(shards[0].nnz - shards[1].nnz) <= THREADLEN

    def test_one_node_cluster_keeps_single_node_split(self):
        """Only several nodes shard topology-aware: one homogeneous node
        keeps the even split, one heterogeneous node the capability
        weights."""
        indices = np.array([[i, i % 3, i % 2] for i in range(10)])
        fcoo = FCOOTensor.from_sparse(
            SparseTensor(indices, np.arange(1.0, 11.0), (10, 3, 2)), "spmttkrp", 0
        )
        cluster = ClusterSpec.homogeneous(TITAN_X, 4)
        even = partition_for_cluster(fcoo, cluster, threadlen=1)
        assert [s.stop for s in even] == [3, 6, 9, 10]
        assert [s.stop for s in partition_shards(fcoo, 4, threadlen=1)] == [3, 6, 9, 10]
        # The hierarchical rule would split the same stream differently.
        hier = partition_shards_hierarchical(fcoo, cluster, threadlen=1)
        assert [s.stop for s in hier] == [3, 6, 8, 10]
        half = scaled_device(TITAN_X, 1.0, bandwidth_scale=0.5, name_suffix="half")
        mixed = NodeSpec(devices=(TITAN_X, half), name="mixed").as_cluster()
        weighted = partition_for_cluster(fcoo, mixed, threadlen=1)
        expected = partition_shards(fcoo, 2, threadlen=1, weights=mixed.capability_weights())
        assert [s.stop for s in weighted] == [s.stop for s in expected] == [7, 10]

    def test_empty_and_short_streams(self):
        cluster = two_tier(2, 2)
        empty = FCOOTensor.from_sparse(CASES["empty"](), "spmttkrp", 0)
        assert partition_shards_hierarchical(empty, cluster, threadlen=THREADLEN) == []
        short = FCOOTensor.from_sparse(CASES["nnz-below-threadlen"](), "spmttkrp", 0)
        shards = partition_shards_hierarchical(short, cluster, threadlen=THREADLEN)
        assert len(shards) == cluster.num_devices
        assert sum(s.nnz for s in shards) == short.nnz
        assert sum(1 for s in shards if s.nnz) == 1  # 3 nnz < one partition


# ---------------------------------------------------------------------- #
# Bit identity across nodes
# ---------------------------------------------------------------------- #


class TestMultiNodeEqualsOneShot:
    """The property: multi-node output == one-shot output == reference."""

    @pytest.mark.parametrize("kernel", [unified_spttm, unified_spmttkrp, unified_spttmc])
    @pytest.mark.parametrize("num_nodes", [1, 2, 4])
    @pytest.mark.parametrize("build", CASE_PARAMS)
    def test_multinode_matches_one_shot_and_reference(self, kernel, num_nodes, build):
        tensor = build()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        mode = tensor.order - 1 if kernel is unified_spttm else 0
        cluster = two_tier(num_nodes, 2)

        one_shot = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(streamed=False))
        multi = run_kernel(kernel, tensor, factors, mode, ctx=ExecContext(cluster=cluster))
        reference = run_reference(kernel, tensor, factors, mode)

        if kernel is unified_spttm:
            assert multi.output.allclose(one_shot.output)
            assert multi.output.allclose(reference, rtol=1e-5, atol=1e-6)
        else:
            np.testing.assert_allclose(
                multi.output, one_shot.output, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(multi.output, reference, rtol=1e-5, atol=1e-6)

    def test_node_boundary_straddling_segment(self):
        """The crafted 30-nnz fiber spans shard AND node-span boundaries."""
        tensor = CASES["boundary-straddle"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        cluster = two_tier(4, 1)  # every shard boundary is a node boundary
        one_shot = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(streamed=False))
        multi = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(cluster=cluster))
        execution = multi.profile.sharded
        assert execution is not None
        assert any(s.carries_in for s in execution.shards)
        np.testing.assert_allclose(
            multi.output, one_shot.output, rtol=1e-10, atol=1e-12
        )

    def test_reduction_pricing_uses_selected_algorithm(self):
        tensor = CASES["order3-power"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=5)]
        cluster = two_tier(2, 2)
        mttkrp = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(cluster=cluster))
        execution = mttkrp.profile.sharded
        assert execution.reduction_kind == "allreduce"
        assert execution.reduction_time_s == pytest.approx(
            cluster.allreduce_time(execution.reduction_bytes)
        )
        assert execution.reduction_time_s <= cluster.flat_allreduce_time(
            execution.reduction_bytes
        )
        spttm = run_kernel(unified_spttm, tensor, factors, 2, ctx=ExecContext(cluster=cluster))
        assert spttm.profile.sharded.reduction_kind == "boundary"

    def test_streamed_fallback_shard_on_multinode(self):
        tensor = CASES["order3-power"]()
        factors = [np.asarray(f) for f in random_factors(tensor.shape, RANK, seed=7)]
        tiny = scaled_device(TITAN_X, 3.2e-7, name_suffix="tiny")
        cluster = ClusterSpec.homogeneous(tiny, 1, num_nodes=2, nic=ETHERNET_10G)
        one_shot = unified_spmttkrp(
            tensor, factors, 0, block_size=BLOCK_SIZE, threadlen=THREADLEN
        )
        multi = unified_spmttkrp(
            tensor,
            factors,
            0,
            block_size=BLOCK_SIZE,
            threadlen=THREADLEN,
            ctx=ExecContext(cluster=cluster),
        )
        execution = multi.profile.sharded
        assert execution is not None
        assert any(s.streaming is not None for s in execution.shards)
        np.testing.assert_allclose(
            multi.output, one_shot.output, rtol=1e-10, atol=1e-12
        )

    def test_cp_als_multinode_matches_single_gpu(self):
        tensor = CASES["order3-power"]()
        cluster = two_tier(2, 2)
        single = cp_als(
            tensor, 4, engine=UnifiedGPUEngine(), max_iterations=2, seed=0,
            compute_fit=False,
        )
        multi = cp_als(
            tensor, 4, engine=UnifiedGPUEngine(ctx=ExecContext(cluster=cluster)), max_iterations=2,
            seed=0, compute_fit=False,
        )
        for single_f, multi_f in zip(single.factors, multi.factors):
            np.testing.assert_allclose(single_f, multi_f, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(single.weights, multi.weights, rtol=1e-9)
        assert set(multi.device_time_by_device) == {0, 1, 2, 3}
        assert 0.0 < multi.parallel_efficiency <= 1.0

    def test_tucker_multinode_matches_single_gpu(self):
        tensor = CASES["order3-power"]()
        single = tucker_hooi(tensor, (3, 3, 3), max_iterations=1, seed=0)
        multi = tucker_hooi(
            tensor, (3, 3, 3), max_iterations=1, seed=0, ctx=ExecContext(cluster=two_tier(2, 2))
        )
        for single_f, multi_f in zip(single.factors, multi.factors):
            np.testing.assert_allclose(single_f, multi_f, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(single.core, multi.core, rtol=1e-9, atol=1e-12)

    @given(
        dims=st.tuples(*(st.integers(min_value=2, max_value=14),) * 3),
        nnz=st.integers(min_value=1, max_value=220),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_nodes=st.integers(min_value=1, max_value=4),
        devices_per_node=st.integers(min_value=1, max_value=3),
    )
    def test_multinode_equals_one_shot_property(
        self, dims, nnz, seed, num_nodes, devices_per_node
    ):
        """Hypothesis sweep: arbitrary tensors x node topologies agree."""
        tensor = random_sparse_tensor(dims, nnz, seed=seed)
        factors = [np.asarray(f) for f in random_factors(dims, RANK, seed=seed)]
        one_shot = run_kernel(unified_spmttkrp, tensor, factors, 0, ctx=ExecContext(streamed=False))
        multi = run_kernel(
            unified_spmttkrp,
            tensor,
            factors,
            0,
            ctx=ExecContext(cluster=two_tier(num_nodes, devices_per_node)),
        )
        np.testing.assert_allclose(
            multi.output, one_shot.output, rtol=1e-10, atol=1e-12
        )


# ---------------------------------------------------------------------- #
# Node-aware placement
# ---------------------------------------------------------------------- #


def _kernel_job(tensor, job_id=0, kind=JobKind.SPMTTKRP, rank=8) -> Job:
    return Job(
        job_id=job_id,
        tenant="t",
        kind=kind,
        tensor=tensor,
        mode=0,
        rank=rank,
        arrival_s=0.0,
        factor_seed=3,
    )


class TestNodeAwarePlacement:
    @pytest.fixture(scope="class")
    def cluster(self):
        return default_multinode_serving_cluster()

    @pytest.fixture(scope="class")
    def placer(self, cluster):
        return Placer(cluster)

    def _place(self, placer, job):
        geometry = job_geometry(job)
        assert placer.admit(job, geometry) is None
        free = [0.0] * placer.cluster.num_devices
        return placer.place(geometry, free, 0.0)

    def test_small_job_stays_single_device(self, placer):
        tensor = random_sparse_tensor((10, 12, 14), 300, seed=2)
        placement = self._place(placer, _kernel_job(tensor))
        assert not placement.sharded
        assert not placement.crosses_nic

    def test_node_fit_job_never_crosses_nic(self, placer, cluster):
        """The whale exceeds any device but fits the big node: node-local."""
        rng = np.random.default_rng(1)
        from repro.serve.workload import _whale_tensor

        whale = _whale_tensor(rng)
        geometry = job_geometry(_kernel_job(whale))
        assert geometry.footprint_bytes > cluster.max_device_memory_bytes
        placement = self._place(placer, _kernel_job(whale))
        assert placement.sharded
        assert not placement.crosses_nic
        assert placement.node_index == 0  # the big node
        assert placement.device_slots == cluster.node_slots(0)
        assert placement.cluster.nodes == (cluster.nodes[0],)

    def test_locality_prefers_less_loaded_qualifying_node(self):
        """With two equally capable nodes, load breaks the locality tie."""
        big = scaled_device(TITAN_X, 2.0e-5, name_suffix="serve big")
        cluster = ClusterSpec.homogeneous(big, 2, num_nodes=2, nic=SERVE_NIC)
        placer = Placer(cluster)
        rng = np.random.default_rng(1)
        from repro.serve.workload import _whale_tensor

        job = _kernel_job(_whale_tensor(rng))
        geometry = job_geometry(job)
        busy_node0 = placer.place(geometry, [5.0, 5.0, 0.0, 0.0], 0.0)
        assert busy_node0.node_index == 1
        busy_node1 = placer.place(geometry, [0.0, 0.0, 5.0, 5.0], 0.0)
        assert busy_node1.node_index == 0

    def test_cross_node_job_spills_over_nic(self, placer, cluster):
        rng = np.random.default_rng(2)
        from repro.serve.workload import _cross_node_tensor

        cross = _cross_node_tensor(rng)
        geometry = job_geometry(_kernel_job(cross))
        # Too big for any single node's aggregate...
        for index, node in enumerate(cluster.nodes):
            aggregate = geometry.fcoo_bytes + node.num_devices * geometry.resident_bytes
            assert aggregate > sum(d.global_mem_bytes for d in node.devices), index
        placement = self._place(placer, _kernel_job(cross))
        # ...so it spans every node over the NIC.
        assert placement.sharded
        assert placement.crosses_nic
        assert placement.node_index is None
        assert placement.device_slots == tuple(range(cluster.num_devices))

    def test_one_node_cluster_places_off_the_nic(self):
        placer = Placer(default_multinode_serving_cluster(1))
        assert placer.cluster.num_nodes == 1
        assert not placer.multinode
        # The whale exceeds every device: it shards across the one node,
        # and neither the placement nor its collective touches a NIC.
        from repro.serve.workload import _whale_tensor

        placement = self._place(placer, _kernel_job(_whale_tensor(np.random.default_rng(1))))
        assert placement.sharded and not placement.crosses_nic
        timeline = Timeline()
        placement.cluster.book_allreduce(timeline, 1 << 20)
        assert not any(e.category == "nic" for e in timeline.events)


# ---------------------------------------------------------------------- #
# Multi-node serving
# ---------------------------------------------------------------------- #


class TestMultiNodeServing:
    def test_workload_cross_node_tenants_and_rng_stability(self):
        base = generate_workload(WorkloadSpec(num_jobs=30, seed=0))
        with_cross = generate_workload(
            WorkloadSpec(num_jobs=30, seed=0, cross_node_every=14)
        )
        assert len(base) == len(with_cross)
        # The cadence produces cross-node tenants, always on kernel kinds,
        # all sharing the one cross tensor.
        cross_jobs = [
            job
            for job_id, job in enumerate(with_cross)
            if job_id % 14 == 13 and (job_id % 33 != 32)
        ]
        assert cross_jobs and all(j.kind.is_kernel for j in cross_jobs)
        assert len({j.tensor.content_key for j in cross_jobs}) == 1
        # With the feature disabled (the default), the workload is
        # byte-identical run to run — the cross tensor draw must not touch
        # the RNG stream, guarding the committed serving baseline.
        disabled = generate_workload(WorkloadSpec(num_jobs=30, seed=0))
        for a, b in zip(base, disabled):
            assert a.tensor.content_key == b.tensor.content_key
            assert a.arrival_s == b.arrival_s and a.kind is b.kind

    def test_multinode_serving_exercises_both_shard_paths(self):
        report = ServingEngine(default_multinode_serving_cluster()).run(
            generate_workload(WorkloadSpec(num_jobs=60, seed=0, cross_node_every=14))
        )
        assert report.node_local_sharded_jobs > 0
        assert report.cross_node_jobs > 0
        assert "node-local (off the NIC)" in report.render()
        # Node-local shards never reduce over the NIC.
        for result in report.completed:
            if result.placement is not None and result.placement.node_index is not None:
                assert not result.placement.crosses_nic

    def test_multinode_serving_deterministic(self):
        jobs = generate_workload(WorkloadSpec(num_jobs=25, seed=3, cross_node_every=14))
        first = ServingEngine(default_multinode_serving_cluster()).run(jobs)
        second = ServingEngine(default_multinode_serving_cluster()).run(jobs)
        assert [r.finish_s for r in first.results] == [
            r.finish_s for r in second.results
        ]
        assert first.makespan_s == second.makespan_s

    def test_one_node_chaos_takes_out_one_device_slot(self):
        """On a one-node serving cluster a chaos event's node index names a
        device slot: exactly that slot dies, and an index past the last
        slot is ignored."""
        jobs = generate_workload(WorkloadSpec(num_jobs=40, seed=0))
        clean = ServingEngine(default_serving_cluster()).run(jobs)
        for node_index, requeued in ((0, 1), (2, 3), (3, 1), (4, 0)):
            failure = NodeFailure(time_s=0.3 * clean.makespan_s, node_index=node_index)
            report = ServingEngine(default_serving_cluster()).run(jobs, chaos=[failure])
            assert report.requeued_jobs == requeued, node_index
            fired = [e for e in report.events.events if e.kind == "node_failure"]
            if node_index < 4:
                assert report.failures == [failure]
                assert [dict(e.fields)["slots"] for e in fired] == [[node_index]]
            else:
                assert report.failures == [] and fired == []

    def test_single_node_serving_unchanged(self):
        """The default workload/cluster keep their exact pre-multi-node
        behaviour (guards the ``paper/serve/*`` seconds of the committed
        BENCH_paper baseline)."""
        jobs = generate_workload(WorkloadSpec(num_jobs=20, seed=0))
        report = ServingEngine(default_serving_cluster()).run(jobs)
        assert report.cross_node_jobs == 0
        assert report.node_local_sharded_jobs == 0
        assert "topology:" not in report.render()


# ---------------------------------------------------------------------- #
# Bench runner, regression metrics and CLI surfaces
# ---------------------------------------------------------------------- #


class TestMultiNodeBench:
    def test_multinode_scaling_structure(self):
        result = run_multinode_scaling(rank=4, node_counts=(1, 2, 4))
        for op in ("spttm", "spmttkrp", "spttmc"):
            curve = result.rows_for(op, "brainq")
            assert [r.num_nodes for r in curve] == [1, 2, 4]
            assert curve[0].speedup == pytest.approx(1.0)
            for row in curve[1:]:
                assert row.num_devices == row.num_nodes * 2
                # The tentpole inequality, visible per row.
                assert row.reduction_s <= row.flat_reduction_s + 1e-15
        assert "Multi-node scaling" in result.render()
        assert "hierarchical" in result.render()

    def test_cli_scaling_nodes(self, capsys):
        assert cli_main(["scaling", "--nodes", "2", "--rank", "4"]) == 0
        out = capsys.readouterr().out
        assert "Multi-node scaling" in out
        assert "hierarchical" in out

    def test_cli_serve_nodes(self, capsys):
        assert cli_main(["serve", "--nodes", "2", "--jobs", "30"]) == 0
        out = capsys.readouterr().out
        assert "topology: 2 nodes" in out
