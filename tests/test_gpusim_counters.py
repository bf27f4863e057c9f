"""Tests for repro.gpusim.counters."""

from dataclasses import fields

import pytest

from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec
from repro.gpusim.counters import KernelCounters, KernelProfile
from repro.gpusim.device import TITAN_X
from repro.kernels.unified import operation_spec
from repro.kernels.unified.driver import model
from repro.tensor.random import random_sparse_tensor


class TestKernelCounters:
    def test_defaults(self):
        c = KernelCounters()
        assert c.gmem_total_bytes == 0.0
        assert c.imbalance_factor == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            KernelCounters(flops=-1.0)

    @pytest.mark.parametrize(
        "name",
        [f.name for f in fields(KernelCounters) if f.name != "imbalance_factor"],
    )
    def test_each_field_rejects_a_negative_value(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            KernelCounters(**{name: -1})

    def test_imbalance_below_one_rejected(self):
        with pytest.raises(ValueError, match="^imbalance_factor must be >= 1, got 0.5$"):
            KernelCounters(imbalance_factor=0.5)

    def test_as_dict_lists_every_field_in_order(self):
        counters = KernelCounters(flops=2.0, kernel_launches=3)
        assert list(counters.as_dict()) == [f.name for f in fields(KernelCounters)]
        assert counters.as_dict()["kernel_launches"] == 3

    def test_merge_adds_traffic(self):
        a = KernelCounters(gmem_read_bytes=100, flops=10, kernel_launches=1)
        b = KernelCounters(gmem_write_bytes=50, flops=5, kernel_launches=1)
        merged = KernelCounters.merged([a, b])
        assert merged.gmem_total_bytes == 150
        assert merged.flops == 15
        assert merged.kernel_launches == 2

    def test_merge_takes_max_imbalance_and_threads(self):
        a = KernelCounters(active_threads=100, imbalance_factor=2.0)
        b = KernelCounters(active_threads=500, imbalance_factor=1.1)
        merged = KernelCounters.merged([a, b])
        assert merged.active_threads == 500
        assert merged.imbalance_factor == 2.0

    def test_merge_of_no_parts_is_the_empty_ledger(self):
        assert KernelCounters.merged([]) == KernelCounters()

    def test_merge_adds_in_part_order_from_the_defaults(self):
        # 0.1 + 0.2 + 0.3 rounds differently from 0.1 + (0.2 + 0.3).
        parts = [KernelCounters(flops=x, smem_bytes=x) for x in (0.1, 0.2, 0.3)]
        merged = KernelCounters.merged(parts)
        assert merged.flops == merged.smem_bytes == (0.0 + 0.1) + 0.2 + 0.3
        assert merged.flops != 0.1 + (0.2 + 0.3)

    def test_merge_validates_the_total(self):
        broken = KernelCounters(flops=1.0)
        broken.flops = -2.0
        with pytest.raises(ValueError, match="^flops must be non-negative"):
            KernelCounters.merged([KernelCounters(flops=1.0), broken])

    def test_as_dict_round_trip(self):
        c = KernelCounters(flops=3.0, atomic_ops=2.0)
        d = c.as_dict()
        assert d["flops"] == 3.0
        assert d["atomic_ops"] == 2.0


class TestKernelProfile:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile(name="x", counters=KernelCounters(), estimated_time_s=-1.0)


class TestOneLedgerPerPricedKernel:
    """Pricing a kernel builds one ledger for the kernel, plus one per
    chunk or shard it folds into that ledger."""

    @pytest.mark.parametrize(
        "ctx, parts_of",
        [
            (ExecContext(), lambda profile: 0),
            (
                ExecContext(streamed=True, chunk_nnz=128),
                lambda profile: profile.streaming.num_chunks,
            ),
            (
                ExecContext(cluster=ClusterSpec.homogeneous(TITAN_X, 4)),
                lambda profile: profile.sharded.num_shards,
            ),
        ],
        ids=["one-shot", "streamed", "sharded"],
    )
    def test_ledgers_built(self, monkeypatch, ctx, parts_of):
        built = []
        validate = KernelCounters.__post_init__

        def counting(counters):
            built.append(counters)
            validate(counters)

        tensor = random_sparse_tensor((30, 50, 40), 600, seed=11)
        for operation in OperationKind:
            mode = 2 if operation is OperationKind.SPTTM else 0
            encoding = FCOOTensor.from_sparse(tensor, operation, mode)
            spec = operation_spec(encoding, operation, 4)
            built.clear()
            monkeypatch.setattr(KernelCounters, "__post_init__", counting)
            profile = model(encoding, spec, device=TITAN_X, block_size=128, threadlen=8, ctx=ctx)
            monkeypatch.setattr(KernelCounters, "__post_init__", validate)
            assert len(built) == parts_of(profile) + 1
            assert built[-1] is profile.counters
