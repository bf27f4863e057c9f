"""Tests for repro.gpusim.counters."""

from dataclasses import fields

import pytest

from repro.gpusim.counters import KernelCounters, KernelProfile


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
        merged = a.merge(b)
        assert merged.gmem_total_bytes == 150
        assert merged.flops == 15
        assert merged.kernel_launches == 2

    def test_merge_takes_max_imbalance_and_threads(self):
        a = KernelCounters(active_threads=100, imbalance_factor=2.0)
        b = KernelCounters(active_threads=500, imbalance_factor=1.1)
        merged = a + b
        assert merged.active_threads == 500
        assert merged.imbalance_factor == 2.0

    def test_merge_type_error(self):
        with pytest.raises(TypeError):
            KernelCounters().merge("nope")

    def test_as_dict_round_trip(self):
        c = KernelCounters(flops=3.0, atomic_ops=2.0)
        d = c.as_dict()
        assert d["flops"] == 3.0
        assert d["atomic_ops"] == 2.0


class TestKernelProfile:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            KernelProfile(name="x", counters=KernelCounters(), estimated_time_s=-1.0)

    def test_combined_adds_times_and_maxes_memory(self):
        a = KernelProfile(
            name="a",
            counters=KernelCounters(flops=1),
            estimated_time_s=1.0,
            device_memory_bytes=100,
            breakdown={"memory": 0.5},
        )
        b = KernelProfile(
            name="b",
            counters=KernelCounters(flops=2),
            estimated_time_s=2.0,
            device_memory_bytes=300,
            breakdown={"memory": 1.0, "compute": 0.5},
        )
        c = a.combined(b)
        assert c.estimated_time_s == pytest.approx(3.0)
        assert c.device_memory_bytes == 300
        assert c.breakdown["memory"] == pytest.approx(1.5)
        assert "a" in c.name and "b" in c.name
