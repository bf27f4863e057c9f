"""Tests for the experiment harness (one runner per paper table/figure).

The full-size runs live in ``benchmarks/``; here each runner is exercised on
a reduced configuration to keep the test suite fast, and the *structural*
properties of its output (row/series counts, rendering, derived quantities)
are checked.
"""

import pytest

from repro.bench import (
    platform_report,
    run_fig5,
    run_fig6a,
    run_fig6b,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_table2,
    run_table4,
    run_table5,
)
from repro.bench.memory import paper_scale_spmttkrp_footprints
from repro.data.registry import DATASETS


class TestPlatformReport:
    def test_mentions_both_devices(self):
        text = platform_report()
        assert "Titan X" in text
        assert "i7-5820K" in text
        assert "GB/s" in text


class TestTable2:
    def test_rows_and_reduction(self):
        result = run_table2(datasets=["brainq"])
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.fcoo_bytes_per_nnz_measured < row.coo_bytes_per_nnz_measured
            assert row.coo_bytes_per_nnz_model == pytest.approx(16.0)
        assert "F-COO" in result.render()


class TestTable4:
    def test_renders_all_datasets(self):
        text = run_table4(include_analog=False)
        for name in DATASETS:
            assert name in text


class TestFig5AndTable5:
    def test_fig5_surfaces(self):
        result = run_fig5(
            datasets=["brainq"], rank=4, block_sizes=(64, 128), threadlens=(8, 16)
        )
        assert set(result.surfaces) == {"brainq"}
        assert result.surfaces["brainq"].times.shape == (2, 2)
        assert "best configuration" in result.render()

    def test_table5_structure(self):
        result = run_table5(datasets=["brainq"], rank=4, block_sizes=(64, 128), threadlens=(8,))
        assert set(result.best) == {"spttm", "spmttkrp"}
        assert result.best["spttm"]["brainq"][0] in (64, 128)
        assert "Table V" in result.render()


class TestFig6:
    def test_fig6a_unified_wins(self):
        result = run_fig6a(rank=8, datasets=["brainq", "nell2"])
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.unified_speedup > 1.0
            assert row.unified_over_parti_gpu is not None
            assert row.unified_over_parti_gpu > 1.0
        assert "Unified" in result.render()

    def test_fig6b_shapes(self):
        # Rank 16 as in the paper: the ParTI-GPU OOM determination depends on
        # the rank through the intermediate tensor size.
        result = run_fig6b(rank=16, datasets=["brainq", "nell1"])
        by_name = {r.dataset: r for r in result.rows}
        # Unified always beats the CPU baselines.
        for row in result.rows:
            assert row.unified_speedup > 1.0
            assert row.speedup_over_omp(row.splatt_time_s) > 1.0
        # ParTI-GPU runs out of memory for nell1 at paper scale (Section V-A).
        assert by_name["nell1"].parti_gpu_time_s is None
        assert by_name["brainq"].parti_gpu_time_s is not None
        assert by_name["brainq"].unified_over_parti_gpu > 5.0
        assert "OOM" in result.render()


class TestFig7:
    def test_unified_less_mode_sensitive_for_mttkrp(self):
        result = run_fig7("spmttkrp", rank=8)
        assert len(result.rows) == 3
        assert result.variation("unified") < result.variation("parti_gpu")
        assert result.variation("unified") < 1.5
        assert "mode behaviour" in result.render()

    def test_spttm_runs_all_modes(self):
        result = run_fig7("spttm", rank=8)
        assert len(result.rows) == 3
        assert all(r.splatt_time_s is None for r in result.rows)

    def test_invalid_operation(self):
        with pytest.raises(ValueError):
            run_fig7("spmv")


class TestFig8:
    def test_series_and_growth(self):
        result = run_fig8(datasets=["brainq"], ranks=(8, 16, 32))
        assert len(result.series) == 2
        unified = result.series_for("brainq", "Unified")
        parti = result.series_for("brainq", "ParTI-GPU")
        # Time grows with the rank for both implementations.
        assert unified.times_s[-1] > unified.times_s[0]
        assert parti.times_s[-1] > parti.times_s[0]
        # Unified stays faster across the sweep (Figure 8).
        for u, p in zip(unified.times_s, parti.times_s):
            assert u < p
        assert "rank" in result.render()

    def test_unknown_series(self):
        result = run_fig8(datasets=["brainq"], ranks=(8,))
        with pytest.raises(KeyError):
            result.series_for("brainq", "SPLATT")


class TestFig9:
    def test_unified_always_smaller(self):
        result = run_fig9(rank=8)
        assert len(result.rows) == len(DATASETS)
        for row in result.rows:
            assert row.unified_bytes < row.parti_bytes
            assert 0 < row.reduction_percent < 100

    def test_oom_only_for_large_tensors(self):
        result = run_fig9(rank=16)
        by_name = {r.dataset: r for r in result.rows}
        assert by_name["nell1"].parti_oom_at_paper_scale
        assert by_name["delicious"].parti_oom_at_paper_scale
        assert not by_name["brainq"].parti_oom_at_paper_scale
        assert not by_name["nell2"].parti_oom_at_paper_scale

    def test_paper_scale_footprints_projection(self):
        unified, parti = paper_scale_spmttkrp_footprints(DATASETS["brainq"], 16)
        assert unified < parti
        # brainq easily fits on a 12 GB card in both layouts (the paper ran it).
        assert parti < 12 * 1024**3


class TestFig10:
    def test_breakdown_and_speedup(self):
        result = run_fig10(rank=4, iterations=2, datasets=["nell2"])
        assert len(result.rows) == 2
        unified_row = result.row("nell2", "unified-gpu")
        splatt_row = result.row("nell2", "splatt-cpu")
        assert set(unified_row.mttkrp_time_by_mode) == {0, 1, 2}
        assert result.speedup("nell2") > 1.0
        # The unified per-mode MTTKRP times are better balanced (Figure 10).
        assert unified_row.mode_balance <= splatt_row.mode_balance + 1e-9
        assert "CP-ALS" in result.render()

    def test_missing_row_raises(self):
        result = run_fig10(rank=4, iterations=1, datasets=["nell2"])
        with pytest.raises(KeyError):
            result.row("brainq", "unified-gpu")
