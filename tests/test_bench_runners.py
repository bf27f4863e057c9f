"""Tests for the experiment harness (one runner per paper table/figure).

The ``paper`` suite's runs (:mod:`repro.bench.paper`: every runner at its
defaults, as ``python -m repro all`` renders it) are made once for the
module.  The tests check each output's structure (row/series counts,
rendering, derived quantities), that each of the suite's counts is 0 on
its run, and that it rises when one claim of the run is broken.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.autotune.tuner import DEFAULT_BLOCK_SIZES, DEFAULT_THREADLENS
from repro.bench import run_fig7
from repro.bench.memory import paper_scale_spmttkrp_footprints, spmttkrp_footprints
from repro.bench.paper import CHECKS, paper_metrics, paper_runs
from repro.bench.scaling import SCALING_OPERATIONS
from repro.data.registry import DATASETS


@pytest.fixture(scope="module")
def runs():
    return paper_runs()


def _count(runs, name):
    return CHECKS[name](runs[name])


class TestPlatformReport:
    def test_mentions_both_devices(self, runs):
        text = runs["table3_platform"]
        assert "Titan X" in text
        assert "i7-5820K" in text
        assert "GB/s" in text
        assert _count(runs, "table3_platform") == 0


class TestTable2:
    def test_rows_and_reduction(self, runs):
        result = runs["table2_storage_cost"]
        assert len(result.rows) == 2 * len(DATASETS)
        for row in result.rows:
            assert row.fcoo_bytes_per_nnz_measured < row.coo_bytes_per_nnz_measured
            assert row.coo_bytes_per_nnz_model == pytest.approx(16.0)
        assert "F-COO" in result.render()
        assert _count(runs, "table2_storage_cost") == 0


class TestTable4:
    def test_renders_all_datasets(self, runs):
        text = runs["table4_datasets"]
        for name in DATASETS:
            assert name in text
        assert "analog nnz" in text
        assert _count(runs, "table4_datasets") == 0


class TestFig5AndTable5:
    def test_fig5_surfaces(self, runs):
        result = runs["fig5_tuning_surfaces"]
        assert set(result.surfaces) == {"brainq", "nell1"}
        shape = (len(DEFAULT_BLOCK_SIZES), len(DEFAULT_THREADLENS))
        assert result.surfaces["brainq"].times.shape == shape
        assert "best configuration" in result.render()
        assert _count(runs, "fig5_tuning_surfaces") == 0

    def test_table5_structure(self, runs):
        result = runs["table5_best_parameters"]
        assert set(result.best) == {"spttm", "spmttkrp"}
        assert result.best["spttm"]["brainq"][0] in DEFAULT_BLOCK_SIZES
        assert "Table V" in result.render()
        assert _count(runs, "table5_best_parameters") == 0


class TestFig6:
    def test_fig6a_unified_wins(self, runs):
        result = runs["fig6a_spttm_speedup"]
        assert [r.dataset for r in result.rows] == list(DATASETS)
        assert "Unified" in result.render()
        assert _count(runs, "fig6a_spttm_speedup") == 0

    def test_fig6b_shapes(self, runs):
        result = runs["fig6b_spmttkrp_speedup"]
        by_name = {r.dataset: r for r in result.rows}
        # ParTI-GPU runs out of memory for nell1 at paper scale (Section V-A).
        assert by_name["nell1"].parti_gpu_time_s is None
        assert by_name["brainq"].parti_gpu_time_s is not None
        assert "OOM" in result.render()
        assert _count(runs, "fig6b_spmttkrp_speedup") == 0


class TestFig7:
    def test_unified_less_mode_sensitive_for_mttkrp(self, runs):
        result = runs["fig7b_spmttkrp_mode_behavior"]
        assert len(result.rows) == 3
        assert "mode behaviour" in result.render()
        assert _count(runs, "fig7b_spmttkrp_mode_behavior") == 0

    def test_spttm_runs_all_modes(self, runs):
        result = runs["fig7a_spttm_mode_behavior"]
        assert len(result.rows) == 3
        assert all(r.splatt_time_s is None for r in result.rows)
        assert _count(runs, "fig7a_spttm_mode_behavior") == 0

    def test_invalid_operation(self):
        with pytest.raises(ValueError):
            run_fig7("spmv")


class TestFig8:
    def test_series_and_growth(self, runs):
        result = runs["fig8_rank_behavior"]
        assert len(result.series) == 4
        unified = result.series_for("brainq", "Unified")
        parti = result.series_for("brainq", "ParTI-GPU")
        assert unified.ranks == (8, 16, 32, 64)
        # Time grows with the rank for both implementations.
        assert unified.times_s[-1] > unified.times_s[0]
        assert parti.times_s[-1] > parti.times_s[0]
        assert "rank" in result.render()
        assert _count(runs, "fig8_rank_behavior") == 0

    def test_unknown_series(self, runs):
        with pytest.raises(KeyError):
            runs["fig8_rank_behavior"].series_for("brainq", "SPLATT")


class TestFig9:
    def test_unified_always_smaller(self, runs):
        result = runs["fig9_memory_consumption"]
        assert len(result.rows) == len(DATASETS)
        for row in result.rows:
            assert row.unified_bytes < row.parti_bytes
            assert 0 < row.reduction_percent < 100
        assert _count(runs, "fig9_memory_consumption") == 0

    def test_oom_only_for_large_tensors(self, runs):
        by_name = {r.dataset: r for r in runs["fig9_memory_consumption"].rows}
        assert by_name["nell1"].parti_oom_at_paper_scale
        assert by_name["delicious"].parti_oom_at_paper_scale
        assert not by_name["brainq"].parti_oom_at_paper_scale
        assert not by_name["nell2"].parti_oom_at_paper_scale

    def test_footprints_match_the_kernels(self, skewed_tensor):
        # Figure 9 sizes both bars with the kernels' own accounting.
        from repro.kernels.baselines.parti_gpu import parti_gpu_spmttkrp
        from repro.kernels.unified import unified_spmttkrp
        from repro.tensor.random import random_factors

        rank = 16
        factors = random_factors(skewed_tensor.shape, rank, seed=0)
        assert spmttkrp_footprints(skewed_tensor, rank) == (
            unified_spmttkrp(skewed_tensor, factors, 0).profile.device_memory_bytes,
            parti_gpu_spmttkrp(skewed_tensor, factors, 0).profile.device_memory_bytes,
        )

    def test_paper_scale_footprints_projection(self):
        unified, parti = paper_scale_spmttkrp_footprints(DATASETS["brainq"], 16)
        assert unified < parti
        # brainq easily fits on a 12 GB card in both layouts (the paper ran it).
        assert parti < 12 * 1024**3


class TestFig10:
    def test_breakdown_and_speedup(self, runs):
        result = runs["fig10_cp_decomposition"]
        assert (result.rank, result.iterations, len(result.rows)) == (8, 5, 4)
        unified_row = result.row("nell2", "unified-gpu")
        assert set(unified_row.mttkrp_time_by_mode) == {0, 1, 2}
        assert "CP-ALS" in result.render()
        assert _count(runs, "fig10_cp_decomposition") == 0

    def test_missing_row_raises(self, runs):
        with pytest.raises(KeyError):
            runs["fig10_cp_decomposition"].row("nell1", "unified-gpu")


class TestScaling:
    def test_strong_and_weak_curves(self, runs):
        strong, weak = runs["strong_scaling"], runs["weak_scaling"]
        assert (strong.kind, weak.kind) == ("strong", "weak")
        assert "strong scaling" in strong.render()
        assert "weak scaling" in weak.render()
        assert _count(runs, "strong_scaling") == 0
        assert _count(runs, "weak_scaling") == 0

    def test_one_node_point_is_the_two_gpu_strong_point(self, runs):
        # Every scaling point runs one kernel on one cluster, so the
        # multi-node curve's one-node point and the strong curve's 2-GPU
        # point are the same measurement, bit for bit.
        for op in SCALING_OPERATIONS:
            node = runs["multinode_scaling"].rows_for(op, "brainq")[0]
            gpus = runs["strong_scaling"].rows_for(op, "brainq")[1]
            assert gpus.num_devices == 2
            assert (node.num_nodes, node.num_devices) == (1, 2)
            assert (node.time_s, node.max_shard_s, node.reduction_s) == (
                gpus.time_s,
                gpus.max_shard_s,
                gpus.reduction_s,
            )


class TestServingDefaultWorkload:
    def test_completed_rejected_split(self, runs):
        report = runs["serving_default_workload"]
        # Pin the deterministic completed/rejected split of the seed-0
        # workload: a placement or admission regression that silently
        # refuses traffic would *improve* every latency metric, so the
        # counts themselves are the guard (update deliberately alongside
        # intentional scheduler changes, like the bench baselines).
        assert (len(report.completed), len(report.rejected)) == (95, 5)


# ---------------------------------------------------------------------- #
# The paper suite: every count can fire
# ---------------------------------------------------------------------- #
def _with_row(result, change, **match):
    """``result`` with ``change`` applied to its first row whose fields
    equal ``match``."""
    rows = list(result.rows)
    i = next(
        i for i, row in enumerate(rows) if all(getattr(row, k) == v for k, v in match.items())
    )
    rows[i] = change(rows[i])
    return replace(result, rows=rows)


def _flat_brainq_surface(result):
    surface = result.surfaces["brainq"]
    flat = replace(surface, times=np.ones_like(surface.times))
    return replace(result, surfaces={**result.surfaces, "brainq": flat})


def _slower_unified_series(result):
    def slower(s):
        return replace(s, times_s=tuple(4.0 * t for t in s.times_s))

    series = [slower(s) if s.implementation == "Unified" else s for s in result.series]
    return replace(result, series=series)


#: check name -> its run with one claim broken.
BREAKS = {
    # F-COO as large as COO: 16 B/nnz where the paper has ~8.1.
    "table2_storage_cost": lambda r: _with_row(
        r, lambda row: replace(row, fcoo_bytes_per_nnz_measured=16.0), dataset="brainq"
    ),
    "table3_platform": lambda text: text.replace("336 GB/s", "?"),
    "table4_datasets": lambda text: text.replace("delicious", "?"),
    "fig5_tuning_surfaces": _flat_brainq_surface,
    "table5_best_parameters": lambda r: replace(
        r, best={**r.best, "spttm": {**r.best["spttm"], "brainq": (16, 8)}}
    ),
    "fig6a_spttm_speedup": lambda r: _with_row(
        r, lambda row: replace(row, unified_time_s=2.0 * row.parti_gpu_time_s), dataset="brainq"
    ),
    # ParTI-GPU fits nell1 after all.
    "fig6b_spmttkrp_speedup": lambda r: _with_row(
        r, lambda row: replace(row, parti_gpu_time_s=row.unified_time_s), dataset="nell1"
    ),
    "fig7a_spttm_mode_behavior": lambda r: _with_row(
        r, lambda row: replace(row, parti_gpu_time_s=0.0), mode=1
    ),
    "fig7b_spmttkrp_mode_behavior": lambda r: _with_row(
        r, lambda row: replace(row, unified_time_s=2.0 * row.unified_time_s), mode=0
    ),
    "fig8_rank_behavior": _slower_unified_series,
    "fig9_memory_consumption": lambda r: _with_row(
        r, lambda row: replace(row, parti_oom_at_paper_scale=True), dataset="brainq"
    ),
    # The dense updates, not the MTTKRPs, dominate unified CP-ALS.
    "fig10_cp_decomposition": lambda r: _with_row(
        r, lambda row: replace(row, other_time_s=1.0), dataset="brainq", engine="unified-gpu"
    ),
    "ablation_kernel_fusion": lambda seconds: {**seconds, "brainq": (2.0, 1.0)},
    # The first curve loses its one-GPU point.
    "strong_scaling": lambda r: replace(r, rows=r.rows[1:]),
    "weak_scaling": lambda r: _with_row(
        r, lambda row: replace(row, time_s=row.time_s / 2.0), operation="spttm", num_devices=2
    ),
    # The selected collective loses to the flat ring.
    "multinode_scaling": lambda r: _with_row(
        r,
        lambda row: replace(row, reduction_s=2.0 * row.flat_reduction_s),
        operation="spmttkrp",
        num_nodes=2,
    ),
    "streaming_overlap": lambda r: _with_row(
        r, lambda row: replace(row, streamed_s=2.0 * row.serial_s), num_streams=2
    ),
    "serving_default_workload": lambda report: replace(report, results=report.results[:-1]),
    "serving_deterministic": lambda pair: (
        pair[0],
        replace(pair[1], results=pair[1].results[:-1]),
    ),
}


class TestPaperSuite:
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_count_rises_when_a_claim_breaks(self, runs, name):
        check = CHECKS[name]
        assert check(runs[name]) == 0
        assert check(BREAKS[name](runs[name])) > 0

    def test_metrics_follow_the_gate_rules(self, runs):
        metrics = paper_metrics(runs)
        counts = {k: v for k, v in metrics.items() if k.endswith("_count")}
        # The 40-job serving run refuses three jobs, and may refuse no more.
        assert counts == {
            **{f"paper/{name}_violation_count": 0.0 for name in CHECKS},
            "paper/serve/rejected_jobs_count": 3.0,
        }
        assert all(math.isfinite(v) for v in metrics.values())
        # No fit: its last bits follow the BLAS thread count.
        assert not [k for k in metrics if "fit" in k]
        # The ratios are ungated; an OOM bar is a claim, not a metric.
        assert metrics["paper/fig6b/brainq/unified_over_parti_gpu_info"] > 10.0
        assert "paper/fig6b/nell1/parti_gpu_s" not in metrics
        assert "paper/fig6b/nell1/unified_over_parti_gpu_info" not in metrics

    def test_metrics_record_the_extension_seconds(self, runs):
        metrics = paper_metrics(runs)
        for op in SCALING_OPERATIONS:
            for gpus in (1, 2, 4, 8):
                assert f"paper/weak/{op}/gpus={gpus}" in metrics
                for workload in ("brainq", "nell2"):
                    assert f"paper/strong/{op}/{workload}/gpus={gpus}" in metrics
            for nodes in (1, 2, 4):
                assert f"paper/multinode/{op}/brainq/nodes={nodes}" in metrics
            assert f"paper/multinode/{op}/brainq/nodes=4/reduction" in metrics
            assert f"paper/multinode/{op}/brainq/nodes=1/reduction" not in metrics
        for name in DATASETS:
            for streams in (1, 2, 4):
                assert f"paper/streamed/{name}/streams={streams}" in metrics
        serve = {k: v for k, v in metrics.items() if k.startswith("paper/serve/")}
        assert set(serve) == {
            "paper/serve/p50_latency",
            "paper/serve/p99_latency",
            "paper/serve/makespan",
            "paper/serve/seconds_per_job",
            "paper/serve/mean_queue_wait",
            "paper/serve/rejected_jobs_count",
        }
        assert all(v >= 0.0 for v in serve.values())
        assert serve["paper/serve/p99_latency"] >= serve["paper/serve/p50_latency"]
