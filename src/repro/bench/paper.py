"""The paper's claims as zero-tolerance counts: the ``paper`` regression suite.

:func:`paper_runs` makes every run of the paper's evaluation (Tables II-V,
Figures 5-10) and of the extension experiments at the runners' defaults,
which is what ``python -m repro all`` renders.  Each entry of
:data:`CHECKS` takes one run and returns how many of its claims fail,
counting every row it reads.  The datasets are scaled synthetic analogs,
so the checks hold the *shape* of the paper's claims.
:func:`paper_metrics` turns both into ``BENCH_paper.json`` under the rules
of :func:`repro.bench.regression.compare_metrics`: one zero-tolerance
``paper/<check>_violation_count`` per check, the modeled seconds and bytes
of the paper's tables and figures under the ordinary band, and their
ratios as ungated ``_info``, which README's fidelity ledger quotes.  The
extension runs add their modeled seconds under the band: every scaling
point, every streamed pipeline, and the 40-job serving run's latencies,
with its rejected jobs as a zero-tolerance count.  An
out-of-memory (``None``) entry is a claim, not a metric, and no fit is
recorded: its last bits follow the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.bench.cp_bench import Fig10Result, run_fig10
from repro.bench.datasets_table import run_table4
from repro.bench.memory import Fig9Result, run_fig9
from repro.bench.modes import Fig7Result, run_fig7
from repro.bench.platform import platform_report
from repro.bench.ranks import Fig8Result, run_fig8
from repro.bench.scaling import (
    SCALING_OPERATIONS,
    MultiNodeScalingResult,
    ScalingResult,
    run_multinode_scaling,
    run_scaling,
    run_weak_scaling,
)
from repro.bench.serving import run_serving
from repro.bench.speedups import Fig6Result, run_fig6a, run_fig6b
from repro.bench.storage import Table2Result, run_table2
from repro.bench.streaming import StreamingResult, run_streaming
from repro.bench.tuning import Fig5Result, Table5Result, run_fig5, run_table5
from repro.data.registry import DATASETS, load_dataset
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.serve.engine import ServingReport
from repro.tensor.random import random_factors

__all__ = ["CHECKS", "paper_metrics", "paper_runs", "run_fusion_ablation"]


def run_fusion_ablation() -> Dict[str, Tuple[float, float]]:
    """Kernel fusion ablation (Section IV-D): the modeled seconds of the
    fused and the unfused unified mode-1 SpMTTKRP at rank 16, per dataset.

    The paper lists kernel fusion among its GPU optimisations without
    quantifying it; the unfused variant spills the partial products to
    global memory between the product and scan stages.
    """
    seconds = {}
    for name in DATASETS:
        tensor = load_dataset(name)
        factors = random_factors(tensor.shape, 16, seed=0)
        seconds[name] = tuple(
            unified_spmttkrp(tensor, factors, 0, fused=fused).estimated_time_s
            for fused in (True, False)
        )
    return seconds


def paper_runs() -> Dict[str, object]:
    """Every run the checks read, keyed by check name."""
    return {
        "table2_storage_cost": run_table2(),
        "table3_platform": platform_report(),
        "table4_datasets": run_table4(),
        "fig5_tuning_surfaces": run_fig5(),
        "table5_best_parameters": run_table5(),
        "fig6a_spttm_speedup": run_fig6a(),
        "fig6b_spmttkrp_speedup": run_fig6b(),
        "fig7a_spttm_mode_behavior": run_fig7("spttm"),
        "fig7b_spmttkrp_mode_behavior": run_fig7("spmttkrp"),
        "fig8_rank_behavior": run_fig8(),
        "fig9_memory_consumption": run_fig9(),
        "fig10_cp_decomposition": run_fig10(),
        "ablation_kernel_fusion": run_fusion_ablation(),
        "strong_scaling": run_scaling(),
        "weak_scaling": run_weak_scaling(),
        "multinode_scaling": run_multinode_scaling(),
        "streaming_overlap": run_streaming(),
        "serving_default_workload": run_serving(num_jobs=100, seed=0),
        "serving_deterministic": tuple(run_serving(num_jobs=40, seed=0) for _ in range(2)),
    }


# ---------------------------------------------------------------------- #
# The checks: each returns its number of failed claims.
# ---------------------------------------------------------------------- #
def _near(value: float, expected: float, *, rel: float = 1e-6, tol: float = 1e-12) -> bool:
    """``value == pytest.approx(expected, rel=rel, abs=tol)``; ``rel=0.0``
    is ``approx`` given ``abs`` alone."""
    return abs(value - expected) <= max(rel * abs(expected), tol)


def _failed(*claims: bool) -> int:
    return sum(not claim for claim in claims)


def _decays(values: List[float]) -> bool:
    """Never grows from one entry to the next (beyond rounding)."""
    return all(later <= earlier + 1e-9 for earlier, later in zip(values, values[1:]))


def _table2_storage_cost(result: Table2Result) -> int:
    """16 B/nnz for COO, ~8.14 (SpTTM) / ~12.14 (SpMTTKRP) for F-COO."""
    return sum(
        _failed(
            _near(row.coo_bytes_per_nnz_measured, 16.0),
            _near(
                row.fcoo_bytes_per_nnz_measured,
                8.14 if "SpTTM" in row.operation else 12.14,
                rel=0.0,
                tol=0.05,
            ),
            row.reduction_factor > 1.3,
        )
        for row in result.rows
    )


def _table3_platform(text: str) -> int:
    return sum(part not in text for part in ("Titan X", "336 GB/s", "68 GB/s"))


def _table4_datasets(text: str) -> int:
    return sum(name not in text for name in DATASETS)


def _fig5_tuning_surfaces(result: Fig5Result) -> int:
    """Each surface covers the sweep and discriminates between launches."""
    return sum(
        _failed(
            s.times.shape == (len(s.block_sizes), len(s.threadlens)),
            s.best_time > 0,
            s.times.max() > s.times.min(),
        )
        for s in result.surfaces.values()
    )


def _table5_best_parameters(result: Table5Result) -> int:
    bad = 0
    for op in ("spttm", "spmttkrp"):
        bad += set(result.best[op]) != set(DATASETS)
        for block_size, threadlen in result.best[op].values():
            bad += _failed(block_size >= 32, threadlen >= 1)
    return bad


def _fig6a_spttm_speedup(result: Fig6Result) -> int:
    """Unified beats ParTI-omp and ParTI-GPU, and ParTI-GPU beats ParTI-omp,
    on every dataset."""
    return sum(
        _failed(
            row.unified_speedup > 1.0,
            row.unified_over_parti_gpu is not None,
            (row.unified_over_parti_gpu or 0.0) > 1.0,
            (row.speedup_over_omp(row.parti_gpu_time_s) or 0.0) > 1.0,
        )
        for row in result.rows
    )


def _fig6b_spmttkrp_speedup(result: Fig6Result) -> int:
    """Unified beats both CPU codes everywhere and ParTI-GPU tenfold where
    it fits; ParTI-GPU is OOM on the two largest tensors; brainq gains most."""
    rows = {r.dataset: r for r in result.rows}
    bad = sum(
        _failed(
            row.unified_speedup > 1.0,
            (row.speedup_over_omp(row.splatt_time_s) or 0.0) > 1.0,
        )
        for row in result.rows
    )
    bad += _failed(
        rows["nell1"].parti_gpu_time_s is None,
        rows["delicious"].parti_gpu_time_s is None,
        (rows["brainq"].unified_over_parti_gpu or 0.0) > 10.0,
        (rows["nell2"].unified_over_parti_gpu or 0.0) > 10.0,
        rows["brainq"].unified_speedup == max(r.unified_speedup for r in result.rows),
    )
    return bad


def _fig7a_spttm_mode_behavior(result: Fig7Result) -> int:
    """ParTI-GPU's worst SpTTM mode on brainq is mode 2 (the fewest fibers)."""
    parti = [r.parti_gpu_time_s for r in result.rows]
    return _failed(len(result.rows) == 3, max(parti) == parti[1])


def _fig7b_spmttkrp_mode_behavior(result: Fig7Result) -> int:
    """Unified is the least mode-sensitive SpMTTKRP."""
    unified = result.variation("unified")
    return _failed(
        unified < result.variation("parti_gpu"),
        unified < result.variation("splatt"),
        unified < 1.5,
    )


def _fig8_rank_behavior(result: Fig8Result) -> int:
    """Unified is faster at every rank, and ParTI-GPU's time grows at least
    as fast with the rank."""
    bad = 0
    for dataset in ("brainq", "nell2"):
        unified = result.series_for(dataset, "Unified")
        parti = result.series_for(dataset, "ParTI-GPU")
        bad += sum(not u < p for u, p in zip(unified.times_s, parti.times_s))
        bad += _failed(parti.growth_factor >= unified.growth_factor * 0.95)
    return bad


def _fig9_memory_consumption(result: Fig9Result) -> int:
    """Unified needs far less memory; at paper scale ParTI-GPU exceeds the
    Titan X on nell1 and delicious only."""
    rows = {r.dataset: r for r in result.rows}
    bad = sum(
        _failed(
            row.unified_bytes < row.parti_bytes,
            row.unified_paper_scale_bytes < row.parti_paper_scale_bytes,
            row.reduction_percent > 25.0,
        )
        for row in result.rows
    )
    bad += _failed(
        rows["nell1"].parti_oom_at_paper_scale,
        rows["delicious"].parti_oom_at_paper_scale,
        not rows["brainq"].parti_oom_at_paper_scale,
        not rows["nell2"].parti_oom_at_paper_scale,
    )
    return bad


def _fig10_cp_decomposition(result: Fig10Result) -> int:
    """Unified CP-ALS beats SPLATT with balanced, dominant per-mode MTTKRPs,
    and both reach the same fit."""
    bad = 0
    for dataset in ("brainq", "nell2"):
        unified = result.row(dataset, "unified-gpu")
        splatt = result.row(dataset, "splatt-cpu")
        bad += _failed(
            result.speedup(dataset) > 1.0,
            unified.mode_balance < 1.2,
            unified.mode_balance <= splatt.mode_balance,
            sum(unified.mttkrp_time_by_mode.values()) > unified.other_time_s,
            _near(unified.final_fit, splatt.final_fit, rel=1e-3),
        )
    return bad


def _ablation_kernel_fusion(seconds: Dict[str, Tuple[float, float]]) -> int:
    return sum(not unfused / fused >= 1.0 for fused, unfused in seconds.values())


def _strong_scaling(result: ScalingResult) -> int:
    """Each curve runs 1/2/4/8 GPUs from an exact one-GPU baseline, with an
    efficiency in (0, 1] that never grows."""
    bad = 0
    for op in SCALING_OPERATIONS:
        for workload in ("brainq", "nell2"):
            curve = result.rows_for(op, workload)
            bad += _failed(
                [r.num_devices for r in curve] == [1, 2, 4, 8],
                _near(curve[0].speedup, 1.0),
                _near(curve[0].efficiency, 1.0),
                _decays([r.efficiency for r in curve]),
            )
            bad += sum(not 0.0 < r.efficiency <= 1.0 for r in curve[1:])
    return bad


def _weak_scaling(result: ScalingResult) -> int:
    """The all-reduce grows with the cluster, and T(1)/T(N) stays near or
    below 1 (a small overshoot is duplicate-merge noise in the realised nnz)."""
    bad = 0
    for op in ("spmttkrp", "spttmc"):
        reductions = [r.reduction_s for r in result.rows_for(op)]
        bad += not all(b >= a for a, b in zip(reductions, reductions[1:]))
    return bad + sum(not 0.0 < r.speedup <= 1.05 for r in result.rows)


def _multinode_scaling(result: MultiNodeScalingResult) -> int:
    """Each brainq curve runs 1/2/4 nodes from an exact one-node baseline,
    with a decaying efficiency in (0, 1]; the selected collective never
    loses to the flat ring, and the all-reduce kernels run hierarchical."""
    bad = 0
    for op in SCALING_OPERATIONS:
        curve = result.rows_for(op, "brainq")
        bad += _failed(
            [r.num_nodes for r in curve] == [1, 2, 4],
            _near(curve[0].speedup, 1.0),
            _near(curve[0].efficiency, 1.0),
            _decays([r.efficiency for r in curve]),
        )
        for row in curve[1:]:
            bad += _failed(
                0.0 < row.efficiency <= 1.0,
                row.reduction_s <= row.flat_reduction_s + 1e-15,
            )
    bad += _failed(
        any(
            row.reduction_algorithm == "hierarchical"
            for row in result.rows
            if row.operation in ("spmttkrp", "spttmc") and row.num_nodes > 1
        )
    )
    return bad


def _streaming_overlap(result: StreamingResult) -> int:
    """Two streams land strictly between full and no overlap, and beat one."""
    by_dataset: Dict[str, dict] = {}
    for row in result.rows:
        by_dataset.setdefault(row.dataset, {})[row.num_streams] = row
    return sum(
        _failed(
            rows[2].ideal_s < rows[2].streamed_s < rows[2].serial_s,
            rows[2].streamed_s < rows[1].streamed_s,
            _near(rows[1].overlap_speedup, 1.0),
        )
        for rows in by_dataset.values()
    )


def _serving_default_workload(report: ServingReport) -> int:
    """Every job of the seed-0 100-job workload ends once; latencies are
    ordered, utilisations true fractions; repeats hit the cache; the
    one-shot, sharded and decomposition paths all run."""
    completed, rejected = len(report.completed), len(report.rejected)
    counts = report.execution_counts()
    bad = _failed(
        len(report.results) == 100,
        completed + rejected == 100,
        completed > 0 and rejected > 0,
        0.0 < report.p50_latency_s <= report.p99_latency_s,
        report.makespan_s > 0.0,
        report.throughput_jobs_per_s > 0.0,
        0.0 < report.overall_utilization <= 1.0,
        report.cache_stats.encode_hits > 0,
        report.cache_stats.encode_hit_rate > 0.5,
        counts.get("one-shot", 0) > 0,
        counts.get("sharded", 0) > 0,
        counts.get("decomposition", 0) > 0,
    )
    return bad + sum(not 0.0 <= u <= 1.0 for u in report.device_utilization.values())


def _serving_deterministic(reports: Tuple[ServingReport, ServingReport]) -> int:
    first, second = reports
    return _failed(
        np.array_equal(first.latencies_s, second.latencies_s, equal_nan=True),
        first.makespan_s == second.makespan_s,
        first.device_utilization == second.device_utilization,
    )


#: check name -> (its run from :func:`paper_runs`) -> failed claims.
CHECKS: Dict[str, Callable[..., int]] = {
    "table2_storage_cost": _table2_storage_cost,
    "table3_platform": _table3_platform,
    "table4_datasets": _table4_datasets,
    "fig5_tuning_surfaces": _fig5_tuning_surfaces,
    "table5_best_parameters": _table5_best_parameters,
    "fig6a_spttm_speedup": _fig6a_spttm_speedup,
    "fig6b_spmttkrp_speedup": _fig6b_spmttkrp_speedup,
    "fig7a_spttm_mode_behavior": _fig7a_spttm_mode_behavior,
    "fig7b_spmttkrp_mode_behavior": _fig7b_spmttkrp_mode_behavior,
    "fig8_rank_behavior": _fig8_rank_behavior,
    "fig9_memory_consumption": _fig9_memory_consumption,
    "fig10_cp_decomposition": _fig10_cp_decomposition,
    "ablation_kernel_fusion": _ablation_kernel_fusion,
    "strong_scaling": _strong_scaling,
    "weak_scaling": _weak_scaling,
    "multinode_scaling": _multinode_scaling,
    "streaming_overlap": _streaming_overlap,
    "serving_default_workload": _serving_default_workload,
    "serving_deterministic": _serving_deterministic,
}


# ---------------------------------------------------------------------- #
# The numbers
# ---------------------------------------------------------------------- #
def _seconds(row) -> Dict[str, float]:
    """A row's ``<implementation>_time_s`` fields that ran (not ``None``)."""
    return {
        f.name[: -len("_time_s")]: getattr(row, f.name)
        for f in fields(row)
        if f.name.endswith("_time_s") and getattr(row, f.name) is not None
    }


def paper_metrics(runs: Dict[str, object]) -> Dict[str, float]:
    """The suite's metrics from :func:`paper_runs`: the counts, then the
    modeled seconds and bytes of the paper's tables and figures, with their
    ratios as ``_info``, then the modeled seconds of the extension runs."""
    m = {
        f"paper/{name}_violation_count": float(check(runs[name]))
        for name, check in CHECKS.items()
    }

    for row in runs["table2_storage_cost"].rows:
        key = f"paper/table2/{row.dataset}/{row.operation.split()[0].lower()}"
        m[f"{key}/coo_bytes_per_nnz"] = row.coo_bytes_per_nnz_measured
        m[f"{key}/fcoo_bytes_per_nnz"] = row.fcoo_bytes_per_nnz_measured
        m[f"{key}/model_coo_bytes_per_nnz"] = row.coo_bytes_per_nnz_model
        m[f"{key}/model_fcoo_bytes_per_nnz"] = row.fcoo_bytes_per_nnz_model
        m[f"{key}/coo_over_fcoo_info"] = row.reduction_factor

    for name, surface in runs["fig5_tuning_surfaces"].surfaces.items():
        for i, block_size in enumerate(surface.block_sizes):
            for j, threadlen in enumerate(surface.threadlens):
                m[f"paper/fig5/{name}/bs={block_size}/tl={threadlen}"] = float(surface.times[i, j])
    for op, best in runs["table5_best_parameters"].best.items():
        for name, (block_size, threadlen) in best.items():
            m[f"paper/table5/{op}/{name}/block_size_info"] = float(block_size)
            m[f"paper/table5/{op}/{name}/threadlen_info"] = float(threadlen)

    for name in ("fig6a_spttm_speedup", "fig6b_spmttkrp_speedup"):
        fig = name[:5]
        for row in runs[name].rows:
            for impl, seconds in _seconds(row).items():
                m[f"paper/{fig}/{row.dataset}/{impl}_s"] = seconds
                if impl != "unified":
                    m[f"paper/{fig}/{row.dataset}/unified_over_{impl}_info"] = (
                        seconds / row.unified_time_s
                    )
    for name in ("fig7a_spttm_mode_behavior", "fig7b_spmttkrp_mode_behavior"):
        fig, result = name[:5], runs[name]
        for row in result.rows:
            for impl, seconds in _seconds(row).items():
                m[f"paper/{fig}/mode{row.mode + 1}/{impl}_s"] = seconds
        for impl in _seconds(result.rows[0]):
            m[f"paper/{fig}/{impl}_max_over_min_info"] = result.variation(impl)

    fig8 = runs["fig8_rank_behavior"]
    for series in fig8.series:
        impl = series.implementation.lower().replace("-", "_")
        for rank, seconds in zip(series.ranks, series.times_s):
            m[f"paper/fig8/{series.dataset}/{impl}/rank={rank}"] = seconds
        if impl == "parti_gpu":
            unified = fig8.series_for(series.dataset, "Unified")
            for rank, u, p in zip(series.ranks, unified.times_s, series.times_s):
                m[f"paper/fig8/{series.dataset}/rank={rank}/unified_over_parti_gpu_info"] = p / u

    for row in runs["fig9_memory_consumption"].rows:
        key = f"paper/fig9/{row.dataset}"
        m[f"{key}/unified_bytes"] = row.unified_bytes
        m[f"{key}/parti_bytes"] = row.parti_bytes
        m[f"{key}/unified_paper_scale_bytes"] = row.unified_paper_scale_bytes
        m[f"{key}/parti_paper_scale_bytes"] = row.parti_paper_scale_bytes
        m[f"{key}/reduction_percent_info"] = row.reduction_percent

    fig10 = runs["fig10_cp_decomposition"]
    for row in fig10.rows:
        key = f"paper/fig10/{row.dataset}/{row.engine}"
        for mode, seconds in row.mttkrp_time_by_mode.items():
            m[f"{key}/mode{mode + 1}_mttkrp_s"] = seconds
        m[f"{key}/other_s"] = row.other_time_s
        if row.engine == "splatt-cpu":
            m[f"paper/fig10/{row.dataset}/unified_over_splatt_info"] = fig10.speedup(row.dataset)

    for row in runs["strong_scaling"].rows:
        m[f"paper/strong/{row.operation}/{row.workload}/gpus={row.num_devices}"] = row.time_s
    for row in runs["weak_scaling"].rows:
        m[f"paper/weak/{row.operation}/gpus={row.num_devices}"] = row.time_s
    for row in runs["multinode_scaling"].rows:
        key = f"paper/multinode/{row.operation}/{row.workload}/nodes={row.num_nodes}"
        m[key] = row.time_s
        if row.num_nodes > 1:
            m[f"{key}/reduction"] = row.reduction_s
    for row in runs["streaming_overlap"].rows:
        m[f"paper/streamed/{row.dataset}/streams={row.num_streams}"] = row.streamed_s

    # Seconds per completed job is the throughput inverse.  The rejections
    # are a count: refused jobs leave the population, so wrongly refusing
    # traffic makes every latency look better.
    serve = runs["serving_deterministic"][0]
    m["paper/serve/p50_latency"] = serve.p50_latency_s
    m["paper/serve/p99_latency"] = serve.p99_latency_s
    m["paper/serve/makespan"] = serve.makespan_s
    m["paper/serve/seconds_per_job"] = serve.makespan_s / max(len(serve.completed), 1)
    m["paper/serve/mean_queue_wait"] = serve.mean_queue_wait_s
    m["paper/serve/rejected_jobs_count"] = float(len(serve.rejected))
    return m
