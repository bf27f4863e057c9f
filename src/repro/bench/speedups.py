"""Figures 6a/6b: speedup of the GPU implementations over ParTI-omp.

The paper fixes the rank at 16, runs SpTTM on mode-3 and SpMTTKRP on mode-1
on all four datasets, and reports each implementation's speedup over the
12-thread ParTI-omp baseline.  ParTI-GPU is marked out-of-memory for
SpMTTKRP on the two largest tensors — reproduced here by projecting the
measured per-non-zero footprint back to the paper-scale non-zero counts and
comparing against the real Titan X memory capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bench.memory import parti_paper_scale_footprint
from repro.data.registry import DATASETS, load_dataset
from repro.gpusim.device import TITAN_X
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.baselines.parti_gpu import parti_gpu_spmttkrp, parti_gpu_spttm
from repro.kernels.baselines.parti_omp import parti_omp_spmttkrp, parti_omp_spttm
from repro.kernels.baselines.splatt import splatt_mttkrp
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.tensor.random import random_factors
from repro.util.formatting import format_table

__all__ = ["Fig6Row", "Fig6Result", "run_fig6a", "run_fig6b"]


@dataclass(frozen=True)
class Fig6Row:
    """Per-dataset timings and speedups for one operation.

    ``None`` time means the implementation could not run the configuration
    (ParTI-GPU out of memory at paper scale).
    """

    dataset: str
    parti_omp_time_s: float
    parti_gpu_time_s: Optional[float]
    splatt_time_s: Optional[float]
    unified_time_s: float

    def speedup_over_omp(self, time_s: Optional[float]) -> Optional[float]:
        """Speedup of a given implementation over ParTI-omp."""
        if time_s is None or time_s <= 0:
            return None
        return self.parti_omp_time_s / time_s

    @property
    def unified_speedup(self) -> float:
        """Unified's speedup over ParTI-omp (the paper's headline metric)."""
        return self.parti_omp_time_s / self.unified_time_s

    @property
    def unified_over_parti_gpu(self) -> Optional[float]:
        """Unified's speedup over ParTI-GPU (None when ParTI-GPU is OOM)."""
        if self.parti_gpu_time_s is None:
            return None
        return self.parti_gpu_time_s / self.unified_time_s


@dataclass
class Fig6Result:
    """All rows of a Figure 6 reproduction (one operation)."""

    operation: str
    rank: int
    rows: List[Fig6Row]

    def render(self) -> str:
        headers = [
            "dataset",
            "ParTI-omp (s)",
            "ParTI-GPU (s)",
            "SPLATT (s)",
            "Unified (s)",
            "ParTI-GPU speedup",
            "SPLATT speedup",
            "Unified speedup",
            "Unified / ParTI-GPU",
        ]
        body = []
        for r in self.rows:
            gpu_speedup = r.speedup_over_omp(r.parti_gpu_time_s)
            splatt_speedup = r.speedup_over_omp(r.splatt_time_s)
            rel = r.unified_over_parti_gpu
            body.append(
                [
                    r.dataset,
                    r.parti_omp_time_s,
                    r.parti_gpu_time_s if r.parti_gpu_time_s is not None else "OOM",
                    r.splatt_time_s if r.splatt_time_s is not None else "-",
                    r.unified_time_s,
                    f"{gpu_speedup:.1f}x" if gpu_speedup else "OOM",
                    f"{splatt_speedup:.1f}x" if splatt_speedup else "-",
                    f"{r.unified_speedup:.1f}x",
                    f"{rel:.1f}x" if rel else "OOM",
                ]
            )
        return format_table(
            headers,
            body,
            title=f"Figure 6 ({self.operation}, rank={self.rank}): speedup over ParTI-omp",
        )


def run_fig6a(
    *,
    rank: int = 16,
    datasets: Optional[Sequence[str]] = None,
) -> Fig6Result:
    """Figure 6a: SpTTM on the last mode, speedups over ParTI-omp."""
    names = list(datasets) if datasets is not None else list(DATASETS)
    rows: List[Fig6Row] = []
    for name in names:
        tensor = load_dataset(name)
        mode = tensor.order - 1
        matrix = random_factors(tensor.shape, rank, seed=0)[mode]

        omp = parti_omp_spttm(tensor, matrix, mode)
        gpu = parti_gpu_spttm(tensor, matrix, mode)
        uni = unified_spttm(tensor, matrix, mode)

        # SpTTM keeps no intermediate tensor, so ParTI-GPU fits in device
        # memory for every dataset (the paper notes the two methods consume
        # nearly the same memory for SpTTM).
        rows.append(
            Fig6Row(
                dataset=name,
                parti_omp_time_s=omp.estimated_time_s,
                parti_gpu_time_s=gpu.estimated_time_s,
                splatt_time_s=None,
                unified_time_s=uni.estimated_time_s,
            )
        )
    return Fig6Result(operation="SpTTM mode-3", rank=rank, rows=rows)


def run_fig6b(
    *,
    rank: int = 16,
    datasets: Optional[Sequence[str]] = None,
) -> Fig6Result:
    """Figure 6b: SpMTTKRP on mode-1, speedups over ParTI-omp."""
    names = list(datasets) if datasets is not None else list(DATASETS)
    rows: List[Fig6Row] = []
    for name in names:
        tensor = load_dataset(name)
        mode = 0
        factors = random_factors(tensor.shape, rank, seed=0)

        omp = parti_omp_spmttkrp(tensor, factors, mode)
        splatt = splatt_mttkrp(tensor, factors, mode)
        uni = unified_spmttkrp(tensor, factors, mode)

        gpu_time: Optional[float]
        try:
            gpu = parti_gpu_spmttkrp(tensor, factors, mode)
        except OutOfDeviceMemory:
            gpu_time = None
        else:
            gpu_time = gpu.estimated_time_s
            # Determine out-of-memory behaviour against the *paper-scale*
            # tensor (the analog is small enough to fit by construction).
            if parti_paper_scale_footprint(name, rank) > TITAN_X.global_mem_bytes:
                gpu_time = None

        rows.append(
            Fig6Row(
                dataset=name,
                parti_omp_time_s=omp.estimated_time_s,
                parti_gpu_time_s=gpu_time,
                splatt_time_s=splatt.estimated_time_s,
                unified_time_s=uni.estimated_time_s,
            )
        )
    return Fig6Result(operation="SpMTTKRP mode-1", rank=rank, rows=rows)
