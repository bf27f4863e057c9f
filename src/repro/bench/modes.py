"""Figure 7: mode behaviour of SpTTM and SpMTTKRP on the brainq dataset.

The paper runs both operations on every mode of brainq (rank 16) and shows
that the unified method's time barely moves with the mode while ParTI-GPU
and SPLATT vary strongly (brainq is "oddly shaped": 60 × 70K × 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.data.registry import load_dataset
from repro.kernels.baselines.parti_gpu import parti_gpu_spmttkrp, parti_gpu_spttm
from repro.kernels.baselines.splatt import splatt_mttkrp
from repro.kernels.unified.spmttkrp import unified_spmttkrp
from repro.kernels.unified.spttm import unified_spttm
from repro.tensor.random import random_factors
from repro.util.formatting import format_table

__all__ = ["Fig7Row", "Fig7Result", "run_fig7"]


@dataclass(frozen=True)
class Fig7Row:
    """Per-mode times (seconds) for every implementation of one operation."""

    mode: int
    parti_gpu_time_s: float
    splatt_time_s: Optional[float]
    unified_time_s: float


@dataclass
class Fig7Result:
    """Mode-behaviour results for one operation on one dataset."""

    operation: str
    dataset: str
    rank: int
    rows: List[Fig7Row]

    def variation(self, implementation: str) -> float:
        """Max/min time ratio across modes for one implementation.

        The paper's claim is that this ratio is close to 1 for the unified
        method and substantially larger for the baselines.
        """
        times = []
        for r in self.rows:
            value = {
                "parti_gpu": r.parti_gpu_time_s,
                "splatt": r.splatt_time_s,
                "unified": r.unified_time_s,
            }[implementation]
            if value is not None:
                times.append(value)
        if not times:
            raise ValueError(f"no times recorded for {implementation}")
        return max(times) / min(times)

    def render(self) -> str:
        headers = ["mode", "ParTI-GPU (s)", "SPLATT (s)", "Unified (s)"]
        body = [
            [
                r.mode + 1,  # the paper labels modes 1-based
                r.parti_gpu_time_s,
                r.splatt_time_s if r.splatt_time_s is not None else "-",
                r.unified_time_s,
            ]
            for r in self.rows
        ]
        table = format_table(
            headers,
            body,
            title=(
                f"Figure 7 ({self.operation} on {self.dataset}, rank={self.rank}): "
                "mode behaviour"
            ),
        )
        footer = (
            f"\nmax/min across modes:  ParTI-GPU {self.variation('parti_gpu'):.2f}x"
            f"   Unified {self.variation('unified'):.2f}x"
        )
        if any(r.splatt_time_s is not None for r in self.rows):
            footer += f"   SPLATT {self.variation('splatt'):.2f}x"
        return table + footer


def run_fig7(operation: str = "spmttkrp", *, rank: int = 16) -> Fig7Result:
    """Figure 7: per-mode times on brainq for SpTTM (7a) or SpMTTKRP (7b)."""
    operation = operation.lower()
    if operation not in ("spttm", "spmttkrp"):
        raise ValueError(f"operation must be 'spttm' or 'spmttkrp', got {operation!r}")
    tensor = load_dataset("brainq")
    factors = random_factors(tensor.shape, rank, seed=0)

    rows: List[Fig7Row] = []
    for mode in range(tensor.order):
        if operation == "spttm":
            gpu = parti_gpu_spttm(tensor, factors[mode], mode)
            uni = unified_spttm(tensor, factors[mode], mode)
            splatt_time = None
        else:
            gpu = parti_gpu_spmttkrp(tensor, factors, mode)
            uni = unified_spmttkrp(tensor, factors, mode)
            # SPLATT reuses one CSF tree (rooted at the shortest mode) for
            # every per-mode MTTKRP, exactly as inside its CP-ALS.
            root = int(np.argmin(tensor.shape))
            splatt_time = splatt_mttkrp(tensor, factors, mode, csf_root_mode=root).estimated_time_s
        rows.append(
            Fig7Row(
                mode=mode,
                parti_gpu_time_s=gpu.estimated_time_s,
                splatt_time_s=splatt_time,
                unified_time_s=uni.estimated_time_s,
            )
        )
    return Fig7Result(
        operation="SpTTM" if operation == "spttm" else "SpMTTKRP",
        dataset="brainq",
        rank=rank,
        rows=rows,
    )
