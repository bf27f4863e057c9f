"""Figure 8: rank behaviour of SpTTM (Unified vs ParTI-GPU).

The paper sweeps the rank over {8, 16, 32, 64} on the two smallest tensors
(brainq and nell2) and shows that ParTI-GPU's time grows faster with the
rank than the unified method's — its thread-block shape depends on the rank,
degrading coalescing and causing divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.data.registry import load_dataset
from repro.kernels.baselines.parti_gpu import parti_gpu_spttm
from repro.kernels.unified.spttm import unified_spttm
from repro.tensor.random import random_factors
from repro.util.formatting import format_table

__all__ = ["Fig8Series", "Fig8Result", "run_fig8"]

DEFAULT_RANKS: Tuple[int, ...] = (8, 16, 32, 64)


@dataclass(frozen=True)
class Fig8Series:
    """One line of Figure 8: times per rank for one (dataset, implementation)."""

    dataset: str
    implementation: str
    ranks: Tuple[int, ...]
    times_s: Tuple[float, ...]

    @property
    def growth_factor(self) -> float:
        """Time at the largest rank divided by time at the smallest rank."""
        return self.times_s[-1] / self.times_s[0]


@dataclass
class Fig8Result:
    """All series of the Figure 8 reproduction."""

    mode: int
    series: List[Fig8Series]

    def series_for(self, dataset: str, implementation: str) -> Fig8Series:
        """Look up one line of the plot."""
        for s in self.series:
            if s.dataset == dataset and s.implementation == implementation:
                return s
        raise KeyError(f"no series for ({dataset}, {implementation})")

    def render(self) -> str:
        if not self.series:
            return "Figure 8: no series"
        ranks = self.series[0].ranks
        headers = ["series"] + [f"rank {r} (s)" for r in ranks] + ["growth"]
        body = []
        for s in self.series:
            body.append(
                [f"{s.implementation} ({s.dataset})"]
                + list(s.times_s)
                + [f"{s.growth_factor:.1f}x"]
            )
        return format_table(
            headers, body, title="Figure 8: SpTTM execution time vs rank"
        )


def run_fig8(
    *,
    datasets: Sequence[str] = ("brainq", "nell2"),
    ranks: Sequence[int] = DEFAULT_RANKS,
) -> Fig8Result:
    """Figure 8: SpTTM on the last mode, time versus rank for Unified and ParTI-GPU."""
    series: List[Fig8Series] = []
    resolved_mode = -1
    for name in datasets:
        tensor = load_dataset(name)
        target_mode = tensor.order - 1
        resolved_mode = target_mode
        unified_times = []
        parti_times = []
        for rank in ranks:
            matrix = random_factors(tensor.shape, rank, seed=0)[target_mode]
            unified_times.append(unified_spttm(tensor, matrix, target_mode).estimated_time_s)
            parti_times.append(parti_gpu_spttm(tensor, matrix, target_mode).estimated_time_s)
        series.append(
            Fig8Series(
                dataset=name,
                implementation="Unified",
                ranks=tuple(int(r) for r in ranks),
                times_s=tuple(unified_times),
            )
        )
        series.append(
            Fig8Series(
                dataset=name,
                implementation="ParTI-GPU",
                ranks=tuple(int(r) for r in ranks),
                times_s=tuple(parti_times),
            )
        )
    return Fig8Result(mode=resolved_mode, series=series)
