"""Figure 10: CP decomposition time breakdown, Unified (GPU) vs SPLATT (CPU).

The paper fixes the rank at 8 (brainq's third mode has only 9 indices),
decomposes brainq and nell2, and reports the total time split into the three
per-mode MTTKRPs plus "other" (dense linear algebra).  Two claims are made:
the unified method is 14.9× / 2.9× faster than SPLATT, and its per-mode
MTTKRP times are well balanced while SPLATT's are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.algorithms.cp import SplattCPUEngine, UnifiedGPUEngine, cp_als
from repro.data.registry import load_dataset
from repro.util.formatting import format_table

__all__ = ["Fig10Row", "Fig10Result", "run_fig10"]

#: The CP rank of Figure 10 (brainq's third mode has only 9 indices).
RANK = 8


@dataclass(frozen=True)
class Fig10Row:
    """CP-ALS timing breakdown for one (dataset, engine) pair."""

    dataset: str
    engine: str
    mttkrp_time_by_mode: Dict[int, float]
    other_time_s: float
    iterations: int
    final_fit: Optional[float]

    @property
    def total_time_s(self) -> float:
        """Total decomposition time (MTTKRPs + dense updates)."""
        return sum(self.mttkrp_time_by_mode.values()) + self.other_time_s

    @property
    def mode_balance(self) -> float:
        """Max/min ratio of the per-mode MTTKRP times (1 = perfectly balanced)."""
        times = [t for t in self.mttkrp_time_by_mode.values() if t > 0]
        if not times:
            return 1.0
        return max(times) / min(times)


@dataclass
class Fig10Result:
    """All rows of the Figure 10 reproduction."""

    rank: int
    iterations: int
    rows: List[Fig10Row]

    def speedup(self, dataset: str) -> float:
        """Unified's speedup over SPLATT on one dataset."""
        unified = self.row(dataset, "unified-gpu")
        splatt = self.row(dataset, "splatt-cpu")
        return splatt.total_time_s / unified.total_time_s

    def row(self, dataset: str, engine: str) -> Fig10Row:
        """Look up one bar of the figure."""
        for r in self.rows:
            if r.dataset == dataset and r.engine == engine:
                return r
        raise KeyError(f"no row for ({dataset}, {engine})")

    def render(self) -> str:
        n_modes = max(len(r.mttkrp_time_by_mode) for r in self.rows)
        headers = (
            ["dataset", "engine"]
            + [f"mode{m + 1}-mttkrp (s)" for m in range(n_modes)]
            + ["other (s)", "total (s)", "mode balance"]
        )
        body = []
        for r in self.rows:
            body.append(
                [r.dataset, r.engine]
                + [r.mttkrp_time_by_mode.get(m, 0.0) for m in range(n_modes)]
                + [r.other_time_s, r.total_time_s, f"{r.mode_balance:.2f}x"]
            )
        table = format_table(
            headers,
            body,
            title=(
                f"Figure 10: CP-ALS (rank={self.rank}, {self.iterations} iterations) "
                "time breakdown"
            ),
        )
        footer = "; ".join(
            f"{name}: unified {self.speedup(name):.1f}x faster than SPLATT"
            for name in sorted({r.dataset for r in self.rows})
        )
        return table + "\n" + footer


def run_fig10(*, iterations: int = 5) -> Fig10Result:
    """Figure 10: CP-ALS (rank :data:`RANK`) breakdown on brainq and nell2
    with the unified GPU and SPLATT CPU engines."""
    rows: List[Fig10Row] = []
    for name in ("brainq", "nell2"):
        tensor = load_dataset(name)
        for engine in (UnifiedGPUEngine(), SplattCPUEngine()):
            result = cp_als(
                tensor,
                RANK,
                engine=engine,
                max_iterations=iterations,
                tolerance=0.0,  # run a fixed number of iterations for timing
                seed=0,
                compute_fit=True,
            )
            rows.append(
                Fig10Row(
                    dataset=name,
                    engine=engine.name,
                    mttkrp_time_by_mode=dict(result.mttkrp_time_by_mode),
                    other_time_s=result.other_time_s,
                    iterations=result.iterations,
                    final_fit=result.final_fit,
                )
            )
    return Fig10Result(rank=RANK, iterations=iterations, rows=rows)
