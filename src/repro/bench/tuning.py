"""Figure 5 and Table V: launch-parameter tuning for the unified kernels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.autotune.tuner import (
    DEFAULT_BLOCK_SIZES,
    DEFAULT_THREADLENS,
    TuningResult,
    tune_unified,
)
from repro.data.registry import DATASETS, load_dataset
from repro.formats.mode_encoding import OperationKind
from repro.util.formatting import format_table

__all__ = ["Fig5Result", "Table5Result", "run_fig5", "run_table5"]

#: Best parameters the paper reports in Table V, for comparison in the output:
#: {operation: {dataset: (BLOCK_SIZE, threadlen)}}.
PAPER_TABLE5: Dict[str, Dict[str, Tuple[int, int]]] = {
    "spttm": {
        "nell1": (32, 8),
        "delicious": (512, 8),
        "nell2": (256, 64),
        "brainq": (1024, 32),
    },
    "spmttkrp": {
        "nell1": (32, 16),
        "delicious": (32, 8),
        "nell2": (1024, 64),
        "brainq": (128, 64),
    },
}


@dataclass
class Fig5Result:
    """Tuning surfaces for SpMTTKRP mode-1 on the datasets of Figure 5."""

    surfaces: Dict[str, TuningResult]

    def render(self) -> str:
        parts = []
        for name, surface in self.surfaces.items():
            parts.append(
                surface.render(
                    title=f"Figure 5 ({name}): SpMTTKRP mode-1 tuning surface (s)"
                )
            )
            best_bs, best_tl = surface.best
            parts.append(
                f"best configuration for {name}: BLOCK_SIZE={best_bs}, threadlen={best_tl}"
            )
        return "\n\n".join(parts)


@dataclass
class Table5Result:
    """Best (BLOCK_SIZE, threadlen) per dataset for SpTTM and SpMTTKRP."""

    best: Dict[str, Dict[str, Tuple[int, int]]]

    def render(self) -> str:
        headers = ["operation", "dataset", "best (BLOCK_SIZE, threadlen)", "paper Table V"]
        rows = []
        for op, per_dataset in self.best.items():
            for dataset, params in per_dataset.items():
                paper = PAPER_TABLE5.get(op, {}).get(dataset)
                rows.append(
                    [
                        op,
                        dataset,
                        f"({params[0]}, {params[1]})",
                        f"({paper[0]}, {paper[1]})" if paper else "-",
                    ]
                )
        return format_table(headers, rows, title="Table V: best launch parameters")


def run_fig5(
    *,
    datasets: Sequence[str] = ("brainq", "nell1"),
    rank: int = 16,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    threadlens: Sequence[int] = DEFAULT_THREADLENS,
) -> Fig5Result:
    """Figure 5: (BLOCK_SIZE, threadlen) surface for SpMTTKRP on mode-1."""
    surfaces = {}
    for name in datasets:
        tensor = load_dataset(name)
        surfaces[name] = tune_unified(
            tensor,
            OperationKind.SPMTTKRP,
            0,
            rank=rank,
            block_sizes=block_sizes,
            threadlens=threadlens,
        )
    return Fig5Result(surfaces=surfaces)


def run_table5(
    *,
    datasets: Optional[Sequence[str]] = None,
    rank: int = 16,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    threadlens: Sequence[int] = DEFAULT_THREADLENS,
) -> Table5Result:
    """Table V: tuned launch parameters for SpTTM (last mode) and SpMTTKRP (mode-1)."""
    names = list(datasets) if datasets is not None else list(DATASETS)
    best: Dict[str, Dict[str, Tuple[int, int]]] = {"spttm": {}, "spmttkrp": {}}
    for name in names:
        tensor = load_dataset(name)
        spttm = tune_unified(
            tensor,
            OperationKind.SPTTM,
            tensor.order - 1,
            rank=rank,
            block_sizes=block_sizes,
            threadlens=threadlens,
        )
        spmttkrp = tune_unified(
            tensor,
            OperationKind.SPMTTKRP,
            0,
            rank=rank,
            block_sizes=block_sizes,
            threadlens=threadlens,
        )
        best["spttm"][name] = spttm.best
        best["spmttkrp"][name] = spmttkrp.best
    return Table5Result(best=best)
