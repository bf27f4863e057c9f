"""Streamed out-of-core execution: overlap efficiency vs a no-overlap baseline.

The paper's kernels target tensors larger than GPU memory by partitioning
the non-zero stream and overlapping host-to-device copies with compute via
CUDA streams (Section IV-D).  The paper does not publish a dedicated figure
for this, so this runner is an extension experiment: each dataset analog is
forced out-of-core by shrinking the simulated device's memory (the same
:func:`~repro.gpusim.device.scaled_device` trick the capacity experiments
use), the mode-1 SpMTTKRP is executed with 1, 2 and 4 streams, and the
report shows the transfer/compute pipeline's makespan against the serial
(no-overlap) and ideal (full-overlap) bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.storage import THREADLEN
from repro.context import ExecContext
from repro.data.registry import DATASETS, load_dataset
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.device import TITAN_X, scaled_device
from repro.kernels.unified.spmttkrp import spmttkrp_footprint, unified_spmttkrp
from repro.tensor.random import random_factors
from repro.util.formatting import format_seconds, format_table

__all__ = ["StreamingRow", "StreamingResult", "run_streaming"]

#: Fraction of the F-COO stream the shrunken device can hold next to the
#: resident operands; < 1 forces the streamed path with several chunks.
MEMORY_FRACTION = 0.3

#: The stream counts each dataset runs; one stream is the no-overlap baseline.
NUM_STREAMS_OPTIONS = (1, 2, 4)


@dataclass(frozen=True)
class StreamingRow:
    """Streamed SpMTTKRP pipeline metrics for one (dataset, num_streams)."""

    dataset: str
    num_streams: int
    num_chunks: int
    chunk_nnz: int
    transfer_s: float
    compute_s: float
    streamed_s: float
    serial_s: float
    ideal_s: float
    overlap_efficiency: float

    @property
    def overlap_speedup(self) -> float:
        """Speedup of the pipelined schedule over no overlap at all."""
        return self.serial_s / self.streamed_s if self.streamed_s else 1.0


@dataclass
class StreamingResult:
    """All rows of the streaming-overlap experiment."""

    rank: int
    memory_fraction: float
    rows: List[StreamingRow]

    def render(self) -> str:
        headers = [
            "dataset",
            "streams",
            "chunks",
            "transfer",
            "compute",
            "streamed",
            "no-overlap",
            "overlap speedup",
            "overlap efficiency",
        ]
        body = [
            [
                r.dataset,
                r.num_streams,
                r.num_chunks,
                format_seconds(r.transfer_s),
                format_seconds(r.compute_s),
                format_seconds(r.streamed_s),
                format_seconds(r.serial_s),
                f"{r.overlap_speedup:.2f}x",
                f"{r.overlap_efficiency * 100.0:.0f}%",
            ]
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=(
                "Out-of-core streamed SpMTTKRP mode-1 "
                f"(rank={self.rank}, device holds {self.memory_fraction:.0%} "
                "of the F-COO stream)"
            ),
        )


def run_streaming(
    *,
    rank: int = 16,
    datasets: Optional[Sequence[str]] = None,
) -> StreamingResult:
    """Measure transfer/compute overlap of the streamed unified SpMTTKRP.

    Each dataset runs on a Titan X shrunk until only
    :data:`MEMORY_FRACTION` of its F-COO stream fits next to the dense
    operands, so the kernel must stream; ``num_streams=1`` is the
    no-overlap baseline the speedup column compares against.
    """
    names = list(datasets) if datasets is not None else list(DATASETS)
    rows: List[StreamingRow] = []
    for name in names:
        tensor = load_dataset(name)
        factors = [np.asarray(f) for f in random_factors(tensor.shape, rank, seed=0)]
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, 0)

        # Shrink the device so the factor matrices and output still fit but
        # only ``memory_fraction`` of the F-COO stream does — the same
        # capacity trick the Figure 6b/9 runners use, aimed at the streamed
        # regime instead of at an OOM failure.  The resident portion comes
        # from the kernel's own accounting so the sizing cannot drift.
        _, resident_bytes = spmttkrp_footprint(fcoo, rank, threadlen=THREADLEN)
        shrunk_bytes = resident_bytes + MEMORY_FRACTION * fcoo.storage_bytes(THREADLEN)
        small = scaled_device(
            TITAN_X,
            shrunk_bytes / TITAN_X.global_mem_bytes,
            name_suffix=f"streamed {name}",
        )
        for n_streams in NUM_STREAMS_OPTIONS:
            result = unified_spmttkrp(
                fcoo,
                factors,
                0,
                device=small,
                threadlen=THREADLEN,
                ctx=ExecContext(num_streams=n_streams),
            )
            execution = result.profile.streaming
            if execution is None:  # pragma: no cover - fraction < 1 forces streaming
                raise RuntimeError(f"{name} unexpectedly fit in the shrunken device")
            schedule = execution.schedule
            rows.append(
                StreamingRow(
                    dataset=name,
                    num_streams=n_streams,
                    num_chunks=execution.num_chunks,
                    chunk_nnz=execution.chunk_nnz,
                    transfer_s=schedule.transfer_time_s,
                    compute_s=schedule.compute_time_s,
                    streamed_s=schedule.total_time_s,
                    serial_s=schedule.serial_time_s,
                    ideal_s=schedule.ideal_time_s,
                    overlap_efficiency=schedule.overlap_efficiency,
                )
            )
    return StreamingResult(rank=rank, memory_fraction=MEMORY_FRACTION, rows=rows)
