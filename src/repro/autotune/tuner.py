"""Exhaustive sweep of the unified kernels' launch parameters.

The paper's Figure 5 sweeps the launch parameters ``(BLOCK_SIZE,
threadlen)`` per dataset and operation; :func:`tune_unified` reproduces
that sweep on the simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.gpusim.timing import OutOfDeviceMemory
from repro.kernels.unified import operation_spec
from repro.kernels.unified.driver import Pricing, resolve_encoding
from repro.tensor.sparse import SparseTensor
from repro.util.formatting import format_table
from repro.util.validation import check_rank

__all__ = [
    "TuningResult",
    "tune_unified",
    "DEFAULT_BLOCK_SIZES",
    "DEFAULT_THREADLENS",
]

#: The sweep ranges used in the paper's Figure 5.
DEFAULT_BLOCK_SIZES: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024)
DEFAULT_THREADLENS: Tuple[int, ...] = (8, 16, 32, 48, 64)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a launch-parameter sweep.

    Attributes
    ----------
    operation / mode / rank:
        What was tuned.
    block_sizes / threadlens:
        The swept launch-parameter axes.
    times:
        ``(len(block_sizes), len(threadlens))`` array of simulated times;
        ``inf`` where the configuration does not fit the device.
    """

    operation: OperationKind
    mode: int
    rank: int
    block_sizes: Tuple[int, ...]
    threadlens: Tuple[int, ...]
    times: np.ndarray

    @property
    def best(self) -> Tuple[int, int]:
        """The ``(BLOCK_SIZE, threadlen)`` pair with the lowest simulated time."""
        i, j = np.unravel_index(int(np.argmin(self.times)), self.times.shape)
        return self.block_sizes[i], self.threadlens[j]

    @property
    def best_time(self) -> float:
        """The lowest simulated time over the sweep."""
        return float(self.times.min())

    def render(self, *, title: str = "") -> str:
        """ASCII rendering of the sweep surface (rows: BLOCK_SIZE, cols: threadlen)."""
        headers = ["BLOCK_SIZE \\ threadlen"] + [str(t) for t in self.threadlens]
        rows = [
            [bs] + [float(t) for t in self.times[i]] for i, bs in enumerate(self.block_sizes)
        ]
        return format_table(
            headers, rows, title=title or f"{self.operation.value} tuning surface (s)"
        )


def tune_unified(
    tensor: Union[SparseTensor, FCOOTensor],
    operation: Union[OperationKind, str],
    mode: int,
    *,
    rank: int = 16,
    device: DeviceSpec = TITAN_X,
    block_sizes: Sequence[int] = DEFAULT_BLOCK_SIZES,
    threadlens: Sequence[int] = DEFAULT_THREADLENS,
) -> TuningResult:
    """Sweep ``(BLOCK_SIZE, threadlen)`` for one unified kernel on one tensor.

    Covers all three unified kernels (SpTTM, SpMTTKRP, SpTTMc).  Each cell
    is one launch of a single :class:`~repro.kernels.unified.driver.Pricing`
    of the encoding under the kernel's default context, so it equals what
    :func:`repro.kernels.unified.driver.model` reports for that
    configuration while the terms that do not depend on the launch are
    derived once per sweep (a streamed chunking's once per ``threadlen``).
    The sweep runs no numerics, and a tensor that does not fit the device
    one-shot is priced on the streamed path, as the kernel would run it.
    A cell that does not fit the device even streamed is
    recorded as ``inf`` rather than aborting the sweep.  ``tensor`` may be
    an :class:`FCOOTensor` already encoded for ``operation`` on ``mode``
    (checked as the kernels check it); otherwise it is encoded once, since
    the encoding does not depend on the launch parameters.
    """
    operation = OperationKind.coerce(operation)
    rank = check_rank(rank)
    fcoo = resolve_encoding(tensor, operation, mode)
    pricing = Pricing(fcoo, operation_spec(fcoo, operation, rank), device=device)
    times = np.zeros((len(block_sizes), len(threadlens)), dtype=np.float64)
    for i, block_size in enumerate(block_sizes):
        for j, threadlen in enumerate(threadlens):
            try:
                times[i, j] = pricing.launch(
                    block_size=int(block_size), threadlen=int(threadlen)
                ).estimated_time_s
            except OutOfDeviceMemory:
                times[i, j] = np.inf
    return TuningResult(
        operation=operation,
        mode=fcoo.mode,
        rank=rank,
        block_sizes=tuple(int(b) for b in block_sizes),
        threadlens=tuple(int(t) for t in threadlens),
        times=times,
    )
