"""Launch-parameter auto-tuning (paper Figure 5 and Table V).

The unified kernels have two classic tunables: ``BLOCK_SIZE`` (threads per
block) and ``threadlen`` (non-zeros per thread).  Their best values depend
on the sparsity pattern of the tensor, so the paper sweeps both per dataset
and per operation; this subpackage reproduces that sweep on the simulated
device.  Each cell is priced as the kernel would run by default, so a
tensor that does not fit the device one-shot is priced streamed.
"""

from repro.autotune.tuner import (
    DEFAULT_BLOCK_SIZES,
    DEFAULT_THREADLENS,
    TuningResult,
    tune_unified,
)

__all__ = [
    "TuningResult",
    "tune_unified",
    "DEFAULT_BLOCK_SIZES",
    "DEFAULT_THREADLENS",
]
