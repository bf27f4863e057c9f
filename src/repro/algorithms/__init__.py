"""Complete tensor-decomposition algorithms built on the sparse kernels.

* :mod:`repro.algorithms.cp` — CP-ALS (paper Algorithm 1) with two engines:
  the unified F-COO GPU engine (the paper's contribution, first CP on GPUs)
  and the SPLATT CPU engine used as the comparison point in Figure 10.
* :mod:`repro.algorithms.tucker` — Tucker decomposition via HOOI built on
  the unified SpTTMc kernel (the extension the paper sketches at the end of
  Section IV-D).
* :mod:`repro.algorithms.decomposition` — the run core both drivers share:
  one timeline, per-device ledger and node-loss recovery path per run.
* :mod:`repro.algorithms.fit` — sparse-aware decomposition-quality metrics.
* :mod:`repro.algorithms.normalization` — factor column normalisation.
"""

from repro.algorithms.normalization import normalize_columns
from repro.algorithms.fit import cp_fit, cp_norm, cp_inner_product
from repro.algorithms.cp import (
    CPResult,
    cp_als,
    UnifiedGPUEngine,
    SplattCPUEngine,
)
from repro.algorithms.tucker import TuckerResult, tucker_hooi

__all__ = [
    "normalize_columns",
    "cp_fit",
    "cp_norm",
    "cp_inner_product",
    "CPResult",
    "cp_als",
    "UnifiedGPUEngine",
    "SplattCPUEngine",
    "TuckerResult",
    "tucker_hooi",
]
