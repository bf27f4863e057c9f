"""Figure 9: GPU global-memory consumption of SpMTTKRP (Unified vs ParTI-GPU).

The paper measures (or computes by hand, for the configurations that do not
fit) the device memory needed by the mode-1 SpMTTKRP of each dataset.  The
unified one-shot method stores only the F-COO arrays, the factor matrices
and the output; ParTI additionally holds the full COO arrays and the
intermediate semi-sparse tensor of the two-step formulation, which is why it
exceeds the 12 GB of the Titan X on nell1 and delicious.

Two numbers are reported per implementation:

* the footprint measured on the synthetic analog, and
* the footprint computed analytically for the paper-scale tensor from the
  data structures each implementation allocates (the same "computed by
  hand from the open-source code" procedure the paper itself uses for the
  configurations that do not fit) — the quantity comparable to the paper's
  figure and used for the out-of-memory determination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from typing import List

from repro.bench.storage import THREADLEN
from repro.data.registry import DATASETS, DatasetSpec, load_dataset
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.formats.storage_cost import coo_storage_bytes, fcoo_storage_bytes
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.tensor.sparse import SparseTensor
from repro.util.formatting import format_bytes, format_table

__all__ = [
    "Fig9Row",
    "Fig9Result",
    "run_fig9",
    "spmttkrp_footprints",
    "paper_scale_spmttkrp_footprints",
    "parti_paper_scale_footprint",
]


@dataclass(frozen=True)
class Fig9Row:
    """Memory footprints (bytes) for one dataset."""

    dataset: str
    rank: int
    unified_bytes: float
    parti_bytes: float
    unified_paper_scale_bytes: float
    parti_paper_scale_bytes: float
    parti_oom_at_paper_scale: bool

    @property
    def reduction_percent(self) -> float:
        """Memory reduction of unified vs ParTI (the paper quotes 68.6–88.6 %)."""
        return 100.0 * (1.0 - self.unified_bytes / self.parti_bytes)


@dataclass
class Fig9Result:
    """All rows of the Figure 9 reproduction."""

    rank: int
    device: DeviceSpec
    rows: List[Fig9Row]

    def render(self) -> str:
        headers = [
            "dataset",
            "Unified (analog)",
            "ParTI-GPU (analog)",
            "reduction",
            "Unified (paper scale)",
            "ParTI-GPU (paper scale)",
            "ParTI-GPU fits 12 GB?",
        ]
        body = [
            [
                r.dataset,
                format_bytes(r.unified_bytes),
                format_bytes(r.parti_bytes),
                f"{r.reduction_percent:.1f}%",
                format_bytes(r.unified_paper_scale_bytes),
                format_bytes(r.parti_paper_scale_bytes),
                "OOM" if r.parti_oom_at_paper_scale else "yes",
            ]
            for r in self.rows
        ]
        return format_table(
            headers,
            body,
            title=f"Figure 9: GPU memory consumption for SpMTTKRP mode-1 (rank={self.rank})",
        )


def spmttkrp_footprints(tensor: SparseTensor, rank: int) -> tuple:
    """Mode-1 device-memory footprints (unified_bytes, parti_bytes) for one tensor.

    Unified: F-COO arrays + product-mode factor matrices + output.
    ParTI:   COO arrays (64-bit indices, as in ParTI's GPU code) + factor
    matrices + intermediate semi-sparse tensor (one dense fiber per
    non-empty fiber of the last product mode, with 64-bit coordinates) +
    output.
    """
    order = tensor.order
    product_modes = range(1, order)
    factor_bytes = sum(tensor.shape[m] * rank * 4.0 for m in product_modes)
    output_bytes = tensor.shape[0] * rank * 4.0

    fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, 0)
    unified_bytes = fcoo.storage_bytes(THREADLEN) + factor_bytes + output_bytes

    coo_bytes = coo_storage_bytes(tensor.nnz, order, index_bytes=8)
    last_product = product_modes[-1]
    intermediate_fibers = tensor.num_fibers(last_product)
    intermediate_bytes = intermediate_fibers * (rank * 4.0 + (order - 1) * 8.0)
    parti_bytes = coo_bytes + factor_bytes + intermediate_bytes + output_bytes
    return unified_bytes, parti_bytes


def _expected_distinct_cells(cells: float, nnz: int) -> float:
    """Expected number of distinct cells hit by ``nnz`` uniform draws.

    Standard occupancy formula ``cells · (1 - exp(-nnz / cells))``; for the
    hyper-sparse tensors (cells >> nnz) this is essentially ``nnz`` and for
    the dense ones it saturates at ``cells``.
    """
    if cells <= 0:
        return 0.0
    return float(cells) * (1.0 - float(np.exp(-float(nnz) / float(cells))))


def paper_scale_spmttkrp_footprints(spec: DatasetSpec, rank: int) -> tuple:
    """Mode-1 (unified_bytes, parti_bytes) for the *paper-scale* tensor, analytically.

    Uses the same data-structure inventory as :func:`spmttkrp_footprints`
    but with the original tensor's shape and non-zero count (Table IV): the
    F-COO byte model of Table II for unified, and 64-bit COO plus the
    two-step intermediate tensor for ParTI, with the number of intermediate
    fibers estimated by the uniform-occupancy formula.  This mirrors the
    paper's own by-hand computation for the configurations that do not fit
    on the device.
    """
    shape = spec.paper_shape
    nnz = spec.paper_nnz
    order = len(shape)
    product_modes = range(1, order)
    factor_bytes = sum(shape[m] * rank * 4.0 for m in product_modes)
    output_bytes = shape[0] * rank * 4.0

    unified = (
        fcoo_storage_bytes(nnz, order, OperationKind.SPMTTKRP, 0, threadlen=THREADLEN)
        + factor_bytes
        + output_bytes
    )

    coo_bytes = float(nnz) * (order * 8.0 + 4.0)
    last_product = product_modes[-1]
    fiber_cells = 1.0
    for m in range(order):
        if m != last_product:
            fiber_cells *= float(shape[m])
    fibers = _expected_distinct_cells(fiber_cells, nnz)
    intermediate_bytes = fibers * (rank * 4.0 + (order - 1) * 8.0)
    parti = coo_bytes + factor_bytes + intermediate_bytes + output_bytes
    return unified, parti


def parti_paper_scale_footprint(dataset: str, rank: int) -> float:
    """ParTI-GPU's mode-1 SpMTTKRP footprint at paper scale (bytes).

    Shared by the Figure 6b runner (to decide which bars are "OOM") and the
    Figure 9 runner so the two experiments agree on the computation.
    """
    _, parti = paper_scale_spmttkrp_footprints(DATASETS[dataset], rank)
    return parti


def run_fig9(*, rank: int = 16) -> Fig9Result:
    """Figure 9: memory consumption of SpMTTKRP mode-1, Unified vs ParTI-GPU."""
    rows: List[Fig9Row] = []
    for name, spec in DATASETS.items():
        tensor = load_dataset(name)
        unified_bytes, parti_bytes = spmttkrp_footprints(tensor, rank)
        unified_paper, parti_paper = paper_scale_spmttkrp_footprints(spec, rank)

        rows.append(
            Fig9Row(
                dataset=name,
                rank=rank,
                unified_bytes=unified_bytes,
                parti_bytes=parti_bytes,
                unified_paper_scale_bytes=unified_paper,
                parti_paper_scale_bytes=parti_paper,
                parti_oom_at_paper_scale=parti_paper > TITAN_X.global_mem_bytes,
            )
        )
    return Fig9Result(rank=rank, device=TITAN_X, rows=rows)
