"""Table II: storage cost of COO vs F-COO for SpTTM and SpMTTKRP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.data.registry import DATASETS, load_dataset
from repro.formats.coo import COOTensor
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.formats.storage_cost import coo_storage_bytes, fcoo_storage_bytes
from repro.util.formatting import format_table

__all__ = ["Table2Row", "Table2Result", "run_table2"]

#: The F-COO partition length the bench runners charge (the kernels' default).
THREADLEN = 8


@dataclass(frozen=True)
class Table2Row:
    """One dataset × operation storage comparison.

    ``*_model`` columns come from the analytic Table II formulas;
    ``*_measured`` from the byte sizes of the actual in-memory structures.
    """

    dataset: str
    operation: str
    nnz: int
    threadlen: int
    coo_bytes_per_nnz_model: float
    fcoo_bytes_per_nnz_model: float
    coo_bytes_per_nnz_measured: float
    fcoo_bytes_per_nnz_measured: float

    @property
    def reduction_factor(self) -> float:
        """How many times smaller F-COO is than COO (measured)."""
        return self.coo_bytes_per_nnz_measured / self.fcoo_bytes_per_nnz_measured


@dataclass
class Table2Result:
    """All rows of the Table II reproduction."""

    rows: List[Table2Row]

    def render(self) -> str:
        headers = [
            "dataset",
            "operation",
            "nnz",
            "threadlen",
            "COO B/nnz (model)",
            "F-COO B/nnz (model)",
            "COO B/nnz (measured)",
            "F-COO B/nnz (measured)",
            "reduction",
        ]
        body = [
            [
                r.dataset,
                r.operation,
                r.nnz,
                r.threadlen,
                r.coo_bytes_per_nnz_model,
                r.fcoo_bytes_per_nnz_model,
                r.coo_bytes_per_nnz_measured,
                r.fcoo_bytes_per_nnz_measured,
                f"{r.reduction_factor:.2f}x",
            ]
            for r in self.rows
        ]
        return format_table(headers, body, title="Table II: storage cost of COO vs F-COO")


def run_table2() -> Table2Result:
    """Reproduce Table II on the registered datasets.

    For each dataset two rows are produced: SpTTM on the last mode (the
    paper's "SpTTM on mode-3") and SpMTTKRP on the first mode ("on mode-1").
    """
    rows: List[Table2Row] = []
    for name in DATASETS:
        tensor = load_dataset(name)
        order = tensor.order
        cases: List[Tuple[str, OperationKind, int]] = [
            (f"SpTTM mode-{order}", OperationKind.SPTTM, order - 1),
            ("SpMTTKRP mode-1", OperationKind.SPMTTKRP, 0),
        ]
        coo = COOTensor.from_sparse(tensor)
        for label, op, mode in cases:
            fcoo = FCOOTensor.from_sparse(tensor, op, mode)
            rows.append(
                Table2Row(
                    dataset=name,
                    operation=label,
                    nnz=tensor.nnz,
                    threadlen=THREADLEN,
                    coo_bytes_per_nnz_model=coo_storage_bytes(tensor.nnz, order) / tensor.nnz,
                    fcoo_bytes_per_nnz_model=fcoo_storage_bytes(
                        tensor.nnz, order, op, mode, threadlen=THREADLEN
                    )
                    / tensor.nnz,
                    coo_bytes_per_nnz_measured=coo.storage_bytes() / tensor.nnz,
                    fcoo_bytes_per_nnz_measured=fcoo.storage_bytes(THREADLEN) / tensor.nnz,
                )
            )
    return Table2Result(rows=rows)
