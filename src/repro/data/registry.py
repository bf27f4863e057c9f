"""Dataset registry: the paper's evaluation tensors and their analogs.

The registry maps the paper's dataset names to (i) the original tensor's
statistics as reported in Table IV and (ii) a generator for the synthetic
analog used by this reproduction.  The benchmark harness uses the original
statistics to *project* device-memory footprints back to paper scale (for
the out-of-memory behaviour of Figure 6b and the footprints of Figure 9)
while running the kernels on the analog.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

from repro.data.synthetic import (
    make_brainq_like,
    make_delicious_like,
    make_nell1_like,
    make_nell2_like,
)
from repro.tensor.sparse import SparseTensor
from repro.util.formatting import format_table

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_table"]


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation dataset: paper-scale statistics plus the analog generator.

    Attributes
    ----------
    name:
        The paper's dataset name (``brainq``, ``nell2``, ``delicious``,
        ``nell1``).
    paper_shape / paper_nnz / paper_density:
        The original FROSTT tensor's statistics (Table IV).
    description:
        One-line provenance note.
    generator:
        Zero-argument callable building the synthetic analog.
    """

    name: str
    paper_shape: Tuple[int, ...]
    paper_nnz: int
    paper_density: float
    description: str
    generator: Callable[[], SparseTensor]

    @property
    def order(self) -> int:
        """Tensor order."""
        return len(self.paper_shape)


#: The four tensors of Table IV in the order the paper's figures use.
DATASETS: Dict[str, DatasetSpec] = {
    "nell1": DatasetSpec(
        name="nell1",
        paper_shape=(2_900_000, 2_100_000, 25_500_000),
        paper_nnz=144_000_000,
        paper_density=9.3e-13,
        description="NELL knowledge-base noun-verb-noun triplets (large)",
        generator=make_nell1_like,
    ),
    "delicious": DatasetSpec(
        name="delicious",
        paper_shape=(500_000, 17_300_000, 2_500_000),
        paper_nnz=140_000_000,
        paper_density=6.1e-12,
        description="delicious.com user-item-tag bookmarks",
        generator=make_delicious_like,
    ),
    "nell2": DatasetSpec(
        name="nell2",
        paper_shape=(12_000, 9_000, 29_000),
        paper_nnz=77_000_000,
        paper_density=2.5e-05,
        description="NELL knowledge-base noun-verb-noun triplets (dense subset)",
        generator=make_nell2_like,
    ),
    "brainq": DatasetSpec(
        name="brainq",
        paper_shape=(60, 70_000, 9),
        paper_nnz=11_000_000,
        paper_density=2.9e-01,
        description="fMRI noun-voxel-subject measurements",
        generator=make_brainq_like,
    ),
}


@lru_cache(maxsize=None)
def load_dataset(name: str) -> SparseTensor:
    """Build (and memoise) the synthetic analog of a registered dataset."""
    key = name.lower()
    if key not in DATASETS:
        valid = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; available: {valid}")
    return DATASETS[key].generator()


def dataset_table() -> str:
    """Render the Table IV reproduction (paper statistics, plus the analogs)."""
    headers = ["dataset", "order", "paper mode sizes", "paper nnz", "paper density"]
    headers += ["analog mode sizes", "analog nnz", "analog density"]
    rows = []
    for spec in DATASETS.values():
        analog = load_dataset(spec.name)
        rows.append(
            [
                spec.name,
                spec.order,
                "x".join(str(s) for s in spec.paper_shape),
                spec.paper_nnz,
                f"{spec.paper_density:.1e}",
                "x".join(str(s) for s in analog.shape),
                analog.nnz,
                f"{analog.density:.1e}",
            ]
        )
    return format_table(headers, rows, title="Table IV: sparse tensor datasets")
