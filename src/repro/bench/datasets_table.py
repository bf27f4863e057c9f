"""Table IV: description of the sparse tensor datasets."""

from __future__ import annotations

from repro.data.registry import dataset_table

__all__ = ["run_table4"]


def run_table4() -> str:
    """Render the Table IV reproduction (paper statistics plus analog statistics)."""
    return dataset_table()
