"""Sparse tensor storage formats.

This subpackage implements every storage format that appears in the paper's
discussion and evaluation:

* :class:`~repro.formats.coo.COOTensor` — the plain coordinate format that
  ParTI's GPU SpMTTKRP uses (all mode indices stored explicitly).
* :class:`~repro.formats.fcoo.FCOOTensor` — the paper's contribution: the
  flagged coordinate format that keeps only product-mode indices and encodes
  index-mode changes in a bit-flag array (Section IV-B, Figure 2, Table II).
* :class:`~repro.formats.csf.CSFTensor` — SPLATT's compressed sparse fiber
  tree, used by the CPU MTTKRP baseline.
* :class:`~repro.formats.semisparse.SemiSparseTensor` — the sCOO format of
  Li et al. for semi-sparse tensors (SpTTM outputs and the intermediate
  tensor of the two-step MTTKRP, Figure 3a).
* :mod:`~repro.formats.storage_cost` — the analytic byte-cost model of
  Table II.
* :mod:`~repro.formats.mode_encoding` — the operation/mode classification of
  Table I (product modes, index modes, sparse/dense modes of the result).
"""

from repro.formats.mode_encoding import (
    OperationKind,
    ModeRoles,
    mode_roles,
)
from repro.formats.coo import COOTensor
from repro.formats.fcoo import FCOOChunk, FCOOTensor
from repro.formats.csf import CSFTensor
from repro.formats.semisparse import SemiSparseTensor
from repro.formats.storage_cost import coo_storage_bytes, fcoo_storage_bytes

__all__ = [
    "OperationKind",
    "ModeRoles",
    "mode_roles",
    "COOTensor",
    "FCOOTensor",
    "FCOOChunk",
    "CSFTensor",
    "SemiSparseTensor",
    "coo_storage_bytes",
    "fcoo_storage_bytes",
]
