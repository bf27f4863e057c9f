"""Preprocessing cache: memoised F-COO encodings and tuned launch configs.

The paper performs its preprocessing — sorting the non-zeros and building
the F-COO flag arrays for one (operation, mode) — once on the host before a
decomposition; in a multi-tenant serving setting the same tensors arrive
again and again (repeat tenants, retried jobs, several kernels over one
upload), so the preprocessing is worth memoising *across* jobs.

:class:`PreprocCache` keys encodings by ``(tensor content, operation,
mode)`` — the content key hashes coordinates and values, so two tenants
submitting the same data share an entry regardless of naming — and tuned
``(BLOCK_SIZE, threadlen)`` configurations by ``(tensor content, operation,
mode, rank, device)``.  Both are kept for the cache's lifetime: one
serving engine's cache holds every encoding its runs built.

Cache *misses* are charged simulated host seconds (the encode is a sort
plus flag construction over the non-zeros; a tuner miss charges
:data:`TUNER_SECONDS_PER_CONFIG` per feasible configuration swept), cache
*hits* are free — this is exactly the latency the serving report
attributes to preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.device import DeviceSpec, TITAN_X
from repro.tensor.sparse import SparseTensor

__all__ = ["CacheStats", "PreprocCache"]

#: Host-side F-COO construction cost per non-zero (a lexicographic sort plus
#: vectorised flag/segment-table construction; same order of magnitude as the
#: CSF build charge of the SPLATT CPU engine).
ENCODE_SECONDS_PER_NNZ = 50e-9

#: Reduced tuner axes for serving: a 3x3 sweep around the paper's sweet spot
#: instead of the full Figure 5 grid, so a tuner miss evaluates 9
#: configurations rather than 30.
SERVING_BLOCK_SIZES: Tuple[int, ...] = (64, 128, 256)
SERVING_THREADLENS: Tuple[int, ...] = (8, 16, 32)

#: Host seconds per tuner configuration evaluated on a miss.  The serving
#: tuner is *model-driven* — it ranks configurations with the simulated cost
#: model instead of executing each candidate on the device (the Figure 5
#: sweep measured real kernels once, offline) — so a miss costs a model
#: evaluation per configuration, not a kernel run per configuration.
TUNER_SECONDS_PER_CONFIG = 2e-6


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`PreprocCache`."""

    encode_hits: int = 0
    encode_misses: int = 0
    tuner_hits: int = 0
    tuner_misses: int = 0

    @property
    def encode_hit_rate(self) -> float:
        """Fraction of encoding lookups served from the cache (0 when none)."""
        total = self.encode_hits + self.encode_misses
        return self.encode_hits / total if total else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The counter deltas accumulated after ``earlier`` was snapshotted
        (how the serving engine reports per-run cache effectiveness from
        one shared, ever-warming cache)."""
        return CacheStats(
            encode_hits=self.encode_hits - earlier.encode_hits,
            encode_misses=self.encode_misses - earlier.encode_misses,
            tuner_hits=self.tuner_hits - earlier.tuner_hits,
            tuner_misses=self.tuner_misses - earlier.tuner_misses,
        )


class PreprocCache:
    """Cache of F-COO encodings and tuned launch parameters."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._encodings: Dict[Tuple[str, str, int], FCOOTensor] = {}
        self._tuned: Dict[Tuple[str, str, int, int, str], Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    def encoding(
        self,
        tensor: SparseTensor,
        operation: Union[OperationKind, str],
        mode: int,
    ) -> Tuple[FCOOTensor, bool, float]:
        """The F-COO encoding of ``tensor`` for ``(operation, mode)``.

        Returns ``(encoding, hit, host_seconds)``: on a hit the encoding
        comes from the cache and costs nothing; on a miss it is built,
        charged ``nnz * ENCODE_SECONDS_PER_NNZ`` host seconds and inserted.
        """
        operation = OperationKind.coerce(operation)
        key = (tensor.content_key, operation.value, int(mode))
        cached = self._encodings.get(key)
        if cached is not None:
            self.stats.encode_hits += 1
            return cached, True, 0.0

        self.stats.encode_misses += 1
        encoding = FCOOTensor.from_sparse(tensor, operation, mode)
        self._encodings[key] = encoding
        return encoding, False, tensor.nnz * ENCODE_SECONDS_PER_NNZ

    # ------------------------------------------------------------------ #
    def tuner_config(
        self,
        tensor: SparseTensor,
        operation: Union[OperationKind, str],
        mode: int,
        rank: int,
        *,
        encoding: FCOOTensor,
        device: DeviceSpec = TITAN_X,
    ) -> Tuple[Tuple[int, int], bool, float]:
        """The tuned ``(BLOCK_SIZE, threadlen)`` for one job shape.

        Returns ``(config, hit, host_seconds)``.  A miss sweeps
        :data:`SERVING_BLOCK_SIZES` x :data:`SERVING_THREADLENS` with
        :func:`repro.autotune.tune_unified` and charges
        :data:`TUNER_SECONDS_PER_CONFIG` per configuration that fits the
        device (the serving tuner ranks candidates with the cost model
        rather than executing them); a hit is free — this is the "repeat
        tenants skip preprocessing" half of the cache that covers the
        tuner.  A miss sweeps ``encoding``, the caller's F-COO encoding of
        ``tensor`` for ``(operation, mode)``, so the tuner never encodes
        again.
        """
        from repro.autotune import tune_unified

        operation = OperationKind.coerce(operation)
        key = (tensor.content_key, operation.value, int(mode), int(rank), device.name)
        cached = self._tuned.get(key)
        if cached is not None:
            self.stats.tuner_hits += 1
            return cached, True, 0.0

        self.stats.tuner_misses += 1
        result = tune_unified(
            encoding,
            operation,
            mode,
            rank=rank,
            device=device,
            block_sizes=SERVING_BLOCK_SIZES,
            threadlens=SERVING_THREADLENS,
        )
        config = result.best
        cost_s = float(np.isfinite(result.times).sum()) * TUNER_SECONDS_PER_CONFIG
        self._tuned[key] = config
        return config, False, cost_s
