"""The repository's first *wall-clock* measurement layer.

Everything else in ``repro.bench`` measures **simulated** seconds — cost-model
arithmetic that is deterministic and gated byte-for-byte.  This module times
the *actual host compute* of the three unified kernels and CP-ALS at fixed
sizes and seeds, once per numeric-execution backend
(:mod:`repro.backends`), and pairs the timings with a backend **identity
sweep**: the vectorized backend re-runs the repository's topology harnesses
(one-shot, chunked, sharded, multi-node, decompositions, the serving
scheduler) and every output is compared byte for byte (shape, dtype and
bits, so signed zeros count) against the reference backend's.  The timed
tensors are uniform, except for SpMTTKRP's power-law twin
(``spmttkrp_power``), whose skewed slices are those of the paper's
datasets.  The sweep's kernel and decomposition harnesses also run on a
power-law tensor whose heaviest slice outgrows the vectorized backend's
blocks, so a sum carried across blocks is compared too.

Wall time is noisy where simulated time is not, so the regression gate
(:mod:`repro.bench.regression`, suite ``wallclock``) treats the two metric
families differently:

* ``.../vec_over_ref_ratio`` — vectorized median over reference median per
  kernel; gated with a *wide* ratio band (the suite tolerance is 50 %).
  A ratio is refreshed when a kernel gets faster, to the largest of three
  quick runs, so the band guards the gain: SpTTMc's (0.17 on a 2-core
  host, set after its last Kronecker stage was folded into the CSR sum)
  fails a return to the unfolded ratio of about 0.33.
* ``.../speedup_below_2x_count`` and ``backend_identity_violation_count``
  — zero-tolerance counts: the quick-mode SpMTTKRP speedup must stay ≥ 2×
  on both the uniform and the power-law tensor, and the backends must stay
  bit-identical, on every run.
* ``.../{ref,vec}_median_s_info`` — absolute medians; recorded in the
  artifact for trend plots (the nightly ``wallclock-trend`` job) but never
  gated — absolute wall time on a shared runner is not a signal.

Timing protocol: every case runs ``warmup`` throwaway iterations per backend
and reports each backend's median of ``repeat`` timed iterations
(``time.perf_counter``), with inputs pre-generated and pre-encoded outside
the timed region.  The two backends take turns within every round, so a
drift in host speed during a case reaches both medians alike.

Usage::

    python -m repro.bench.wallclock                 # quick mode, table
    python -m repro.bench.wallclock --full          # nightly sizes
    python -m repro.bench.wallclock --json out.json # machine-readable
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import BACKEND_ENV_VAR, get_backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.formats.mode_encoding import OperationKind
from repro.gpusim.cluster import ClusterSpec
from repro.gpusim.device import TITAN_X
from repro.tensor.random import random_factors, random_sparse_tensor
from repro.tensor.sparse import SparseTensor

__all__ = [
    "QUICK_REPEAT",
    "QUICK_WARMUP",
    "FULL_REPEAT",
    "FULL_WARMUP",
    "run_wallclock",
    "main",
]

#: Quick mode (the CI ``wallclock`` job): median of 3 after 1 warmup.
QUICK_REPEAT, QUICK_WARMUP = 3, 1
#: Full mode (the nightly trend job): median of 5 after 2 warmups.
FULL_REPEAT, FULL_WARMUP = 5, 2


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _KernelCase:
    """One timed kernel workload at a fixed size and seed."""

    kernel: str
    shape: Tuple[int, ...]
    nnz: int
    rank: int
    seed: int
    distribution: str = "uniform"

    @property
    def name(self) -> str:
        """The metric prefix: the kernel, suffixed for power-law tensors."""
        return self.kernel if self.distribution == "uniform" else f"{self.kernel}_power"


def _cases(quick: bool) -> List[_KernelCase]:
    """The timed workloads; sizes chosen so the interpreted path's per-
    non-zero overhead (not allocator noise) dominates the measurement."""
    if quick:
        # SpMTTKRP uses rank 32: the gate demands a ≥2× end-to-end speedup
        # *through the full kernel entry point*, whose cost-model stage is
        # backend-independent overhead — a wider factor keeps the numeric
        # core dominant so the measured margin stays comfortably above 2×.
        # Its power-law twin has the skewed slices of the paper's datasets.
        return [
            _KernelCase("spmttkrp", (30_000, 2_000, 1_500), 400_000, 32, 101),
            _KernelCase("spmttkrp", (30_000, 2_000, 1_500), 400_000, 32, 101, "power"),
            _KernelCase("spttm", (20_000, 1_500, 1_200), 250_000, 16, 102),
            _KernelCase("spttmc", (8_000, 600, 500), 120_000, 8, 103),
            _KernelCase("cp_als", (5_000, 600, 500), 150_000, 16, 104),
        ]
    return [
        _KernelCase("spmttkrp", (80_000, 4_000, 3_000), 1_200_000, 32, 101),
        _KernelCase("spmttkrp", (80_000, 4_000, 3_000), 1_200_000, 32, 101, "power"),
        _KernelCase("spttm", (50_000, 3_000, 2_500), 800_000, 16, 102),
        _KernelCase("spttmc", (16_000, 1_000, 800), 400_000, 8, 103),
        _KernelCase("cp_als", (12_000, 1_200, 1_000), 500_000, 16, 104),
    ]


def _interleaved_medians(
    runners: Dict[str, Callable[[], object]], *, repeat: int, warmup: int
) -> Dict[str, float]:
    """Median seconds of each runner, the runners taking turns in every
    round so a drift in host speed reaches all of them alike."""
    for _ in range(warmup):
        for fn in runners.values():
            fn()
    samples: Dict[str, List[float]] = {name: [] for name in runners}
    for _ in range(repeat):
        for name, fn in runners.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(times)) for name, times in samples.items()}


def _timed_runner(case: _KernelCase, backend: str) -> Callable[[], object]:
    """Build the closure the timer drives: inputs generated and F-COO
    encoded *outside* the timed region, backend threaded via ``ctx``."""
    from repro.algorithms.cp import cp_als
    from repro.kernels.unified.spmttkrp import unified_spmttkrp
    from repro.kernels.unified.spttm import unified_spttm
    from repro.kernels.unified.spttmc import unified_spttmc

    tensor = random_sparse_tensor(
        case.shape, case.nnz, seed=case.seed, distribution=case.distribution
    )
    ctx = ExecContext(backend=backend)
    if case.kernel == "spmttkrp":
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPMTTKRP, 0)
        factors = [np.array(f) for f in random_factors(case.shape, case.rank, seed=1)]
        return lambda: unified_spmttkrp(fcoo, factors, 0, ctx=ctx)
    if case.kernel == "spttm":
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPTTM, 0)
        matrix = np.array(random_factors(case.shape, case.rank, seed=1)[0])
        return lambda: unified_spttm(fcoo, matrix, 0, ctx=ctx)
    if case.kernel == "spttmc":
        fcoo = FCOOTensor.from_sparse(tensor, OperationKind.SPTTMC, 0)
        factors = [np.array(f) for f in random_factors(case.shape, case.rank, seed=1)]
        return lambda: unified_spttmc(fcoo, factors, 0, ctx=ctx)
    if case.kernel == "cp_als":
        return lambda: cp_als(
            tensor, case.rank, max_iterations=2, compute_fit=False, seed=7, ctx=ctx
        )
    raise ValueError(f"unknown kernel {case.kernel!r}")


# ---------------------------------------------------------------------- #
# Identity sweep
# ---------------------------------------------------------------------- #
def _carry_tensor() -> SparseTensor:
    """The identity sweep's power-law tensor.

    Its heaviest mode-0 slice spans whole blocks of the vectorized
    backend's sums (:data:`repro.backends.vectorized.BLOCK_BYTES`), with a
    carry in and a carry out, for both the rank-8 SpMTTKRP and the 8 x 8
    column SpTTMc of :func:`_outputs_under`, whose blocks form 8 columns
    (the first product mode's factor entries are the CSR data).
    """
    return random_sparse_tensor((8, 5_000, 5_000), 40_000, seed=21, distribution="power")


def _outputs_under(backend: str, tensors: Sequence[SparseTensor]) -> List[np.ndarray]:
    """Every harness output under one backend, as a flat array list
    (:func:`~repro.bench.serving.output_arrays` of each).

    Covers the repository's existing topology harnesses on each of
    ``tensors``: one-shot, chunked (streamed), sharded (2 GPUs) and both
    decompositions; then the serving scheduler (which exercises batching,
    preemption and the preprocessing cache on top of the kernels) once.
    """
    from repro.algorithms.cp import cp_als
    from repro.algorithms.tucker import tucker_hooi
    from repro.bench.serving import output_arrays, run_serving
    from repro.kernels.unified.spmttkrp import unified_spmttkrp
    from repro.kernels.unified.spttm import unified_spttm
    from repro.kernels.unified.spttmc import unified_spttmc

    two_gpus = ClusterSpec.homogeneous(TITAN_X, 2)
    outputs: List[object] = []
    for tensor in tensors:
        factors = [np.array(f) for f in random_factors(tensor.shape, 8, seed=2)]
        for ctx in (
            ExecContext(backend=backend),
            ExecContext(backend=backend, streamed=True, chunk_nnz=512),
            ExecContext(backend=backend, cluster=two_gpus),
        ):
            outputs.append(unified_spmttkrp(tensor, factors, 0, ctx=ctx).output)
            outputs.append(unified_spttm(tensor, factors[1], 1, ctx=ctx).output)
            outputs.append(unified_spttmc(tensor, factors, 0, ctx=ctx).output)

        outputs.append(
            cp_als(
                tensor, 8, max_iterations=2, compute_fit=False, seed=5,
                ctx=ExecContext(backend=backend, cluster=two_gpus),
            )
        )
        outputs.append(
            tucker_hooi(
                tensor, (4, 4, 4), max_iterations=1, seed=5,
                ctx=ExecContext(backend=backend, cluster=two_gpus),
            )
        )

    # Scheduled path: the serving engine builds its own contexts, so the
    # backend rides the REPRO_BACKEND default the way the CI matrix sets it.
    previous = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = backend
    try:
        report = run_serving(num_jobs=12, seed=0)
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous
    outputs.extend(result.output for result in report.results)
    return [array for output in outputs for array in output_arrays(output)]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: ``-0.0`` and ``+0.0`` differ here,
    where ``np.array_equal`` calls them equal."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _identity_violations() -> int:
    """Arrays on which the vectorized backend's bytes differ from the
    reference's."""
    tensors = (random_sparse_tensor((400, 60, 50), 8_000, seed=21), _carry_tensor())
    reference = _outputs_under("reference", tensors)
    vectorized = _outputs_under("vectorized", tensors)
    # Structural divergence (different job/array counts) is itself a
    # violation per missing/extra array.
    return abs(len(reference) - len(vectorized)) + sum(
        not _same_bytes(a, b) for a, b in zip(reference, vectorized)
    )


# ---------------------------------------------------------------------- #
# Suite driver
# ---------------------------------------------------------------------- #
def run_wallclock(*, quick: bool = True) -> Dict[str, float]:
    """Run the wall-clock suite; returns the flat metric dict the
    regression gate consumes (see the module docstring for the gating
    semantics of each metric family)."""
    repeat, warmup = (QUICK_REPEAT, QUICK_WARMUP) if quick else (FULL_REPEAT, FULL_WARMUP)
    get_backend("reference"), get_backend("vectorized")  # fail fast on registry

    metrics: Dict[str, float] = {}
    for case in _cases(quick):
        medians = _interleaved_medians(
            {b: _timed_runner(case, b) for b in ("reference", "vectorized")},
            repeat=repeat,
            warmup=warmup,
        )
        ratio = medians["vectorized"] / medians["reference"]
        prefix = f"wallclock/{case.name}"
        metrics[f"{prefix}/vec_over_ref_ratio"] = ratio
        metrics[f"{prefix}/ref_median_s_info"] = medians["reference"]
        metrics[f"{prefix}/vec_median_s_info"] = medians["vectorized"]
        if case.kernel == "spmttkrp":
            metrics[f"{prefix}/speedup_below_2x_count"] = float(ratio > 0.5)

    metrics["wallclock/backend_identity_violation_count"] = float(
        _identity_violations()
    )
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.wallclock",
        description="Wall-clock benchmark of the unified kernels per backend.",
    )
    parser.add_argument(
        "--full", action="store_true", help="nightly sizes (larger, slower)"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write the metrics as JSON"
    )
    args = parser.parse_args(argv)

    metrics = run_wallclock(quick=not args.full)
    for name in sorted(metrics):
        print(f"{name:55s} {metrics[name]:.6g}")
    if args.json:
        parent = os.path.dirname(args.json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        payload = {
            "mode": "full" if args.full else "quick",
            "unit": "wall-clock seconds (noisy; ratios gated, _info recorded)",
            "metrics": metrics,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    violations = metrics["wallclock/backend_identity_violation_count"]
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
