"""Job execution in two halves: a job's numbers, and its price on a placement.

A job's numbers do not depend on where it runs: the unified kernels compute
one canonical pass on every path, and a decomposition's numeric pass has no
timeline.  So this module keeps the two halves apart:

* :func:`execute_job` computes a job's numbers: the kernel output, or a
  decomposition's :class:`~repro.algorithms.cp.CPNumbers` /
  :class:`~repro.algorithms.tucker.HOOINumbers`.  It is the scheduler's
  only numeric call, made at most once per job per serving run.
* :func:`price_job` runs the cost model alone for one placement: the
  modeled seconds and the execution path, and for a decomposition the full
  :class:`~repro.algorithms.cp.CPResult` /
  :class:`~repro.algorithms.tucker.TuckerResult`, whose numeric fields are
  the job's numbers and whose modeled fields are this placement's.

Both are pure: no scheduler state, no clock, no cache bookkeeping.  The
property harness in ``tests/test_serving.py`` calls them directly to prove
that scheduling, batching and caching never perturb numerics: replaying a
scheduled job through :func:`execute_job` reproduces its output bit for
bit, and :func:`price_job` on its recorded placement reproduces its modeled
seconds.

Kernel jobs price the unified kernels' cost model (one-shot, with the
kernels' own auto-fallback to the streamed path on an over-capacity device,
or sharded across the placement's cluster); decomposition jobs run the
CP-ALS / Tucker-HOOI modeled passes with the placement's device or cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.algorithms.cp import UnifiedGPUEngine, cp_modeled_pass, cp_numeric_pass
from repro.algorithms.tucker import hooi_modeled_pass, hooi_numeric_pass
from repro.backends import get_backend
from repro.context import ExecContext
from repro.formats.fcoo import FCOOTensor
from repro.kernels.unified import operation_spec
from repro.kernels.unified.driver import compute, model
from repro.kernels.unified.spmttkrp import spmttkrp_operands
from repro.kernels.unified.spttm import spttm_operands
from repro.kernels.unified.spttmc import spttmc_operands
from repro.obs.metrics import observe_kernel_profile
from repro.serve.job import Job, JobKind
from repro.serve.placement import NUM_STREAMS, Placement

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["ExecutionOutcome", "execute_job", "price_job"]


@dataclass
class ExecutionOutcome:
    """One placed job's price, with its numbers attached.

    Attributes
    ----------
    output:
        The numeric result: the kernel output (dense matrix or semi-sparse
        tensor) for kernel jobs, the full
        :class:`~repro.algorithms.cp.CPResult` /
        :class:`~repro.algorithms.tucker.TuckerResult` for decompositions.
    exec_s:
        Simulated execution seconds (decompositions include their engine
        setup/transfer time).
    execution:
        Path taken: ``"one-shot"``, ``"streamed"``, ``"sharded"`` or
        ``"decomposition"``.
    profile:
        The kernel profile (kernel jobs only; carries the streaming /
        sharded ledgers the scheduler prices staging from).
    """

    output: Any
    exec_s: float
    execution: str
    profile: Any = None


def _job_encodings(
    job: Job, encodings: Optional[Mapping[int, FCOOTensor]]
) -> Mapping[int, FCOOTensor]:
    """``encodings``, or the job's own built fresh: its mode's for a kernel
    job, every mode's for a decomposition."""
    if encodings is not None:
        return encodings
    modes = [job.mode] if job.kind.is_kernel else range(job.tensor.order)
    return {
        mode: FCOOTensor.from_sparse(job.tensor, job.operation, mode) for mode in modes
    }


_OPERANDS = {
    JobKind.SPTTM: lambda encoding, factors, mode: spttm_operands(
        encoding, factors[mode], mode
    ),
    JobKind.SPMTTKRP: spmttkrp_operands,
    JobKind.SPTTMC: spttmc_operands,
}


def execute_job(
    job: Job, *, encodings: Optional[Mapping[int, FCOOTensor]] = None
) -> Any:
    """The numbers of one job; deterministic in ``job`` alone.

    A kernel job's output, or a decomposition's
    :class:`~repro.algorithms.cp.CPNumbers` (CP runs ``job.iterations``
    sweeps without fit tracking) /
    :class:`~repro.algorithms.tucker.HOOINumbers`.  ``encodings`` maps
    modes to the job's F-COO encodings (normally the ones the scheduler got
    from its :class:`~repro.serve.cache.PreprocCache` at admission); they
    are built on the fly when absent.  An encoding never changes numerics:
    it is a function of ``(tensor, operation, mode)`` alone.
    """
    encodings = _job_encodings(job, encodings)
    if job.kind.is_kernel:
        operands = _OPERANDS[job.kind](encodings[job.mode], job.factors(), job.mode)
        return compute(*operands, get_backend(None))
    if job.kind is JobKind.CP_ALS:
        engine = UnifiedGPUEngine()
        engine.prepare(job.tensor, job.rank, encodings)
        return cp_numeric_pass(
            job.tensor,
            engine,
            job.factors(),
            max_iterations=job.iterations,
            compute_fit=False,
        )
    return hooi_numeric_pass(
        job.tensor,
        job.tucker_ranks,
        encodings[0],
        max_iterations=job.iterations,
        seed=job.factor_seed,
    )


def price_job(
    job: Job,
    placement: Placement,
    numbers: Any = None,
    *,
    encodings: Optional[Mapping[int, FCOOTensor]] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> ExecutionOutcome:
    """Price one placed job with the cost model alone.

    Deterministic in ``(job, placement)``.  ``numbers`` is the job's
    :func:`execute_job` result.  A kernel job's pricing never reads it; it
    becomes the outcome's ``output`` as is (``None`` when not given), so a
    placement that does not fit raises
    :class:`~repro.gpusim.timing.OutOfDeviceMemory` before any numeric
    work.  A decomposition needs it: its modeled pass books as many sweeps
    as the numeric pass ran, and its output is the full result.

    ``encodings`` is as in :func:`execute_job`.  The kernels' out-of-core
    fallback runs :data:`~repro.serve.placement.NUM_STREAMS` streams.
    ``metrics`` is an optional :class:`~repro.obs.metrics.MetricsRegistry`
    the kernel or decomposition telemetry lands in; it is observation only.
    """
    encodings = _job_encodings(job, encodings)
    ctx = ExecContext(num_streams=NUM_STREAMS, cluster=placement.cluster, metrics=metrics)
    if job.kind.is_kernel:
        encoding = encodings[job.mode]
        op = operation_spec(encoding, job.operation, job.rank)
        profile = model(
            encoding,
            op,
            device=placement.primary_device,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            ctx=ctx,
        )
        if metrics is not None:
            observe_kernel_profile(metrics, kernel=op.kernel, nnz=encoding.nnz, profile=profile)
        return ExecutionOutcome(
            output=numbers,
            exec_s=profile.estimated_time_s,
            execution=profile.execution_path,
            profile=profile,
        )

    if job.kind is JobKind.CP_ALS:
        engine = UnifiedGPUEngine(
            device=placement.primary_device,
            block_size=placement.block_size,
            threadlen=placement.threadlen,
            ctx=ctx,
        )
        setup_s = engine.prepare(job.tensor, job.rank, encodings)
        result = cp_modeled_pass(
            engine, job.tensor.shape, numbers, setup_time_s=setup_s, ctx=ctx
        )
        return ExecutionOutcome(
            output=result,
            exec_s=result.setup_time_s + result.total_time_s,
            execution="decomposition",
        )

    result = hooi_modeled_pass(
        [encodings[mode] for mode in range(job.tensor.order)],
        job.tucker_ranks,
        numbers,
        device=placement.primary_device,
        block_size=placement.block_size,
        threadlen=placement.threadlen,
        ctx=ctx,
    )
    return ExecutionOutcome(
        output=result,
        exec_s=result.total_time_s,
        execution="decomposition",
    )
