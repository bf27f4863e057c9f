"""The unified execution-context API (`ExecContext`) and SLO classes.

Every unified kernel and both decomposition drivers share one set of
execution knobs — ``streamed=``, ``num_streams=``, ``chunk_nnz=``,
``cluster=``, ``chaos=``, ``overlap_modes=`` and the rest.  This module
bundles them into one frozen :class:`ExecContext` that every entry point
accepts as ``ctx=``:

>>> from repro import ExecContext, unified_spmttkrp
>>> ctx = ExecContext(streamed=True, num_streams=4)
>>> result = unified_spmttkrp(tensor, factors, mode=0, ctx=ctx)  # doctest: +SKIP

``ctx=`` is the only spelling of these controls.

The module also defines :class:`SLO`, a per-job service-level objective
(latency deadline, priority class, preemptibility) consumed by the serving
scheduler's deadline-aware policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.gpusim.cluster import ClusterSpec, NodeFailure
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "SLO",
    "ExecContext",
    "DEFAULT_CONTEXT",
]


# ---------------------------------------------------------------------- #
# SLO classes
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SLO:
    """A per-job service-level objective.

    Attributes
    ----------
    deadline_s:
        Latency budget relative to the job's arrival (simulated seconds);
        ``None`` means the job has no deadline (a pure batch job).
    priority:
        Priority class, lower is more urgent (matches ``Job.priority``).
    preemptible:
        Whether the scheduler's deadline-aware policy may preempt this
        job before it starts computing to make room for a latency-class
        job.
        Latency-class jobs default to non-preemptible.
    """

    deadline_s: Optional[float] = None
    priority: int = 1
    preemptible: bool = True

    def __post_init__(self) -> None:
        if self.deadline_s is not None and (
            not math.isfinite(self.deadline_s) or self.deadline_s <= 0.0
        ):
            raise ValueError(
                f"deadline_s must be a finite positive latency budget or None, "
                f"got {self.deadline_s}"
            )
        if self.priority < 0:
            raise ValueError(f"priority must be non-negative, got {self.priority}")

    @classmethod
    def latency(cls, deadline_s: float, *, priority: int = 0) -> "SLO":
        """A latency-class SLO: hard deadline, urgent, never preempted."""
        return cls(deadline_s=deadline_s, priority=priority, preemptible=False)

    @classmethod
    def batch(cls, *, priority: int = 1) -> "SLO":
        """A batch-class SLO: no deadline, preemptible."""
        return cls(deadline_s=None, priority=priority, preemptible=True)

    @property
    def has_deadline(self) -> bool:
        """Whether this SLO carries a latency deadline."""
        return self.deadline_s is not None

    def deadline_for(self, arrival_s: float) -> float:
        """Absolute deadline for a job arriving at ``arrival_s`` (inf if none)."""
        if self.deadline_s is None:
            return math.inf
        return arrival_s + self.deadline_s


# ---------------------------------------------------------------------- #
# ExecContext
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecContext:
    """Bundled execution knobs for the unified kernels and decompositions.

    Every field is read by a kernel, a decomposition driver or the
    :class:`~repro.algorithms.cp.UnifiedGPUEngine`; serving-level policy
    (SLOs, the queue policy) lives on the job and the scheduler.

    Attributes
    ----------
    streamed:
        Force (``True``) / forbid (``False``) the out-of-core streamed
        path; ``None`` decides by device footprint.
    num_streams:
        CUDA streams / pipeline buffers for the streamed path.
    chunk_nnz:
        Override the streamed path's chunk size (non-zeros per chunk).
    cluster:
        Multi-GPU topology: a :class:`~repro.gpusim.cluster.ClusterSpec`
        of one node (GPUs joined by one link) or of several nodes over a
        NIC.
    chaos:
        Scripted :class:`~repro.gpusim.cluster.NodeFailure` events for the
        decomposition drivers.  After the numeric pass, the modeled pass
        re-stages the lost shards and re-books the lost sweep on the
        survivors; the numbers do not change.
    overlap_modes:
        CP-ALS: overlap each mode's all-reduce with its dense update.
    backend:
        The numeric-execution backend (:mod:`repro.backends`): a registry
        name (``"reference"`` / ``"vectorized"``), a
        :class:`~repro.backends.base.Backend` instance, or ``None`` to
        consult the ``REPRO_BACKEND`` environment variable (default
        ``"reference"``).  Backends are bit-identical by contract, so this
        changes wall-clock speed only — never results or modeled seconds.
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the unified kernels, streamed/sharded drivers, and decomposition
        algorithms publish launch counters and modeled-time histograms
        into it (observation-only: modeled seconds never change).  The
        serving engine threads its per-run registry through here so every
        layer a job touches reports into one place.
    """

    streamed: Optional[bool] = None
    num_streams: int = 2
    chunk_nnz: Optional[int] = None
    cluster: Optional["ClusterSpec"] = None
    chaos: Optional[Tuple["NodeFailure", ...]] = None
    overlap_modes: bool = False
    backend: Optional[Any] = None
    metrics: Optional["MetricsRegistry"] = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            # Validate eagerly so a typo'd name fails at construction, not
            # deep inside a kernel.  (Lazy import: backends -> gpusim only.)
            from repro.backends import get_backend

            get_backend(self.backend)
        if self.num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {self.num_streams}")
        if self.chunk_nnz is not None and self.chunk_nnz < 1:
            raise ValueError(f"chunk_nnz must be >= 1 or None, got {self.chunk_nnz}")
        if self.chaos is not None and not isinstance(self.chaos, tuple):
            # Normalise any sequence of failures to a tuple so the context
            # stays hashable/frozen-safe.
            object.__setattr__(self, "chaos", tuple(self.chaos))

    def evolve(self, **changes: Any) -> "ExecContext":
        """A copy with ``changes`` applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)


#: The all-defaults context; what a call without ``ctx=`` resolves to.
DEFAULT_CONTEXT = ExecContext()

