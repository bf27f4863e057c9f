"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

Every layer that models time — kernels, streamed/sharded drivers, the
decomposition algorithms, the serving scheduler — can publish what it
observed into one :class:`MetricsRegistry`, carried on
:class:`~repro.context.ExecContext` and surfaced by ``python -m repro
serve --metrics out.prom``.

Unlike a production metrics client, nothing here reads a wall clock:
every recorded value is either an event count or *simulated* seconds from
the :mod:`repro.gpusim.timeline` engine.  That makes the whole registry
deterministic — two runs with the same seed produce byte-identical
Prometheus text, which is what lets the benchmark regression gate diff
telemetry like any other modeled metric:

* metric families render in registration order (the program's publish
  order, which is deterministic);
* label sets within a family render in sorted label order;
* floats render via ``repr`` (shortest round-trip form — no locale, no
  precision drift).

The exposition format follows the Prometheus text format (``# HELP`` /
``# TYPE`` headers, ``name{label="value"} value`` samples, histogram
``_bucket``/``_sum``/``_count`` series with cumulative ``le`` buckets) so
the files are scrapeable by standard tooling, but the writer is
deliberately minimal — no timestamps, no exemplars.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.gpusim.counters import KernelProfile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "KERNEL_SECONDS_BUCKETS",
    "observe_kernel",
    "observe_kernel_profile",
    "observe_decomposition",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Fixed histogram buckets for modeled kernel/job durations (seconds).
#: Fixed — never derived from observed data — so bucket boundaries cannot
#: drift between runs and histograms stay byte-comparable.
KERNEL_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
    120.0,
)


def _format_value(value: float) -> str:
    """Render a sample value deterministically.

    Integer-valued samples render as integers (``40`` not ``40.0``);
    everything else uses ``repr``, Python's shortest round-trip float
    form.  ``+Inf``/``-Inf`` follow the Prometheus spelling.
    """
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"


class _Metric:
    """Shared name/help/label plumbing of the three metric kinds."""

    kind = ""

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names

    def _key(self, labels: Mapping[str, str]) -> LabelKey:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter(_Metric):
    """A monotonically increasing count (events, jobs, chunks, bytes)."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be non-negative) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current count of the labelled series (0 when never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def _samples(self) -> Iterable[Tuple[str, str]]:
        for key in sorted(self._values):
            yield self.name + _render_labels(key), _format_value(self._values[key])


class Gauge(_Metric):
    """A point-in-time value (active devices, queue depth, utilization)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: Tuple[str, ...]) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to ``value`` (overwrites)."""
        self._values[self._key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0 when never set)."""
        return self._values.get(self._key(labels), 0.0)

    def _samples(self) -> Iterable[Tuple[str, str]]:
        for key in sorted(self._values):
            yield self.name + _render_labels(key), _format_value(self._values[key])


class Histogram(_Metric):
    """A fixed-bucket distribution (modeled seconds, sizes).

    Buckets are fixed at registration so two runs always histogram into
    identical boundaries.  Exposition is cumulative (Prometheus ``le``
    convention) with the implicit ``+Inf`` bucket, plus ``_sum`` and
    ``_count`` series.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing buckets, got {buckets}"
            )
        self.buckets = bounds
        # per label set: [count per finite bucket..., +Inf count], sum
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation of ``value`` into the labelled series."""
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels: str) -> int:
        """Total observations of the labelled series."""
        return sum(self._counts.get(self._key(labels), ()))

    def sum(self, **labels: str) -> float:
        """Sum of observed values of the labelled series."""
        return self._sums.get(self._key(labels), 0.0)

    def _samples(self) -> Iterable[Tuple[str, str]]:
        for key in sorted(self._counts):
            counts = self._counts[key]
            cumulative = 0
            for bound, n in zip(self.buckets, counts):
                cumulative += n
                le = ("le", _format_value(bound))
                yield (
                    self.name + "_bucket" + _render_labels(key, (le,)),
                    str(cumulative),
                )
            cumulative += counts[-1]
            yield (
                self.name + "_bucket" + _render_labels(key, (("le", "+Inf"),)),
                str(cumulative),
            )
            yield self.name + "_sum" + _render_labels(key), _format_value(self._sums[key])
            yield self.name + "_count" + _render_labels(key), str(cumulative)


class MetricsRegistry:
    """The one registry a run publishes into.

    Metric families are created on first use and type-checked on re-use
    (asking for an existing name with a different kind, labels, or
    buckets raises — two layers silently publishing incompatible series
    under one name is always a bug).  Export order is registration order.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is None:
            self._metrics[metric.name] = metric
            return metric
        if existing.kind != metric.kind or existing.label_names != metric.label_names:
            raise ValueError(
                f"metric {metric.name!r} already registered as a "
                f"{existing.kind} with labels {existing.label_names}"
            )
        if isinstance(metric, Histogram) and isinstance(existing, Histogram):
            if existing.buckets != metric.buckets:
                raise ValueError(
                    f"histogram {metric.name!r} already registered with "
                    f"buckets {existing.buckets}"
                )
        return existing

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        metric = self._register(Counter(name, help, tuple(labels)))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        metric = self._register(Gauge(name, help, tuple(labels)))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = KERNEL_SECONDS_BUCKETS,
    ) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        metric = self._register(Histogram(name, help, tuple(labels), buckets))
        assert isinstance(metric, Histogram)
        return metric

    @property
    def metrics(self) -> Tuple[str, ...]:
        """Registered family names, in registration order."""
        return tuple(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        """The family registered under ``name`` (``None`` when absent)."""
        return self._metrics.get(name)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self._metrics.values():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample, value in metric._samples():
                lines.append(f"{sample} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> None:
        """Write :meth:`to_prometheus` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus())


def observe_kernel(
    registry: MetricsRegistry,
    *,
    kernel: str,
    path: str,
    nnz: int,
    seconds: float,
) -> None:
    """Publish one unified-kernel launch into ``registry``.

    The shared instrumentation point of the three unified kernels:
    ``kernel`` names the operation (``spttm``/``spmttkrp``/``spttmc``),
    ``path`` the execution strategy chosen (``one-shot``/``streamed``/
    ``sharded``), ``seconds`` the modeled execution time.
    """
    labels = ("kernel", "path")
    registry.counter(
        "repro_kernel_launches_total",
        "Unified kernel launches by operation and execution path",
        labels,
    ).inc(kernel=kernel, path=path)
    registry.counter(
        "repro_kernel_nnz_total",
        "Non-zeros processed by unified kernel launches",
        labels,
    ).inc(nnz, kernel=kernel, path=path)
    registry.histogram(
        "repro_kernel_seconds",
        "Modeled execution seconds per unified kernel launch",
        labels,
        buckets=KERNEL_SECONDS_BUCKETS,
    ).observe(seconds, kernel=kernel, path=path)


def observe_kernel_profile(
    registry: MetricsRegistry, *, kernel: str, nnz: int, profile: KernelProfile
) -> None:
    """Publish one launch from its :class:`~repro.gpusim.counters.KernelProfile`.

    The single instrumentation call the three unified kernels make: the
    execution path is read off the profile itself
    (:attr:`~repro.gpusim.counters.KernelProfile.execution_path`), and the
    drivers' own ledgers supply the chunk/shard fan-out counters — so
    driver-level telemetry needs no extra plumbing through the driver
    signatures.
    """
    observe_kernel(
        registry,
        kernel=kernel,
        path=profile.execution_path,
        nnz=nnz,
        seconds=float(profile.estimated_time_s),
    )
    streaming, sharded = profile.streaming, profile.sharded
    if streaming is not None:
        registry.counter(
            "repro_stream_chunks_total",
            "Chunks executed by the out-of-core streamed driver",
            ("kernel",),
        ).inc(streaming.num_chunks, kernel=kernel)
    if sharded is not None:
        registry.counter(
            "repro_shards_total",
            "Device shards executed by the multi-GPU sharded driver",
            ("kernel",),
        ).inc(sharded.num_shards, kernel=kernel)
        # Streamed shards carry their own chunk ledgers.
        chunk_total = sum(
            shard.streaming.num_chunks
            for shard in sharded.shards
            if getattr(shard, "streaming", None) is not None
        )
        if chunk_total:
            registry.counter(
                "repro_stream_chunks_total",
                "Chunks executed by the out-of-core streamed driver",
                ("kernel",),
            ).inc(chunk_total, kernel=kernel)


def observe_decomposition(
    registry: MetricsRegistry,
    *,
    algorithm: str,
    iterations: int,
    makespan_s: float,
    recoveries: int = 0,
    recovery_overhead_s: float = 0.0,
) -> None:
    """Publish one decomposition run (CP-ALS / Tucker-HOOI)."""
    labels = ("algorithm",)
    registry.counter(
        "repro_decomposition_runs_total",
        "Decomposition driver runs",
        labels,
    ).inc(algorithm=algorithm)
    registry.counter(
        "repro_decomposition_iterations_total",
        "ALS/HOOI sweeps executed across decomposition runs",
        labels,
    ).inc(iterations, algorithm=algorithm)
    registry.histogram(
        "repro_decomposition_seconds",
        "Modeled makespan per decomposition run",
        labels,
        buckets=KERNEL_SECONDS_BUCKETS,
    ).observe(makespan_s, algorithm=algorithm)
    if recoveries:
        registry.counter(
            "repro_decomposition_recoveries_total",
            "Node-loss recoveries survived by decomposition runs",
            labels,
        ).inc(recoveries, algorithm=algorithm)
        registry.counter(
            "repro_decomposition_recovery_seconds_total",
            "Modeled re-staging seconds spent recovering from node loss",
            labels,
        ).inc(recovery_overhead_s, algorithm=algorithm)
