"""In-memory span tracer for the benchmark's traced run.

The tracer wraps each layer's public entry points at the names their callers
look up (module attributes that hold the function, and the class attributes
of methods), records one span per call, and puts every original back on
:meth:`Tracer.remove`.  No ``src/`` code knows about it.

A span is ``[name, start, end, parent, job_id, note]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``job_id`` is set on
``execute_job`` spans and inherited by everything under them, and ``note`` is
a small per-layer count read from the call (non-zeros encoded, iterations
run, cache hit, ...).  A span's *self time* is its duration minus the time
its child spans cover, so the self times of all spans under a root add up to
the root's duration: the layers plus the root's own (untagged) time
reconcile with the total.  :func:`nesting_errors` checks that the spans form
the tree this assumes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Name of the root span the benchmark opens around one timed pass.
ROOT = "trace"

#: Backend methods whose first argument is the per-non-zero value stream.
BACKEND_NNZ_METHODS = (
    "segment_reduce",
    "slice_products",
    "kron_products",
    "hadamard_segment_sums",
    "kron_segment_sums",
)

#: Backend methods on small dense matrices (CP-ALS / Tucker updates).
BACKEND_DENSE_METHODS = ("dense_hadamard", "gram", "matmul")

#: Dense linear algebra counted only while an ``algorithms`` span is open.
DENSE_FUNCTIONS = ("svd", "pinv", "qr")

#: Every layer a span can be tagged with, in report order.
LAYERS = (
    "formats",
    "autotune",
    "model",
    "kernels.spttm",
    "kernels.spmttkrp",
    "kernels.spttmc",
    "kernels.sharded",
    "backends",
    "algorithms",
    "dense",
    "cache",
    "placement",
    "execute",
    "scheduler",
    "timeline",
    "obs",
)


def _nnz_of_result(args: Sequence[Any], result: Any) -> int:
    return int(result.nnz)


def _nnz_of_values(args: Sequence[Any], result: Any) -> int:
    return int(len(args[1]))  # ``(self, values, ...)``


def _no_nnz(args: Sequence[Any], result: Any) -> int:
    return 0


def _iterations(args: Sequence[Any], result: Any) -> int:
    return int(result.iterations)


# Cache notes tell the two lookups apart: 0/1 is an encoding miss/hit,
# 2/3 a tuner miss/hit (both methods return ``(value, hit, seconds)``).
def _encode_lookup(args: Sequence[Any], result: Any) -> int:
    return int(bool(result[1]))


def _tuner_lookup(args: Sequence[Any], result: Any) -> int:
    return 2 + int(bool(result[1]))


class Tracer:
    """Records spans for calls into the wrapped layers while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Span recording
    # ------------------------------------------------------------------ #
    def _traced(
        self,
        fn: Callable,
        name: str,
        *,
        note: Optional[Callable[[Sequence[Any], Any], int]] = None,
        job_of: Optional[Callable[[Sequence[Any]], Any]] = None,
        only_inside: Optional[str] = None,
    ) -> Callable:
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if only_inside is not None and not open_.get(only_inside):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if job_of is not None:
                job = job_of(args)
            else:
                job = spans[parent][4] if parent >= 0 else None
            record = [name, 0.0, 0.0, parent, job, None]
            stack.append(len(spans))
            spans.append(record)
            open_[name] = open_.get(name, 0) + 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                open_[name] -= 1
            if note is not None:
                record[5] = note(args, result)
            return result

        return traced

    @contextmanager
    def root(self) -> Iterator[None]:
        """Open a root span around one timed pass."""
        record = [ROOT, 0.0, 0.0, -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, name: str, **kw: Any) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._traced(raw.__func__, name, **kw)))
        else:
            self._patch(cls, attr, self._traced(raw, name, **kw))

    def _wrap_function(self, fn: Callable, name: str, **kw: Any) -> None:
        """Replace ``fn`` under every ``repro`` module name that holds it."""
        wrapper = self._traced(fn, name, **kw)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer's entry points (see the layer table in README)."""
        import numpy.linalg

        import repro.autotune
        from repro.algorithms.cp import cp_als
        from repro.algorithms.tucker import tucker_hooi
        from repro.backends.base import Backend
        from repro.backends.reference import ReferenceBackend
        from repro.backends.vectorized import VectorizedBackend
        from repro.formats.fcoo import FCOOTensor
        from repro.gpusim.timeline import Timeline
        from repro.kernels.unified._model import unified_kernel_counters
        from repro.kernels.unified.sharded import execute_sharded
        from repro.kernels.unified.spmttkrp import unified_spmttkrp
        from repro.kernels.unified.spttm import unified_spttm
        from repro.kernels.unified.spttmc import unified_spttmc
        from repro.obs.attribution import attribute
        from repro.obs.events import EventLog
        from repro.serve.cache import PreprocCache
        from repro.serve.engine import publish_serving_metrics
        from repro.serve.execute import execute_job
        from repro.serve.placement import Placer
        from repro.serve.scheduler import Scheduler

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._wrap_method(FCOOTensor, "from_sparse", "formats", note=_nnz_of_result)
        self._wrap_function(repro.autotune.tune_unified, "autotune")
        self._wrap_function(unified_kernel_counters, "model")
        self._wrap_function(unified_spttm, "kernels.spttm")
        self._wrap_function(unified_spmttkrp, "kernels.spmttkrp")
        self._wrap_function(unified_spttmc, "kernels.spttmc")
        self._wrap_function(execute_sharded, "kernels.sharded")
        for cls in (Backend, ReferenceBackend, VectorizedBackend):
            for attr in BACKEND_NNZ_METHODS + BACKEND_DENSE_METHODS:
                if attr in cls.__dict__:
                    note = _nnz_of_values if attr in BACKEND_NNZ_METHODS else _no_nnz
                    self._wrap_method(cls, attr, "backends", note=note)
        self._wrap_function(cp_als, "algorithms", note=_iterations)
        self._wrap_function(tucker_hooi, "algorithms", note=_iterations)
        for index, attr in enumerate(DENSE_FUNCTIONS):
            self._patch(
                numpy.linalg,
                attr,
                self._traced(
                    getattr(numpy.linalg, attr),
                    "dense",
                    note=lambda args, result, i=index: i,
                    only_inside="algorithms",
                ),
            )
        self._wrap_method(PreprocCache, "encoding", "cache", note=_encode_lookup)
        self._wrap_method(PreprocCache, "tuner_config", "cache", note=_tuner_lookup)
        self._wrap_method(Placer, "place", "placement")
        self._wrap_function(
            execute_job, "execute", job_of=lambda args: args[0].job_id
        )
        self._wrap_method(Scheduler, "run", "scheduler")
        for attr, kind in (
            ("book", 0),
            ("book_together", 0),
            ("release", 1),
            ("truncate", 1),
        ):
            self._wrap_method(
                Timeline, attr, "timeline", note=lambda args, result, k=kind: k
            )
        self._wrap_function(attribute, "obs")
        self._wrap_function(publish_serving_metrics, "obs")
        self._wrap_method(EventLog, "emit", "obs", note=lambda args, result: 1)
        return self

    def remove(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def pass_spans(self, first: int, last: int) -> List[list]:
        """Copies of ``spans[first:last]`` with parents re-indexed from 0."""
        return [
            [name, start, end, parent - first if parent >= 0 else -1, job, note]
            for name, start, end, parent, job, note in self.spans[first:last]
        ]


def write_spans(path: str, spans: Sequence[list]) -> None:
    """Write ``spans`` as JSON lines, times relative to the first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as out:
        for name, start, end, parent, job, note in spans:
            out.write(
                json.dumps(
                    {
                        "name": name,
                        "start_s": start - origin,
                        "end_s": end - origin,
                        "parent": parent,
                        "job": job,
                        "note": note,
                    }
                )
                + "\n"
            )


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it, as ``(percentile, value)``; the median below forty samples."""
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        return 50.0, 0.0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if values.size * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(values, pct))
    return 50.0, float(np.percentile(values, 50.0))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    return self_s


def nesting_errors(spans: Sequence[list], tolerance_s: float = 1e-9) -> int:
    """Spans of one traced pass that break the tree the self times assume.

    The self times always add up to the root's duration, whatever the tree
    looks like, so the reconciliation identity alone cannot catch a broken
    wrapper.  This counts the spans that can: anything but the first span
    without a parent before it, a child whose interval is not inside its
    parent's or overlaps an earlier sibling's, and a span whose children
    cover more than its own duration.
    """
    errors = 0
    last_child_end: Dict[int, float] = {}
    for i, (name, start, end, parent, _job, _note) in enumerate(spans):
        if i == 0:
            errors += name != ROOT or parent != -1
        elif not 0 <= parent < i:
            errors += 1
        else:
            sibling_end = last_child_end.get(parent, spans[parent][1])
            errors += not sibling_end <= start <= end <= spans[parent][2]
            last_child_end[parent] = end
    errors += sum(s < -tolerance_s for s in self_times(spans))
    return errors


def layer_metrics(spans: Sequence[list], completed_jobs: int) -> Dict[str, float]:
    """Fold the spans of one traced pass (one root) into the per-layer
    metrics.  ``completed_jobs`` is the pass's completed job count."""
    n = len(spans)
    self_s = self_times(spans)
    # Parents precede children, so one forward sweep marks every span
    # nested under a tuner call.
    in_tuner = [False] * n
    for i, s in enumerate(spans):
        in_tuner[i] = s[0] == "autotune" or (s[3] >= 0 and in_tuner[s[3]])

    by_layer: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    notes: Dict[str, int] = {layer: 0 for layer in LAYERS}
    backend_entry_nnz = 0
    backend_entries = 0
    tuner_kernel_calls = 0
    tuner_total = svd_self = 0.0
    # [lookups, hits] per cache method, indexed by note // 2.
    cache_lookups = [[0, 0], [0, 0]]
    execute_durations: List[float] = []
    total = untagged = 0.0
    for i, (name, start, end, parent, _job, note) in enumerate(spans):
        if name == ROOT:
            total += end - start
            untagged += self_s[i]
            continue
        by_layer[name] += self_s[i]
        calls[name] += 1
        if note is not None:
            notes[name] += note
        parent_name = spans[parent][0] if parent >= 0 else ROOT
        if name == "backends" and parent_name != "backends":
            backend_entries += 1
            backend_entry_nnz += note or 0
        elif name.startswith("kernels.") and name != "kernels.sharded":
            tuner_kernel_calls += int(in_tuner[parent]) if parent >= 0 else 0
        elif name == "execute":
            execute_durations.append(end - start)
        elif name == "autotune" and (parent < 0 or not in_tuner[parent]):
            tuner_total += end - start
        elif name == "dense" and note == DENSE_FUNCTIONS.index("svd"):
            svd_self += self_s[i]
        elif name == "cache":
            cache_lookups[note // 2][0] += 1
            cache_lookups[note // 2][1] += note % 2

    p50 = float(np.median(execute_durations)) if execute_durations else 0.0
    _pct, tail = tail_percentile(execute_durations)
    metrics: Dict[str, float] = {
        "formats.calls": calls["formats"],
        "formats.self_s": by_layer["formats"],
        "formats.nnz": notes["formats"],
        "autotune.calls": calls["autotune"],
        "autotune.self_s": by_layer["autotune"],
        "autotune.kernel_calls": tuner_kernel_calls,
        "autotune.total_s": tuner_total,
        "model.calls": calls["model"],
        "model.self_s": by_layer["model"],
    }
    for kernel in ("spttm", "spmttkrp", "spttmc"):
        metrics[f"kernels.{kernel}.calls"] = calls[f"kernels.{kernel}"]
        metrics[f"kernels.{kernel}.self_s"] = by_layer[f"kernels.{kernel}"]
    metrics["kernels.sharded.self_s"] = by_layer["kernels.sharded"]
    metrics.update(
        {
            "backends.calls": backend_entries,
            "backends.self_s": by_layer["backends"],
            "backends.nnz": backend_entry_nnz,
            "algorithms.calls": calls["algorithms"],
            "algorithms.self_s": by_layer["algorithms"],
            "algorithms.iterations": notes["algorithms"],
            "dense.calls": calls["dense"],
            "dense.self_s": by_layer["dense"],
            "dense.svd_s": svd_self,
            "cache.self_s": by_layer["cache"],
            "cache.encode_hit_ratio": _ratio(*reversed(cache_lookups[0])),
            "cache.tuner_hit_ratio": _ratio(*reversed(cache_lookups[1])),
            "placement.calls": calls["placement"],
            "placement.self_s": by_layer["placement"],
            "execute.calls": calls["execute"],
            "execute.self_s": by_layer["execute"],
            "execute.calls_per_completed_job": _ratio(calls["execute"], completed_jobs),
            "execute.job_p50_s": p50,
            "execute.job_tail_s": tail,
            "scheduler.runs": calls["scheduler"],
            "scheduler.self_s": by_layer["scheduler"],
            # Timeline notes are 1 for a release or truncate, 0 for a book.
            "timeline.books": calls["timeline"] - notes["timeline"],
            "timeline.releases": notes["timeline"],
            "timeline.self_s": by_layer["timeline"],
            "obs.self_s": by_layer["obs"],
            "obs.events": notes["obs"],
            "trace.total_s": total,
            "trace.untagged_s": untagged,
            "trace.untagged_share": _ratio(untagged, total),
        }
    )
    return metrics
