"""Tracing is observation-only.

Runs each workload at a tiny size with and without the tracer and checks
that outputs and the simulated metrics are identical, that the spans nest
and their self times reconcile with the root, and that every wrapper is
removed afterwards.
Not collected by the repository's test suite; run it by name::

    python3 -m pytest perfbench/tracing_check.py
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from tracer import Tracer, layer_metrics, nesting_errors  # noqa: E402
from workloads import build_workloads  # noqa: E402

WORKLOADS = build_workloads(scale=0.1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_observation_only(name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("REPRO_BACKEND", "vectorized")
    workload = WORKLOADS[name]
    state = workload.setup(3)
    plain = workload.run(state, workload.prepare(state))

    tracer = Tracer()
    engine = workload.prepare(state)
    tracer.install()
    patched = list(tracer._patches)
    try:
        with tracer.root():
            traced = workload.run(state, engine)
    finally:
        tracer.remove()

    assert workload.differences(plain, traced) == 0
    assert workload.simulated(plain) == workload.simulated(traced)

    assert patched and not tracer.installed
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)

    assert nesting_errors(tracer.spans) == 0
    metrics = layer_metrics(tracer.spans, workload.completed(traced))
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_s + metrics["trace.untagged_s"] == pytest.approx(
        metrics["trace.total_s"], rel=1e-9, abs=1e-12
    )
    assert metrics["backends.calls"] > 0 and metrics["model.calls"] > 0
