"""Experiment harness: one runner per table/figure of the paper's evaluation.

Every runner builds the relevant workloads from :mod:`repro.data`, executes
the unified kernels and the baselines on the simulated devices, and returns
a result object with the same rows/series the paper reports plus a
``render()`` method producing a plain-text table.  ``python -m repro``
renders them (:mod:`repro.cli`), and the ``paper`` regression suite
(:mod:`repro.bench.paper`) makes the same runs and gates the paper's claims
on them as zero-tolerance counts
(``python -m repro.bench.regression --check --suite paper``).

Runner ↔ paper mapping
----------------------
========================  ==============================  ===============================
module                    runner                          paper artefact
========================  ==============================  ===============================
``storage``               :func:`run_table2`              Table II — COO vs F-COO storage
``platform``              :func:`platform_report`         Table III — platform
``datasets_table``        :func:`run_table4`              Table IV — datasets
``tuning``                :func:`run_fig5`                Figure 5 — (BLOCK_SIZE,
                                                          threadlen) tuning
``tuning``                :func:`run_table5`              Table V — best launch parameters
``speedups``              :func:`run_fig6a`               Figure 6a — SpTTM speedup over
                                                          ParTI-omp
``speedups``              :func:`run_fig6b`               Figure 6b — SpMTTKRP speedup
                                                          over ParTI-omp
``modes``                 :func:`run_fig7`                Figure 7 — mode behaviour on
                                                          brainq
``ranks``                 :func:`run_fig8`                Figure 8 — rank behaviour of
                                                          SpTTM
``memory``                :func:`run_fig9`                Figure 9 — GPU memory for
                                                          SpMTTKRP
``cp_bench``              :func:`run_fig10`               Figure 10 — CP decomposition
                                                          breakdown
``streaming``             :func:`run_streaming`           Section IV-D streams —
                                                          out-of-core overlap (extension)
``scaling``               :func:`run_scaling`             multi-GPU strong scaling
                                                          (extension)
``scaling``               :func:`run_weak_scaling`        multi-GPU weak scaling
                                                          (extension)
``scaling``               :func:`run_multinode_scaling`   multi-node scaling with
                                                          hierarchical collectives
                                                          (extension)
``scaling``               :func:`collect_scaling_trace`   the sharded kernels' timeline
                                                          (``scaling --trace``)
``serving``               :func:`run_serving`             multi-tenant serving over the
                                                          simulated cluster (extension)
``paper``                 :func:`run_fusion_ablation`     Section IV-D kernel fusion
                                                          ablation (extension)
========================  ==============================  ===============================

Three more modules gate changes rather than reproduce a figure:
:mod:`repro.bench.regression` (the CI gate over the simulated-time
``BENCH_*.json`` suites), :mod:`repro.bench.paper` (its ``paper`` suite:
the runs above, the paper's claims about them and the modeled seconds of
the extension runs) and :mod:`repro.bench.wallclock` (its wall-clock
suite).
"""

from repro.bench.platform import platform_report
from repro.bench.storage import Table2Result, run_table2
from repro.bench.datasets_table import run_table4
from repro.bench.tuning import Fig5Result, Table5Result, run_fig5, run_table5
from repro.bench.speedups import Fig6Result, run_fig6a, run_fig6b
from repro.bench.modes import Fig7Result, run_fig7
from repro.bench.ranks import Fig8Result, run_fig8
from repro.bench.memory import Fig9Result, run_fig9
from repro.bench.cp_bench import Fig10Result, run_fig10
from repro.bench.streaming import StreamingResult, run_streaming
from repro.bench.scaling import (
    MultiNodeScalingResult,
    ScalingResult,
    collect_scaling_trace,
    run_multinode_scaling,
    run_scaling,
    run_weak_scaling,
)
from repro.bench.serving import run_serving

__all__ = [
    "platform_report",
    "Table2Result",
    "run_table2",
    "run_table4",
    "Fig5Result",
    "Table5Result",
    "run_fig5",
    "run_table5",
    "Fig6Result",
    "run_fig6a",
    "run_fig6b",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
    "Fig9Result",
    "run_fig9",
    "Fig10Result",
    "run_fig10",
    "StreamingResult",
    "run_streaming",
    "ScalingResult",
    "collect_scaling_trace",
    "run_scaling",
    "run_weak_scaling",
    "MultiNodeScalingResult",
    "run_multinode_scaling",
    "run_serving",
]
