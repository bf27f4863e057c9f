"""Figure 7: mode behaviour of SpTTM and SpMTTKRP on brainq (rank 16).

Paper claim: the unified method's running time is essentially the same on
every mode, while ParTI-GPU (and SPLATT for MTTKRP) vary strongly because
their parallelism and locality depend on the mode being operated on.
"""

import pytest

from bench_common import run_once
from repro.bench import run_fig7


@pytest.mark.benchmark(group="fig7")
def test_fig7a_spttm_mode_behavior(benchmark):
    result = run_once(benchmark, run_fig7, "spttm", rank=16)
    print()
    print(result.render())
    assert len(result.rows) == 3
    # ParTI's worst mode is the one with the fewest fibers (mode 2 of brainq).
    parti_times = [r.parti_gpu_time_s for r in result.rows]
    assert max(parti_times) == parti_times[1]


@pytest.mark.benchmark(group="fig7")
def test_fig7b_spmttkrp_mode_behavior(benchmark):
    result = run_once(benchmark, run_fig7, "spmttkrp", rank=16)
    print()
    print(result.render())
    # The unified kernel is the least mode-sensitive implementation.
    assert result.variation("unified") < result.variation("parti_gpu")
    assert result.variation("unified") < result.variation("splatt")
    assert result.variation("unified") < 1.5
