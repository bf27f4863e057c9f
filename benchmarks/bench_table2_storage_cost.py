"""Table II: storage cost of COO vs F-COO for SpTTM and SpMTTKRP.

Regenerates the per-non-zero byte costs for every dataset and checks the
paper's headline numbers: 16 B/nnz for COO, ~8.1 B/nnz for F-COO under
SpTTM and ~12.1 B/nnz under SpMTTKRP.
"""

import pytest

from bench_common import run_once
from repro.bench import run_table2


@pytest.mark.benchmark(group="table2")
def test_table2_storage_cost(benchmark):
    result = run_once(benchmark, run_table2)
    print()
    print(result.render())
    for row in result.rows:
        assert row.coo_bytes_per_nnz_measured == pytest.approx(16.0)
        if "SpTTM" in row.operation:
            assert row.fcoo_bytes_per_nnz_measured == pytest.approx(8.14, abs=0.05)
        else:
            assert row.fcoo_bytes_per_nnz_measured == pytest.approx(12.14, abs=0.05)
        assert row.reduction_factor > 1.3
