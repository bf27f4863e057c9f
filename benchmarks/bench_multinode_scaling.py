"""Multi-node scaling of the hierarchically sharded unified kernels.

The multi-GPU benchmark stops at one node; this extension benchmark grows
the *node count* of a two-tier cluster (intra-node P2P vs inter-node NIC,
:func:`repro.bench.scaling.run_multinode_scaling`) and checks the
structural invariants: the one-node baseline is exact (speedup 1),
node-level efficiency stays a true fraction and decays with the node
count, and — the tentpole property — the modeled hierarchical collective
is never costlier than the topology-oblivious flat ring when the NIC is
the slower tier.
"""

import pytest

from bench_common import run_once
from repro.bench.scaling import run_multinode_scaling


@pytest.mark.benchmark(group="multinode")
def test_multinode_scaling(benchmark):
    result = run_once(benchmark, run_multinode_scaling, rank=16)
    print()
    print(result.render())

    for op in ("spttm", "spmttkrp", "spttmc"):
        curve = result.rows_for(op, "brainq")
        assert [r.num_nodes for r in curve] == [1, 2, 4], op
        baseline = curve[0]
        assert baseline.speedup == pytest.approx(1.0)
        assert baseline.efficiency == pytest.approx(1.0)
        for row in curve[1:]:
            # Node-level parallel efficiency is a true fraction.
            assert 0.0 < row.efficiency <= 1.0, (op, row.num_nodes)
            # The tentpole: the selected collective never loses to the
            # flat ring (the default NIC is the slower tier here).
            assert row.reduction_s <= row.flat_reduction_s + 1e-15, (
                op,
                row.num_nodes,
                row.reduction_s,
                row.flat_reduction_s,
            )
        efficiencies = [r.efficiency for r in curve]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(efficiencies, efficiencies[1:])
        ), (op, efficiencies)

    # The all-reduce kernels genuinely exercise the hierarchical schedule.
    assert any(
        row.reduction_algorithm == "hierarchical"
        for row in result.rows
        if row.operation in ("spmttkrp", "spttmc") and row.num_nodes > 1
    )
