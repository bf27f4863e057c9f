"""The benchmark's seeds (no imports, so ``run.py`` reads them before NumPy
loads)."""

#: The default workload seed, and the seed held out for confirming a claimed
#: gain on inputs not used while writing the change.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: Seed of the serving workloads' job mix on every seed but the held-out one.
MIX_SEED = 2017


def mix_seed(seed: int) -> int:
    """The serving job-mix seed for workload seed ``seed``.

    Fixed, so runs on different seeds do the same work, except on the
    held-out seed: there the mix (tensors, kinds, ranks, modes, the chaos
    event) is drawn from the seed too, so a claim confirmed on it has seen
    tensors that were not used while writing the change.
    """
    return seed if seed == HELD_OUT_SEED else MIX_SEED
