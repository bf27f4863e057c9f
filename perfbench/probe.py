"""A fixed CPU probe that reads the host's current speed.

On a shared host the speed of one core drifts by up to 1.6x over minutes
(README, Noise), which moves every wall time the benchmark measures by as
much, and no amount of repetition inside one run removes it.  The probe is a
fixed piece of work that uses nothing from the program: interpreted Python
(calls, dict and list updates) and small NumPy operations (sort, gather,
scatter-add, prefix sums), the two kinds of work the workloads spend their
time on.  Timed beside every measured interval, it gives the host's speed at
that moment, and :func:`host_factor` scales the interval to a reference host.

A change to the program does not move the probe, so a scaled time still
moves with the program's own speed.
"""

from __future__ import annotations

import time

import numpy as np

#: The :func:`probe` time that defines the reference host: a scaled time is
#: in seconds of a host on which the probe takes this long.  It is close to
#: the median probe on a 2-core Intel Xeon at 2.0 GHz (Python 3.11, NumPy
#: 2.4, one BLAS thread), whose probe ranged 0.08-0.13 s over an hour.
PROBE_REF_S = 0.1

_N = 20_000
_RNG = np.random.default_rng(12345)
_KEYS = _RNG.integers(0, 2_000, size=_N)
_VALUES = _RNG.random(_N)
_PERM = _RNG.permutation(_N)


def _python_work(rounds: int) -> int:
    table: dict = {}
    items: list = []
    total = 0
    for i in range(rounds):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        if len(items) > 64:
            total += sum(k for k, _ in items)
            items.clear()
    return total + len(table)


def _numpy_work(rounds: int) -> float:
    acc = 0.0
    for _ in range(rounds):
        order = np.argsort(_KEYS, kind="stable")
        gathered = _VALUES[_PERM][order]
        sums = np.zeros(2_000)
        np.add.at(sums, _KEYS[order], gathered)
        acc += float(np.cumsum(sums)[-1])
    return acc


def probe() -> float:
    """Seconds one fixed probe takes on the host right now."""
    start = time.perf_counter()
    _python_work(120_000)
    _numpy_work(32)
    return time.perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """How much slower than the reference host the host ran over an
    interval, from the probes timed just before and just after it."""
    return 0.5 * (before + after) / PROBE_REF_S
