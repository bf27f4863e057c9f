"""Observed-time feedback: the store closing ROADMAP item 5's loop.

The measurement substrate (PR 8) records what actually happened on the
simulated timeline — per-job execution seconds, per-resource queueing
delay, collective NIC waits.  This module folds those observations into
exponentially-decayed estimates the *policies* can consume:

* per-``(kernel, tensor content, device class)`` execution estimates —
  the adaptive :class:`~repro.serve.placement.Placer` blends them with
  the static roofline score, and the preprocessing cache re-ranks cached
  launch configs when the observed time drifts off the tuner's
  prediction;
* per-slot congestion scores (compute-lane queueing behind other
  tenants' jobs) — the adaptive placer penalises busy slots;
* per-node NIC congestion scores (collective queueing on the shared
  NIC) — node-local placement steers away from congested nodes.

Everything here is *simulated* seconds and plain dict folds: two runs
observing the same schedule produce byte-identical stores, so the
adaptive policies stay as deterministic as the static ones.  Keys use
the same ``content_key`` as the preprocessing cache, so tenants
submitting the same tensor share observations exactly as they share
encodings.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

__all__ = ["ObservationStore", "DECAY"]

#: EMA weight of the newest observation.  0.25 keeps roughly the last
#: handful of observations relevant — fast enough to follow workload
#: drift, slow enough that one outlier cannot flip a placement.
DECAY = 0.25

ExecKey = Tuple[str, str, str]


class ObservationStore:
    """Exponentially-decayed execution and congestion estimates.

    One store per :class:`~repro.serve.engine.ServingEngine`: it persists
    across ``run()`` calls (like the preprocessing cache), so a second
    run of a drifted workload places with the first run's observations.
    """

    def __init__(self) -> None:
        # (kernel, content_key, device name) -> EMA of observed exec seconds
        self._exec: Dict[ExecKey, float] = {}
        # cluster slot -> EMA of compute-lane queueing seconds
        self._slot_congestion: Dict[int, float] = {}
        # node index -> EMA of collective NIC-wait seconds
        self._node_congestion: Dict[int, float] = {}
        self._count = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _fold(self, table: Dict, key, value: float) -> None:
        old = table.get(key)
        if old is None:
            table[key] = float(value)
        else:
            table[key] = (1.0 - DECAY) * old + DECAY * float(value)

    def record(
        self,
        *,
        kind: str,
        content_key: str,
        device_names: Iterable[str],
        slots: Iterable[int],
        nodes: Iterable[int],
        exec_s: float,
        device_wait_s: float,
        nic_wait_s: float,
    ) -> None:
        """Fold one completed job into the estimates.

        ``exec_s`` is the job's modeled kernel time, ``device_wait_s``
        the seconds it queued for its compute lanes behind other jobs,
        ``nic_wait_s`` the seconds its collectives queued on shared
        link/NIC resources.  ``device_names``/``slots``/``nodes`` name
        where it ran — sharded jobs fold into every member.
        """
        for name in device_names:
            self._fold(self._exec, (kind, content_key, name), exec_s)
        for slot in slots:
            self._fold(self._slot_congestion, int(slot), device_wait_s)
        for node in nodes:
            self._fold(self._node_congestion, int(node), nic_wait_s)
        self._count += 1

    # ------------------------------------------------------------------ #
    # Queries (all return exact-zero / None on cold start, so consumers
    # can fall back to the static policy bit-for-bit)
    # ------------------------------------------------------------------ #
    def expected_exec_s(
        self, kind: str, content_key: str, device_name: str
    ) -> Optional[float]:
        """Observed exec-seconds estimate, or ``None`` when never seen."""
        return self._exec.get((kind, content_key, device_name))

    def expected_exec_any(self, kind: str, content_key: str) -> Optional[float]:
        """Device-agnostic estimate: the mean over every device class
        this (kernel, tensor) pair has run on, in sorted key order so the
        fold is deterministic.  ``None`` when never seen."""
        values = [
            self._exec[key]
            for key in sorted(self._exec)
            if key[0] == kind and key[1] == content_key
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def congestion_s(self, slot: int) -> float:
        """Observed compute-lane queueing on ``slot`` (0 when unseen)."""
        return self._slot_congestion.get(int(slot), 0.0)

    def node_congestion_s(self, node: int) -> float:
        """Observed collective NIC wait on ``node`` (0 when unseen)."""
        return self._node_congestion.get(int(node), 0.0)

    # ------------------------------------------------------------------ #
    def clone(self) -> "ObservationStore":
        """An independent copy (the engine's hedged trial runs record
        into a clone, so a discarded trial leaves no trace)."""
        other = ObservationStore()
        other._exec = dict(self._exec)
        other._slot_congestion = dict(self._slot_congestion)
        other._node_congestion = dict(self._node_congestion)
        other._count = self._count
        return other

    def __len__(self) -> int:
        """Number of recorded observations (0 == cold start)."""
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObservationStore(observations={self._count}, "
            f"exec_keys={len(self._exec)}, slots={len(self._slot_congestion)}, "
            f"nodes={len(self._node_congestion)})"
        )
