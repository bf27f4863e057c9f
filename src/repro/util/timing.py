"""Small wall-clock timing helper.

The performance *results* reported by this reproduction come from the
simulated device models in :mod:`repro.gpusim` and :mod:`repro.cpusim`
(deterministic cost accounting), not from host wall-clock time.  ``Timer``
exists for users profiling the Python implementation itself, following the
"no optimisation without measuring" workflow of the scientific-python
optimisation guide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Timer"]


@dataclass
class Timer:
    """Accumulating wall-clock timer with named laps.

    Example
    -------
    >>> t = Timer()
    >>> with t.lap("encode"):
    ...     pass
    >>> "encode" in t.laps
    True
    """

    laps: Dict[str, float] = field(default_factory=dict)
    _order: List[str] = field(default_factory=list)

    class _Lap:
        def __init__(self, timer: "Timer", name: str):
            self._timer = timer
            self._name = name
            self._start: Optional[float] = None

        def __enter__(self) -> "Timer._Lap":
            self._start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb) -> None:
            assert self._start is not None
            elapsed = time.perf_counter() - self._start
            self._timer.add(self._name, elapsed)

    def lap(self, name: str) -> "Timer._Lap":
        """Return a context manager that accumulates elapsed time under ``name``."""
        return Timer._Lap(self, name)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to lap ``name`` (creating it if needed)."""
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        if name not in self.laps:
            self._order.append(name)
            self.laps[name] = 0.0
        self.laps[name] += float(seconds)

    @property
    def total(self) -> float:
        """Sum of all lap times in seconds."""
        return float(sum(self.laps.values()))

    def as_dict(self) -> Dict[str, float]:
        """Return lap times in insertion order."""
        return {name: self.laps[name] for name in self._order}
