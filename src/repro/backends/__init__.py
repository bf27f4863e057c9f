"""Pluggable numeric-execution backends for the unified kernels.

A :class:`~repro.backends.base.Backend` supplies the numeric primitives the
unified kernels are written against (segment reduction, per-non-zero
products, dense CP/Tucker updates).  Two implementations ship:

* ``"reference"`` — the original strictly-sequential numpy path
  (``np.add.at`` + per-mode product loops).  This *defines* the
  repository's canonical numeric order.
* ``"vectorized"`` — the reference's products, summed by a SciPy CSR
  product in fixed cache-sized blocks; a segment that crosses a block
  boundary carries its running sum into the next block.  SciPy adds each
  row's ``data * x`` in column order starting from ``0.0``, which is
  ``np.add.at``'s order, and a carried sum re-enters as ``0.0 + carry ==
  carry``.  The data is ``1.0`` except in the Kronecker sums (SpTTMc's,
  and those over HOOI's fiber rows), where it is the factor entry of the
  reference's last stage, which the blocks then never form; SciPy rounds
  each ``data * x`` before it adds it (no fused multiply-add).  So it is
  bit-identical to the reference by construction (signed zeros included),
  and ≥2× faster on uniform and power-law SpMTTKRP (see
  ``repro.bench.wallclock``).

Selection, in precedence order:

1. ``ExecContext(backend="vectorized")`` (or a :class:`Backend` instance);
2. the ``REPRO_BACKEND`` environment variable (read at call time, which is
   what the CI backend-matrix axis and the CLI ``--backend`` flag set);
3. the default, ``"reference"``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

from repro.backends.base import Backend
from repro.backends.reference import ReferenceBackend
from repro.backends.vectorized import VectorizedBackend

__all__ = [
    "Backend",
    "ReferenceBackend",
    "VectorizedBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
]

#: Environment variable consulted when no backend is given explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Name used when neither an explicit spec nor the environment selects one.
DEFAULT_BACKEND = "reference"

#: Singleton registry; backends are stateless so instances are shared.
BACKENDS: Dict[str, Backend] = {
    ReferenceBackend.name: ReferenceBackend(),
    VectorizedBackend.name: VectorizedBackend(),
}


def available_backends() -> tuple:
    """Registered backend names, in registration order."""
    return tuple(BACKENDS)


def get_backend(spec: Optional[Union[str, Backend]] = None) -> Backend:
    """Resolve a backend spec to a :class:`Backend` instance.

    ``None`` consults ``REPRO_BACKEND`` (defaulting to ``"reference"``), a
    string is looked up in the registry, and a :class:`Backend` instance
    passes through unchanged.
    """
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be a name or a Backend instance, got {type(spec).__name__}"
        )
    try:
        return BACKENDS[spec]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {spec!r} (available: {known})") from None
