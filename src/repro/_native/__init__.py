"""Optional compiled (``"native"``) backend — numba-jitted DP kernels.

This package is the third realization of the dual-backend contract (see
DESIGN.md, "Native kernel tier") for the kernels the index runs — the
EDwP family and the Theorem-2 box bound: the same dynamic programs as the
``"python"`` reference and the ``"numpy"`` anti-diagonal kernels, written
as scalar loops that `numba <https://numba.pydata.org>`_ compiles to
machine code with ``@njit(cache=True)``.

numba is an *optional* dependency (``pip install .[native]``).  Nothing in
this package — and nothing in ``repro`` — imports numba at package import
time:

* :func:`numba_available` probes for numba with ``importlib.util.find_spec``
  (no import) and memoizes the answer; backend selection
  (:mod:`repro.core.backend`, the only module that imports this package)
  consults it and raises the typed
  :class:`~repro.core.backend.NativeBackendUnavailableError` when
  ``"native"`` is requested without numba installed.
* :mod:`repro._native.api` is imported on the first native resolution
  (:func:`repro.core.backend.tier_kernel`).  Importing that module
  imports numba (when present) but does not compile anything; each kernel
  JIT-compiles on first call and the compiled code is persisted by
  numba's on-disk cache.
* Without numba the kernels degrade to their plain-Python definitions (an
  identity ``njit`` shim), which is how the differential tests exercise
  the kernel *logic* on numba-less machines.

The memoized probe result lives in the module global ``_AVAILABLE`` so
tests can monkeypatch numba's absence without uninstalling anything.
"""

from __future__ import annotations

import importlib.util
from typing import Optional

__all__ = ["numba_available", "warmup"]

#: Memoized availability probe; ``None`` means "not probed yet".  Tests
#: monkeypatch this to simulate a numba-less environment.
_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether numba is installed (probed once, without importing it)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        _AVAILABLE = importlib.util.find_spec("numba") is not None
    return bool(_AVAILABLE)


def warmup() -> None:
    """Force-compile every native kernel on tiny inputs.

    Benchmarks call this before timing so JIT compilation (or the
    on-disk-cache load) never lands inside a measured region.  A no-op
    waste of microseconds when numba is absent.
    """
    from . import api
    api.warmup()
