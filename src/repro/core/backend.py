"""The distance-backend switch and the one kernel-tier table behind it.

Every distance in the package is a reference loop — the ``"python"`` tier:
the readable cell-by-cell DP beside its docstring, and the oracle the
test-suite compares against — that a faster tier may replace: ``"numpy"``
(the anti-diagonal / lockstep-batched kernels of
:mod:`repro.core.edwp_fast`, :mod:`repro.baselines.fast` and
:mod:`repro.index.fast_bounds`; every dual-backend distance has one) or
``"native"`` (the numba-compiled kernels of ``repro._native``: what the
index runs — the EDwP family and the Theorem-2 box bound — and selectable
only with numba installed; DESIGN.md, "Native kernel tier").

Each tier declares its kernels once, next to them, as a module-level
``KERNELS`` dict (``op -> callable``).  :func:`tier_kernel` is the one
lookup every dispatching function uses and the one place the fallback
order **native → numpy → reference loop** is written.  The switch itself
(:func:`set_backend`, :func:`use_backend`, a per-call ``backend=``) is
re-exported from :mod:`repro.core.edwp`, :mod:`repro.core` and
:mod:`repro`.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

from .. import _native

__all__ = [
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "tier_kernel",
    "available_backends",
    "BACKENDS",
    "KNOWN_BACKENDS",
    "BackendError",
    "UnknownBackendError",
    "NativeBackendUnavailableError",
]

#: Every backend name this package knows of, installed or not.  Selection
#: distinguishes a typo (:class:`UnknownBackendError`) from a missing
#: optional dependency (:class:`NativeBackendUnavailableError`).
KNOWN_BACKENDS = ("python", "numpy", "native")


def available_backends() -> tuple:
    """The backend names selectable *right now*: the pure-Python reference
    and the vectorized numpy kernels always, plus the compiled ``"native"``
    tier when numba is installed (``pip install .[native]``)."""
    return KNOWN_BACKENDS if _native.numba_available() else KNOWN_BACKENDS[:2]


#: The selectable backends, snapshotted at import time.  Harness loops
#: iterating ``BACKENDS`` therefore automatically cover the native tier on
#: machines that have it.
BACKENDS = available_backends()


class BackendError(ValueError):
    """A backend name could not be selected.

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    call sites (and tests matching on the message) keep working.
    """


class UnknownBackendError(BackendError):
    """The requested backend name is not one this package knows of."""

    def __init__(self, name: object):
        self.backend = name
        super().__init__(
            f"unknown backend {name!r}; choose from {available_backends()}"
        )


class NativeBackendUnavailableError(BackendError):
    """``"native"`` was requested but numba is not installed."""

    def __init__(self):
        self.backend = "native"
        super().__init__(
            'backend "native" requires numba, which is not installed '
            "(pip install .[native]); available backends: "
            f"{available_backends()}"
        )


def _check_backend(name: str) -> None:
    """Validate a backend name at selection time, with typed errors."""
    if name not in KNOWN_BACKENDS:
        raise UnknownBackendError(name)
    if name == "native" and not _native.numba_available():
        raise NativeBackendUnavailableError()


_active_backend = "python"


def get_backend() -> str:
    """Name of the globally active distance backend."""
    return _active_backend


def set_backend(name: str) -> str:
    """Select the global distance backend; returns the previous one.

    Affects every call that does not pass an explicit ``backend=`` —
    the EDwP family, every baseline comparator in
    :mod:`repro.baselines`, the distance registry, the batched matrix
    engine, TrajTree queries and the CLI.

    Raises :class:`UnknownBackendError` for a name this package does not
    know, and :class:`NativeBackendUnavailableError` when ``"native"`` is
    requested without numba installed (both ``ValueError`` subclasses).
    """
    global _active_backend
    _check_backend(name)
    previous = _active_backend
    _active_backend = name
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager running a block under a specific backend."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a per-call ``backend=`` override against the global choice.

    ``None`` means "follow :func:`set_backend`"; anything else must be a
    selectable backend (same typed errors as :func:`set_backend`).
    """
    if backend is None:
        return _active_backend
    _check_backend(backend)
    return backend


#: The modules in which each tier declares its ``KERNELS``; imported on the
#: tier's first resolution, so ``import repro`` never imports numba.
_TIER_MODULES = {
    "numpy": ("repro.core.edwp_fast", "repro.baselines.fast",
              "repro.index.fast_bounds"),
    "native": ("repro._native.api",),
}

#: ``tier -> {op: kernel}``.  The reference tier has no kernels.
_tables: Dict[str, Dict[str, Callable]] = {"python": {}}


def _table(tier: str) -> Dict[str, Callable]:
    table = _tables.get(tier)
    if table is None:
        # The fallback order: native starts from numpy's kernels and
        # overlays its own; numpy starts from nothing (= reference loops).
        table = dict(_table("numpy")) if tier == "native" else {}
        for module in _TIER_MODULES[tier]:
            table.update(importlib.import_module(module).KERNELS)
        _tables[tier] = table
    return table


def tier_kernel(op: str, backend: Optional[str]) -> Optional[Callable]:
    """The kernel that runs ``op`` under ``backend`` (``None`` = the global
    choice; typed errors as :func:`resolve_backend`), or ``None`` when the
    caller's own reference loop is what runs.

    A kernel takes what its dispatching function takes once the base cases
    are peeled (see each tier module's ``KERNELS``).
    """
    return _table(resolve_backend(backend)).get(op)
