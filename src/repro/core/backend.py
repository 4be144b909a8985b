"""The distance-backend switch and the one kernel-tier table behind it.

Every distance in the package is a reference loop — the ``"python"`` tier:
the readable cell-by-cell DP beside its docstring, and the oracle the
test-suite compares against — that the ``"numpy"`` tier may replace with
the anti-diagonal / lockstep-batched kernels of
:mod:`repro.core.edwp_fast` and :mod:`repro.baselines.fast` (every
dual-backend distance has one).
There is no compiled tier (DESIGN.md, "Compiled tier: deleted").

The numpy tier declares its kernels once, next to them, as a module-level
``KERNELS`` dict (``op -> callable``).  :func:`tier_kernel` is the one
lookup every dispatching function uses and the one place the fallback
order **numpy → reference loop** is written.  The switch itself
(:func:`set_backend`, :func:`use_backend`, a per-call ``backend=``) is
re-exported from :mod:`repro.core.edwp`, :mod:`repro.core` and
:mod:`repro`.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = [
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "tier_kernel",
    "BACKENDS",
    "BackendError",
    "UnknownBackendError",
]

#: The backend names a caller can select.
BACKENDS = ("python", "numpy")


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
            f"unknown backend {name!r}; choose from {BACKENDS}"
        )


def _check_backend(name: str) -> None:
    """Validate a backend name at selection time, with a typed error."""
    if name not in BACKENDS:
        raise UnknownBackendError(name)


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

    Raises :class:`UnknownBackendError` (a ``ValueError``) for a name this
    package does not know.
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
    selectable backend (same typed error as :func:`set_backend`).
    """
    if backend is None:
        return _active_backend
    _check_backend(backend)
    return backend


#: The modules in which the numpy tier declares its ``KERNELS``.  They are
#: imported on first use, not here: ``repro.baselines.fast`` loads through
#: its package's ``__init__``, which imports the dispatchers
#: (``baselines/dtw.py``, ...), which import :func:`tier_kernel` from this
#: still-initialising module.
_NUMPY_MODULES = ("repro.core.edwp_fast", "repro.baselines.fast")

#: ``backend -> {op: kernel}``.  The reference tier has no kernels.
_tables: Dict[str, Dict[str, Callable]] = {"python": {}}


def _table(backend: str) -> Dict[str, Callable]:
    table = _tables.get(backend)
    if table is None:
        table = {}
        for module in _NUMPY_MODULES:
            table.update(importlib.import_module(module).KERNELS)
        _tables[backend] = table
    return table


def tier_kernel(op: str, backend: Optional[str]) -> Optional[Callable]:
    """The kernel that runs ``op`` under ``backend`` (``None`` = the global
    choice; typed error as :func:`resolve_backend`), or ``None`` when the
    caller's own reference loop is what runs.

    A kernel takes what its dispatching function takes once the base cases
    are peeled (see each numpy module's ``KERNELS``).
    """
    return _table(resolve_backend(backend)).get(op)
