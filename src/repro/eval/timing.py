"""Small timing and reporting helpers shared by benchmarks and the CLI."""

from __future__ import annotations

import time
from typing import Callable, Dict, Sequence, Tuple

__all__ = ["Timer", "time_call", "format_series_table"]


class Timer:
    """Context manager measuring wall-clock seconds.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def time_call(fn: Callable, *args, repeat: int = 1, **kwargs) -> Tuple[float, object]:
    """Best-of-``repeat`` wall time of ``fn(*args, **kwargs)`` plus its result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def format_series_table(
    x_name: str,
    x_values: Sequence,
    series: Dict[str, Sequence[float]],
    value_format: str = "{:>12.4f}",
) -> str:
    """Render aligned rows of ``x`` against several named series.

    This is the shape every figure of the paper reduces to (an x-axis sweep
    with one line per technique), so all benchmark harnesses print through
    it.
    """
    names = list(series)
    header = f"{x_name:>10}" + "".join(f"{n:>14}" for n in names)
    lines = [header, "-" * len(header)]
    for i, x in enumerate(x_values):
        cells = []
        for n in names:
            vals = series[n]
            cells.append(
                value_format.format(vals[i]).rjust(14)
                if i < len(vals) else " " * 14
            )
        lines.append(f"{str(x):>10}" + "".join(cells))
    return "\n".join(lines)
