"""Measurement helpers shared by the perf harness: the speed probe,
percentiles, round-based timing, RSS and the provenance block."""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A percentile is only reported when at least this many samples lie beyond
#: it (choosing-metrics guide); the smoke scale lowers it, nothing else does.
MIN_BEYOND = 10

now = time.perf_counter

#: What one probe takes on the reference box when nothing disturbs it.
PROBE_NOMINAL_S = 0.00044
_PROBE_ARRAY = numpy.arange(256.0)


def probe(repeat: int = 1) -> float:
    """Seconds one fixed unit of interpreter and small-array work takes
    right now (the median of ``repeat`` units).

    The shared host slows the whole VM down by up to 2x for seconds to
    minutes at a time — slower execution, not lost time slices, so neither
    medians within a run nor CPU clocks see through it.  The probe is the
    same kind of work the library does (bytecode, short numpy calls) and
    slows down with it, which lets every timing be restated at the probe's
    nominal speed (:class:`Stopwatch`).
    """
    a = _PROBE_ARRAY
    units = []
    for _ in range(repeat):
        t0 = now()
        total = 0.0
        for i in range(100):
            b = a * 1.0001 + i
            total += float(numpy.minimum(b, a).sum())
            [j * j for j in range(20)]
        units.append(now() - t0)
    return statistics.median(units)


class Stopwatch:
    """Times calls and restates them at the probe's nominal speed.

    A probe runs after every timed call; the call's slowdown is the mean
    of the probes on either side of it over :data:`PROBE_NOMINAL_S`.
    ``raw`` and ``seconds`` accumulate what was measured and what is
    reported, so a result can say how much it was corrected.
    """

    def __init__(self, repeat: int = 1):
        self.repeat = repeat
        self.last = probe(repeat)
        self.raw = 0.0
        self.seconds = 0.0

    def time(self, fn: Callable[[], object]) -> tuple:
        """``(fn(), seconds at nominal speed)``."""
        t0 = now()
        result = fn()
        raw = now() - t0
        after = probe(self.repeat)
        seconds = raw * 2.0 * PROBE_NOMINAL_S / (self.last + after)
        self.last = after
        self.raw += raw
        self.seconds += seconds
        return result, seconds

    @property
    def slowdown(self) -> float:
        return self.raw / self.seconds if self.seconds else 1.0


def percentile(samples: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation.

    Refuses (``ValueError``) a percentile with fewer than ``min_beyond``
    samples beyond it on its thinner side, so a tail figure is never read
    off a handful of points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be inside (0, 1), got {q}")
    n = len(samples)
    beyond = math.floor(n * min(q, 1.0 - q))
    if n == 0 or beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} needs >= {min_beyond} samples beyond it; "
            f"{n} samples leave {beyond}"
        )
    return float(numpy.percentile(samples, q * 100.0))


class Rounds:
    """Per-op latencies of one op list executed for several rounds.

    The same ops run again every round, so each op's latency is the median
    over its rounds and the round wall is the median round: a burst of
    noise from a neighbour on the shared cores spoils one round, not the
    figure.  All times are at nominal speed (:class:`Stopwatch`); a round's
    wall is the sum of its ops, so probes and loop overhead stay out of it.
    """

    def __init__(self, kinds: Sequence[str]):
        self.kinds = list(kinds)
        self.samples: List[List[float]] = [[] for _ in kinds]
        self.walls: List[float] = []
        self.raw_seconds = 0.0           # the ops of all rounds, as measured
        self.slowdown = 1.0              # measured / reported

    def latencies_ms(self, kind: Optional[str] = None) -> List[float]:
        return [
            statistics.median(s) * 1000.0
            for s, k in zip(self.samples, self.kinds)
            if s and (kind is None or k == kind)
        ]

    @property
    def wall(self) -> float:
        return statistics.median(self.walls)


def run_rounds(ops: Sequence[Callable[[], object]], kinds: Sequence[str],
               seconds: float, min_rounds: int = 2) -> tuple:
    """Run ``ops`` in whole rounds until ``seconds`` have passed (at least
    ``min_rounds``).  Returns ``(Rounds, answers of the first round)``."""
    rounds = Rounds(kinds)
    first: List[object] = []
    watch = Stopwatch()
    start = now()
    while len(rounds.walls) < min_rounds or now() - start < seconds:
        wall = 0.0
        for i, op in enumerate(ops):
            answer, took = watch.time(op)
            rounds.samples[i].append(took)
            wall += took
            if not rounds.walls:
                first.append(answer)
        rounds.walls.append(wall)
    rounds.raw_seconds = watch.raw
    rounds.slowdown = watch.slowdown
    return rounds, first


def time_call(fn: Callable[[], object], seconds: float = 0.15) -> float:
    """Stand-alone cost of one call in microseconds: the best of repeated
    short batches (a *direct* per-layer metric)."""
    fn()
    best = float("inf")
    calls = 1
    end = now() + seconds
    while now() < end:
        t0 = now()
        for _ in range(calls):
            fn()
        elapsed = now() - t0
        best = min(best, elapsed / calls)
        if elapsed < 0.005:
            calls *= 2
    return best * 1e6


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its waited-for children) in
    MB; ``ru_maxrss`` is kilobytes on Linux."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, backend: str, sizes: Dict[str, object]) -> dict:
    """Where, on what and with which inputs a result was measured."""
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "sizes": sizes,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend,
        "numba_present": importlib.util.find_spec("numba") is not None,
    }
