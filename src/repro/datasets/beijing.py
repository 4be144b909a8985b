"""Synthetic Beijing-style taxi workload.

The paper evaluates on the T-Drive Beijing cab dataset (10k cabs over a
week, 42k trips after splitting) [18], which is not redistributable here.
This module builds the closest synthetic equivalent (see DESIGN.md's
substitution table): a fleet of taxis driving on a Manhattan-style grid road
network of Beijing-like extent, with

* trips that follow roads (turn-biased random walks between intersections),
* per-cab *and* per-segment speed variation,
* heterogeneous sampling intervals across cabs (the paper's motivating
  observation: drivers change the device sampling rate), and
* optional parked dwells and signal gaps, so the paper's 15-minute trip
  splitter has real work to do.

Everything is deterministic given the seed.  Coordinates are meters on a
local plane; timestamps are seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.trajectory import Trajectory

__all__ = ["BeijingConfig", "generate_beijing", "generate_cab_streams"]


@dataclass
class BeijingConfig:
    """Knobs of the synthetic taxi workload.

    Defaults produce city-scale trips: a 20 km x 20 km grid with 400 m
    blocks, trips of 15-60 intersections, cab speeds of 6-14 m/s and
    sampling intervals of 15-120 s depending on the cab.

    ``route_families`` controls neighbourhood structure: trips are drawn
    from that many popular base routes (with per-trip trims and detours)
    instead of wandering independently.  Real taxi corpora concentrate on
    arterial routes, which is what gives k-NN queries genuine near-ties;
    0 disables the mechanism (every trip independent).
    """

    extent: float = 20_000.0          # square side, meters
    block: float = 400.0              # road grid pitch, meters
    min_hops: int = 15                # intersections per trip (min)
    max_hops: int = 60                # intersections per trip (max)
    speed_low: float = 6.0            # slowest cab cruise speed, m/s
    speed_high: float = 14.0          # fastest cab cruise speed, m/s
    sample_low: float = 15.0          # fastest per-cab sampling interval, s
    sample_high: float = 120.0        # slowest per-cab sampling interval, s
    straight_bias: float = 0.7        # probability of continuing straight
    jitter: float = 8.0               # GPS noise std-dev, meters
    route_families: int = 0           # popular base routes (0 = independent)


_DIRS: Tuple[Tuple[int, int], ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _drive_path(rng: random.Random, cfg: BeijingConfig) -> List[Tuple[float, float]]:
    """One road-following trip as a polyline of intersection coordinates."""
    cells = int(cfg.extent / cfg.block)
    cx = rng.randrange(1, cells - 1)
    cy = rng.randrange(1, cells - 1)
    direction = rng.choice(_DIRS)
    hops = rng.randint(cfg.min_hops, cfg.max_hops)
    path = [(cx * cfg.block, cy * cfg.block)]
    for _ in range(hops):
        if rng.random() > cfg.straight_bias:
            # turn left or right (never reverse: cabs don't U-turn mid-trip)
            dx, dy = direction
            direction = rng.choice(((-dy, dx), (dy, -dx)))
        nx, ny = cx + direction[0], cy + direction[1]
        if not (0 <= nx < cells and 0 <= ny < cells):
            dx, dy = direction
            direction = (-dx, -dy)
            nx, ny = cx + direction[0], cy + direction[1]
        cx, cy = nx, ny
        path.append((cx * cfg.block, cy * cfg.block))
    return path


def _sample_trip(
    path: List[Tuple[float, float]],
    rng: random.Random,
    np_rng: np.random.Generator,
    cfg: BeijingConfig,
    cruise_speed: float,
    sample_interval: float,
    start_time: float,
) -> np.ndarray:
    """Timestamped GPS samples along a driven polyline.

    The cab moves along the path with per-leg speed jitter; the device
    records a fix every ``sample_interval`` seconds (with 20% jitter), plus
    always the trip start and end.
    """
    # cumulative arrival time at each vertex
    times = [start_time]
    for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
        leg = math.hypot(x1 - x0, y1 - y0)
        speed = cruise_speed * rng.uniform(0.6, 1.4)
        times.append(times[-1] + leg / max(speed, 0.5))
    times_arr = np.asarray(times)
    xs = np.asarray([p[0] for p in path])
    ys = np.asarray([p[1] for p in path])

    # device fix schedule
    t = start_time
    fixes = [start_time]
    end = times_arr[-1]
    while t < end:
        t += sample_interval * rng.uniform(0.8, 1.2)
        if t < end:
            fixes.append(t)
    fixes.append(end)
    fix_arr = np.asarray(fixes)

    px = np.interp(fix_arr, times_arr, xs)
    py = np.interp(fix_arr, times_arr, ys)
    if cfg.jitter > 0:
        px = px + np_rng.normal(0.0, cfg.jitter, px.shape)
        py = py + np_rng.normal(0.0, cfg.jitter, py.shape)
    return np.column_stack([px, py, fix_arr])


def _family_variant(
    base: List[Tuple[float, float]],
    rng: random.Random,
    cfg: BeijingConfig,
) -> List[Tuple[float, float]]:
    """A trip following a popular route: trimmed ends, optional detour.

    The variant keeps most of the base route so trips of one family are
    genuine near-neighbours, while trims and a block-level detour keep them
    distinguishable.
    """
    n = len(base)
    start = rng.randint(0, max(0, n // 5))
    end = n - rng.randint(0, max(0, n // 5))
    path = list(base[start:max(end, start + 2)])
    if len(path) >= 5 and rng.random() < 0.5:
        # one-block detour: push a middle vertex one block sideways and
        # route through it rectilinearly
        i = rng.randint(2, len(path) - 3)
        x, y = path[i]
        dx, dy = rng.choice(_DIRS)
        detour = (x + dx * cfg.block, y + dy * cfg.block)
        path = path[:i] + [detour] + path[i + 1:]
    return path


def generate_beijing(
    num_trajectories: int,
    seed: int = 0,
    config: Optional[BeijingConfig] = None,
) -> List[Trajectory]:
    """Generate ``num_trajectories`` single-trip taxi trajectories.

    Each trip gets its own cab persona (cruise speed, sampling interval)
    drawn from the configured ranges, so *inter*-trajectory sampling-rate
    variation is built in; *intra*-trajectory variation comes from the
    sampling-interval jitter.  Trajectory ids are sequential.

    With ``config.route_families == 0`` (the default) a families count of
    ``max(4, num_trajectories // 8)`` is used, mimicking the arterial-route
    concentration of real taxi data; set it explicitly to override, or to a
    value >= ``num_trajectories`` for fully independent trips.
    """
    cfg = config or BeijingConfig()
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)

    families = cfg.route_families or max(4, num_trajectories // 8)
    base_routes = [_drive_path(rng, cfg) for _ in range(min(families,
                                                            num_trajectories))]
    out: List[Trajectory] = []
    for i in range(num_trajectories):
        cruise = rng.uniform(cfg.speed_low, cfg.speed_high)
        interval = rng.uniform(cfg.sample_low, cfg.sample_high)
        if families >= num_trajectories:
            path = _drive_path(rng, cfg)
        else:
            path = _family_variant(rng.choice(base_routes), rng, cfg)
        data = _sample_trip(path, rng, np_rng, cfg, cruise, interval, 0.0)
        out.append(Trajectory(data, traj_id=i, validate=False))
    return out


def generate_cab_streams(
    num_cabs: int,
    trips_per_cab: int = 4,
    seed: int = 0,
    config: Optional[BeijingConfig] = None,
    dwell_minutes: Tuple[float, float] = (5.0, 45.0),
) -> List[Trajectory]:
    """Raw day-long cab streams with parked dwells between trips.

    Unlike :func:`generate_beijing`, the output needs the paper's 15-minute
    splitter (:func:`repro.datasets.splitting.split_trips`) before analysis:
    between trips a cab either parks (repeated fixes at one spot) or goes
    dark (a time gap).  Used to exercise the preprocessing code path.
    """
    cfg = config or BeijingConfig()
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed + 1)
    streams: List[Trajectory] = []
    for cab in range(num_cabs):
        cruise = rng.uniform(cfg.speed_low, cfg.speed_high)
        interval = rng.uniform(cfg.sample_low, cfg.sample_high)
        rows: List[np.ndarray] = []
        t = 0.0
        for _ in range(trips_per_cab):
            path = _drive_path(rng, cfg)
            data = _sample_trip(path, rng, np_rng, cfg, cruise, interval, t)
            rows.append(data)
            t = float(data[-1, 2])
            dwell = rng.uniform(*dwell_minutes) * 60.0
            if rng.random() < 0.5:
                # parked: repeated fixes at the trip's last location
                x, y = data[-1, 0], data[-1, 1]
                fix_t = t + interval
                parked = []
                while fix_t < t + dwell:
                    parked.append(
                        (x + rng.uniform(-5, 5), y + rng.uniform(-5, 5), fix_t)
                    )
                    fix_t += interval
                if parked:
                    rows.append(np.asarray(parked))
            # else: signal gap — nothing recorded
            t += dwell
        stream = np.vstack(rows)
        streams.append(Trajectory(stream, traj_id=cab, validate=False))
    return streams
