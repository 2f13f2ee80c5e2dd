"""Trajectory ensembles transported by the phase flow of the wave.

R^2 is treated as a conserved density of trajectories ("universes") carried
by the velocity v = grad(phi)/m. In one dimension a caustic is exactly a
change of trajectory ordering, so sorting gives an exact crossing detector;
the quantum flow never reorders, the classical converging flow does.
integrate_universes reads madelung.record_polars, so each snapshot of a
record is decomposed once, and derives the velocity VELOCITY_BLOCK snapshots
at a time: a whole-stack velocity would hold another (T, n) array.
trajectories_to_csv streams an ensemble one recorded time at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .fields import PhysicalParams, SpatialGrid, _freeze, interpolator, write_csv
from .madelung import (
    DEFAULT_NODE_EPSILON,
    MASK_DILATION,
    PolarField,
    decompose,  # noqa: F401  unused here; bench/child.py rebinds it by name to count calls
    dilate_mask,
    phase_gradient,
    record_polars,
)

if TYPE_CHECKING:
    from .evolution import EvolutionRecord

KINDS = ("bohmian", "classical")

# snapshots per velocity_field call: at n=2048, 16 add 1.3 MiB to peak memory, 64 add 4.5 MiB
VELOCITY_BLOCK = 16


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Positions of M trajectories at T recorded times.

    frozen_at marks trajectories that entered a node neighborhood (quantum
    flow) and escaped_at marks trajectories that left a dirichlet domain
    (classical flow); both hold their last position afterwards, so recorded
    positions stay finite. NaN means the flag never fired. The arrays are
    kept, not copied, and made read-only.
    """

    times: np.ndarray
    positions: np.ndarray
    kind: str
    frozen_at: np.ndarray | None = None
    escaped_at: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        _freeze(self, "times", times, (times.size,))
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        positions = np.asarray(self.positions, dtype=np.float64)
        _freeze(self, "positions", positions, positions.shape[:1] + times.shape)  # (M, T)
        m = len(positions)
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("frozen_at", "escaped_at"):
            flags = getattr(self, name)
            flags = np.full(m, np.nan) if flags is None else np.asarray(flags, dtype=np.float64)
            _freeze(self, name, flags, (m,), finite=False)

    @property
    def n_trajectories(self) -> int:
        return self.positions.shape[0]


def velocity_field(polar: PolarField, params: PhysicalParams) -> np.ndarray:
    """v_j = (grad phi)_j / m, NaN within MASK_DILATION cells of a node (the freeze zone)."""
    v = phase_gradient(polar.phi, polar.grid, params.hbar) / params.mass
    bad = dilate_mask(polar.node_mask, MASK_DILATION, polar.grid.boundary == "periodic")
    return np.where(bad, np.nan, v)


def _zone_lookup(grid: SpatialGrid, zone: np.ndarray):
    """in_zone(pos): whether either end of the grid cell holding pos lies in zone."""
    periodic = grid.boundary == "periodic"
    either_end = zone | np.append(zone[1:], zone[0] if periodic else zone[-1])

    def in_zone(pos):
        offset = np.mod(pos - grid.x_min, grid.length) if periodic else pos - grid.x_min
        return either_end[np.clip(np.floor(offset / grid.dx).astype(int), 0, grid.n_points - 1)]

    return in_zone


def integrate_universes(
    record: "EvolutionRecord",
    initial_positions,
    params: PhysicalParams,
    node_epsilon: float = DEFAULT_NODE_EPSILON,
) -> TrajectoryEnsemble:
    """Integrate dx/dt = v(x,t) through the record's snapshots, one RK4 step per interval.

    The velocity is interpolated linearly in space between grid points and
    linearly in time between snapshots, which caps the scheme at second
    order overall; RK4 keeps the step error negligible against the
    interpolation error. Trajectories that enter a node neighborhood are
    frozen in place and flagged, not dropped.
    """
    grid = record.grid
    x = np.array(initial_positions, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("initial_positions must be a nonempty 1D sequence")
    if not np.all((x >= grid.x_min) & (x <= grid.x_max)):  # NaN fails too
        raise DomainError("initial positions must lie within the grid")

    polars = record_polars(record, params, node_epsilon)

    def flows():  # per snapshot: the velocity, zero on the node zone, and the zone
        for b in range(0, len(polars), VELOCITY_BLOCK):
            v = velocity_field(polars[b : b + VELOCITY_BLOCK], params)
            zone = np.isnan(v)
            yield from zip(np.where(zone, 0.0, v), zone)

    rows = flows()
    v1, zone1 = next(rows)
    if np.any(_zone_lookup(grid, zone1)(x)):
        raise DomainError("initial positions must avoid node neighborhoods of the first snapshot")

    times = record.times
    n_snap = len(times)
    positions = np.empty((x.size, n_snap))
    positions[:, 0] = x
    frozen_at = np.full(x.size, np.nan)

    for s in range(n_snap - 1):
        t0, t1 = times[s], times[s + 1]
        v0, zone0 = v1, zone1
        v1, zone1 = next(rows)
        interp = interpolator(grid, (v0, v1))
        in_zone = _zone_lookup(grid, zone0 | zone1)
        h = t1 - t0

        def vel(pos, t):
            w = (t - t0) / h
            at0, at1 = interp(pos)
            return (1.0 - w) * at0 + w * at1

        k1 = vel(x, t0)
        k2 = vel(x + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = vel(x + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = vel(x + h * k3, t0 + h)
        live = np.isnan(frozen_at)
        x = np.where(live, x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), x)
        frozen_at[live & in_zone(x)] = t0 + h
        positions[:, s + 1] = x

    return TrajectoryEnsemble(times.copy(), positions, "bohmian", frozen_at=frozen_at)


def crossing_count(ensemble: TrajectoryEnsemble) -> int:
    """Adjacent-pair order inversions summed over recorded time steps.

    In 1D two trajectories cross exactly when their sorted order changes,
    so this is an exact caustic detector: zero for an order-preserving flow.
    Fewer than two trajectories trivially gives zero.
    """
    pos = ensemble.positions
    if pos.shape[0] < 2:
        return 0
    total = 0
    for t in range(pos.shape[1] - 1):
        order = np.argsort(pos[:, t], kind="stable")
        nxt = pos[order, t + 1]
        total += int(np.sum(nxt[1:] < nxt[:-1]))
    return total


def _density_cdf(polar: PolarField):
    """Piecewise-linear CDF of the node-excluded density over cell edges."""
    grid = polar.grid
    if polar.R.ndim != 1:
        raise DomainError("the density CDF needs one snapshot, not a (T, n) stack: pass polar[0]")
    zone = dilate_mask(polar.node_mask, MASK_DILATION, grid.boundary == "periodic")
    masses = np.where(zone, 0.0, polar.R**2) * grid.dx
    total = masses.sum()
    if total <= 0.0:
        raise DomainError("density is zero everywhere off nodes")
    edges = grid.x_min + grid.dx * np.arange(grid.n_points + 1)
    cdf = np.concatenate(([0.0], np.cumsum(masses))) / total
    return edges, cdf


def stratified_positions(polar: PolarField, m: int) -> np.ndarray:
    """Deterministic inverse-CDF midpoint sample of m positions from R^2.

    The m equal-probability strata stand in for equally weighted members of
    the continuum ensemble; node neighborhoods carry no samples.
    """
    if m < 1:
        raise DomainError(f"need at least one sample, got {m}")
    edges, cdf = _density_cdf(polar)
    targets = (np.arange(m) + 0.5) / m
    return np.interp(targets, cdf, edges)


@dataclass(frozen=True, eq=False)
class TransportReport:
    """Interval-mass conservation check along the flow.

    fractions holds the share of trajectories inside the transported image
    of (a, b) at each snapshot; expected is the initial density mass of
    (a, b). For an exact flow and infinite ensemble the two agree, so the
    deviations shrink like 1/sqrt(M) stratification granularity.
    """

    times: np.ndarray
    fractions: np.ndarray
    expected: float
    deviations: np.ndarray
    bound: float
    n_trajectories: int

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))


def transport_interval(grid: SpatialGrid, interval) -> np.ndarray:
    """The validated interval (a, b) as the starts [a, b] of its endpoint trajectories."""
    a, b = float(interval[0]), float(interval[1])
    if not (grid.x_min <= a < b <= grid.x_max):
        raise DomainError(f"interval ({a}, {b}) must lie inside the grid and satisfy a < b")
    return np.array([a, b])


def density_transport_check(
    record: "EvolutionRecord",
    ensemble: TrajectoryEnsemble,
    endpoints,
    params: PhysicalParams,
    node_epsilon: float = DEFAULT_NODE_EPSILON,
) -> TransportReport:
    """Compare trajectory counts in the image of (a, b) with the initial mass.

    endpoints holds the two trajectories started at a and b (transport_interval),
    best integrated in the ensemble's own call; the image of (a, b) lies between them.
    """
    if ensemble.kind != "bohmian":
        raise DomainError("transport check needs a bohmian ensemble")
    times = record.times
    if ensemble.times.size != times.size or not np.allclose(ensemble.times, times):
        raise DomainError("ensemble times do not match the record's snapshot times")
    endpoints = np.asarray(endpoints, dtype=np.float64)
    if endpoints.shape != (2, times.size):
        raise DomainError(f"endpoints must have shape (2, {times.size}), got {endpoints.shape}")
    lo, hi = endpoints
    a, b = transport_interval(record.grid, (lo[0], hi[0]))

    edges, cdf = _density_cdf(record_polars(record, params, node_epsilon)[0])
    expected = float(np.interp(b, edges, cdf) - np.interp(a, edges, cdf))

    pos = ensemble.positions
    fractions = np.mean((pos > lo) & (pos < hi), axis=0)
    deviations = np.abs(fractions - expected)
    m = ensemble.n_trajectories
    return TransportReport(times.copy(), fractions, expected, deviations, 3.0 / np.sqrt(m), m)


def trajectories_to_csv(ensemble: TrajectoryEnsemble, path) -> None:
    """Write columns t,trajectory_id,x,kind,flags with LF line endings.

    flags is "frozen" from frozen_at on, else "escaped" from escaped_at on,
    else empty (a NaN flag time never fires).
    """
    m = ensemble.n_trajectories
    ids, kind = list(map(str, range(m))), [ensemble.kind] * m

    def blocks():
        for s, t in enumerate(ensemble.times.tolist()):
            escaped = np.where(ensemble.escaped_at <= t, "escaped", "")
            flags = np.where(ensemble.frozen_at <= t, "frozen", escaped).tolist()
            yield [repr(t)] * m, ids, ensemble.positions[:, s], kind, flags

    write_csv(path, "t,trajectory_id,x,kind,flags", blocks())
