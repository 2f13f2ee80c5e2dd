"""Trajectory ensembles: the Bohmian phase flow of the wave and the classical flow.

R^2 is treated as a conserved density of trajectories ("universes") carried
by the velocity v = grad(phi)/m. In one dimension a caustic is exactly a
change of trajectory ordering, so sorting gives an exact crossing detector;
the quantum flow never reorders, the classical converging flow does.
Both flows record (T, M) positions and share one start rule (_starts), one RK4
stage (_rk4) and one stop rule, a NaN stop time meaning never: integrate_universes
steps x once per snapshot interval, classical_ensemble_evolve the stacked (x, v).
integrate_universes decomposes a record VELOCITY_BLOCK snapshots at a time, each
snapshot once, and derives each block's velocity rows and cell-edge zones: no (T, n)
polar stack or velocity is held; an interval costs little beyond its 8 np.interp calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _shown
from .evolution import EvolutionRecord, _check_steps
from .fields import (
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    _freeze,
    gradient,
    grid_offset,
    interpolator,
    write_snapshot_csv,
)
from .madelung import DEFAULT_NODE_EPSILON, PolarField, decompose, node_zone, phase_gradient

KINDS = {"bohmian": "frozen", "classical": "escaped"}  # each kind's word for a stopped trajectory

# snapshots decomposed per velocity_field call: at n=1024 the peak above the (T, M) positions
# is about 8.5 blocks of float64 velocity (1.1 MiB), whatever the record's length
VELOCITY_BLOCK = 16


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Positions of M trajectories at T recorded times: positions is (T, M), row s at times[s].

    stopped_at holds the time each trajectory stopped, NaN for never: on
    entering a node neighborhood (bohmian, flagged "frozen") or on leaving a
    dirichlet domain (classical, flagged "escaped"). A stopped trajectory
    holds its last position, so recorded positions stay finite. The arrays
    are kept, not copied, and made read-only.
    """

    times: np.ndarray
    positions: np.ndarray
    kind: str
    stopped_at: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        _freeze(self, "times", times, (times.size,))
        if np.any(np.diff(times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        positions = np.asarray(self.positions, dtype=np.float64)
        _freeze(self, "positions", positions, times.shape + positions.shape[-1:])  # (T, M)
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {tuple(KINDS)}, got {_shown(self.kind)}")
        stops = np.asarray(self.stopped_at, dtype=np.float64)
        _freeze(self, "stopped_at", stops, positions.shape[1:], finite=False)

    @property
    def n_trajectories(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True, eq=False)
class ClassicalEnsembleRecord:
    """Newtonian characteristics: positions and velocities per time per particle.

    velocities is (T, M) like ensemble.positions; like it, it is kept, not
    copied, and made read-only.
    """

    ensemble: TrajectoryEnsemble
    velocities: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=np.float64)
        _freeze(self, "velocities", v, self.ensemble.positions.shape)


def velocity_field(polar: PolarField, params: PhysicalParams) -> np.ndarray:
    """v_j = (grad phi)_j / m, NaN on madelung.node_zone (where trajectories freeze)."""
    v = phase_gradient(polar.phi, polar.grid, params.hbar) / params.mass
    return np.where(node_zone(polar.node_mask, polar.grid), np.nan, v)


def _reals(values) -> np.ndarray | None:
    """values as a new float64 array, or None if the entries are ragged, strings, complex or
    otherwise not real, or ints past float range: numpy alone reads "1.0" as 1.0."""
    try:
        raw = np.asarray(values)
        entries = raw.flat if raw.dtype == object else ()  # an object array may hold a str
        if raw.dtype.kind in "biufO" and not any(isinstance(v, (str, bytes)) for v in entries):
            return np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _starts(grid: SpatialGrid, positions) -> np.ndarray:
    """The start positions as a new float64 array, once they are nonempty, 1D and inside the grid."""
    x = _reals(positions)
    if x is None or x.ndim != 1 or x.size == 0:
        raise DomainError("initial positions must be a nonempty 1D sequence")
    if not np.all((x >= grid.x_min) & (x <= grid.x_max)):  # NaN fails too
        raise DomainError("initial positions must lie within the grid")
    return x


def _rk4(rate, y, t, h, k1):
    """One classic RK4 step of dy/dt = rate(y, t) from y at t, given its first stage k1."""
    k2 = rate(y + 0.5 * h * k1, t + 0.5 * h)
    k3 = rate(y + 0.5 * h * k2, t + 0.5 * h)
    k4 = rate(y + h * k3, t + h)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_universes(
    record: EvolutionRecord,
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
    x = _starts(grid, initial_positions)
    periodic = grid.boundary == "periodic"
    abscissa = np.append(grid.points, grid.x_max) if periodic else grid.points

    def flows():  # per snapshot: the velocity, 0 on the node zone and closed like the abscissa,
        # and the cell-edge zone (either end of a cell in the node zone)
        for b in range(0, len(record.times), VELOCITY_BLOCK):
            v = velocity_field(decompose(record, params, node_epsilon, slice(b, b + VELOCITY_BLOCK)), params)
            zone = np.isnan(v)
            v[zone] = 0.0
            ends = zone | np.concatenate((zone[:, 1:], zone[:, :1] if periodic else zone[:, -1:]), axis=1)
            yield from zip(np.concatenate((v, v[:, :1]), axis=1) if periodic else v, ends)

    def cells(offset):  # the grid cell at each grid_offset
        return np.clip(np.floor(offset / grid.dx).astype(int), 0, grid.n_points - 1)

    rows = flows()
    v1, ends1 = next(rows)
    offset = grid_offset(grid, x)  # each position is wrapped once, for its zone check and next stage
    if np.any(ends1[cells(offset)]):
        raise DomainError("initial positions must avoid node neighborhoods of the first snapshot")

    times = record.times.tolist()
    positions = np.empty((len(times), x.size))
    positions[0] = x
    stopped_at = np.full(x.size, np.nan)

    for s in range(len(times) - 1):
        t0, h = times[s], times[s + 1] - times[s]
        v0, ends0 = v1, ends1
        v1, ends1 = next(rows)

        def vel(pos, t, offset=None):  # the two rows at pos, blended in time in place
            if periodic:
                pos = grid.x_min + (grid_offset(grid, pos) if offset is None else offset)
            w, at0, at1 = (t - t0) / h, np.interp(pos, abscissa, v0), np.interp(pos, abscissa, v1)
            return np.add(np.multiply(at0, 1.0 - w, out=at0), np.multiply(at1, w, out=at1), out=at0)

        live = np.isnan(stopped_at)
        x = np.where(live, _rk4(vel, x, t0, h, vel(x, t0, offset)), x)
        offset = grid_offset(grid, x)
        stopped_at[live & (ends0 | ends1)[cells(offset)]] = t0 + h
        positions[s + 1] = x

    return TrajectoryEnsemble(record.times.copy(), positions, "bohmian", stopped_at)


def classical_ensemble_evolve(
    initial_positions,
    initial_velocities,
    V: PotentialField,
    params: PhysicalParams,
    dt: float,
    n_steps: int,
) -> ClassicalEnsembleRecord:
    """Integrate x'' = -dV/dx / m for an ensemble with classic RK4 on the state (x, v).

    The force is the centered finite difference of the sampled potential,
    linearly interpolated between grid points. On dirichlet grids a
    trajectory leaving the domain is flagged with its escape time and held
    at its last position; on periodic grids positions wrap for force
    evaluation but are recorded unwrapped.
    """
    grid = V.grid
    x = _starts(grid, initial_positions)
    v = _reals(initial_velocities)
    if v is None or v.shape != x.shape or not np.all(np.isfinite(v)):
        raise DomainError("initial velocities must be finite, one per initial position")
    _check_steps(dt, n_steps)

    force = interpolator(grid, -gradient(V.values, grid))

    def rate(y, t):  # d(x, v)/dt = (v, F(x)/m), the same at every t
        return np.stack((y[1], force(y[0]) / params.mass))

    times = np.arange(n_steps + 1) * dt
    positions = np.empty((n_steps + 1, x.size))
    velocities = np.empty((n_steps + 1, x.size))
    y = np.stack((x, v))
    positions[0], velocities[0] = y
    stopped_at = np.full(x.size, np.nan)

    for step, t in enumerate(times[:-1], start=1):
        live = np.isnan(stopped_at)
        y = np.where(live, _rk4(rate, y, t, dt, rate(y, t)), y)
        if grid.boundary != "periodic":  # hold at the boundary it crossed; positions stay finite
            out = live & ((y[0] < grid.x_min) | (y[0] > grid.x_max))
            y[0, out] = np.clip(y[0, out], grid.x_min, grid.x_max)
            y[1, out] = 0.0
            stopped_at[out] = step * dt
        positions[step], velocities[step] = y

    ensemble = TrajectoryEnsemble(times, positions, "classical", stopped_at)
    return ClassicalEnsembleRecord(ensemble, velocities)


def crossing_count(ensemble: TrajectoryEnsemble) -> int:
    """Adjacent-pair order inversions summed over recorded time steps.

    In 1D two trajectories cross exactly when their sorted order changes,
    so this is an exact caustic detector: zero for an order-preserving flow.
    Fewer than two trajectories trivially gives zero.
    """
    pos = ensemble.positions
    total = 0
    for now, nxt in zip(pos, pos[1:]):
        later = nxt[np.argsort(now, kind="stable")]
        total += int(np.sum(later[1:] < later[:-1]))
    return total


def _density_cdf(polar: PolarField):
    """Piecewise-linear CDF of the node-excluded density over cell edges."""
    grid = polar.grid
    if polar.R.ndim != 1:
        raise DomainError("the density CDF needs one snapshot, not a (T, n) stack: pass polar[0]")
    masses = np.where(node_zone(polar.node_mask, grid), 0.0, polar.R**2) * grid.dx
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
    record: EvolutionRecord,
    ensemble: TrajectoryEnsemble,
    endpoints,
    params: PhysicalParams,
    node_epsilon: float = DEFAULT_NODE_EPSILON,
) -> TransportReport:
    """Compare trajectory counts in the image of (a, b) with the initial mass.

    endpoints holds the (T, 2) columns of the two trajectories started at a and b
    (transport_interval), best integrated in the ensemble's own call; the image of
    (a, b) lies between them.
    """
    if ensemble.kind != "bohmian":
        raise DomainError("transport check needs a bohmian ensemble")
    times = record.times
    if ensemble.times.size != times.size or not np.allclose(ensemble.times, times):
        raise DomainError("ensemble times do not match the record's snapshot times")
    endpoints = np.asarray(endpoints, dtype=np.float64)
    if endpoints.shape != (times.size, 2):
        raise DomainError(f"endpoints must have shape ({times.size}, 2), got {endpoints.shape}")
    a, b = transport_interval(record.grid, endpoints[0])

    edges, cdf = _density_cdf(decompose(record, params, node_epsilon, 0))
    expected = float(np.interp(b, edges, cdf) - np.interp(a, edges, cdf))

    pos = ensemble.positions
    fractions = np.mean((pos > endpoints[:, :1]) & (pos < endpoints[:, 1:]), axis=1)
    deviations = np.abs(fractions - expected)
    m = ensemble.n_trajectories
    return TransportReport(times.copy(), fractions, expected, deviations, 3.0 / np.sqrt(m), m)


def trajectories_to_csv(ensemble: TrajectoryEnsemble, path) -> None:
    """Write columns t,trajectory_id,x,kind,flags with LF line endings.

    flags is the kind's word in KINDS from stopped_at on, else empty (a NaN
    stop time never fires); blocks with none stopped share one empty column.
    """
    kind, word = [ensemble.kind] * ensemble.n_trajectories, KINDS[ensemble.kind]
    unflagged = [""] * ensemble.n_trajectories

    def columns(s):
        stopped = ensemble.stopped_at <= ensemble.times[s]
        return ensemble.positions[s], kind, np.where(stopped, word, "").tolist() if stopped.any() else unflagged

    write_snapshot_csv(path, "t,trajectory_id,x,kind,flags", ensemble.times, np.arange(len(kind)), columns)


def classical_to_csv(record: ClassicalEnsembleRecord, path) -> None:
    """Write columns t,particle_id,x,v with LF line endings."""
    ens = record.ensemble
    write_snapshot_csv(path, "t,particle_id,x,v", ens.times, np.arange(ens.n_trajectories),
                       lambda s: (ens.positions[s], record.velocities[s]))
