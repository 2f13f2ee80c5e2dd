"""Deterministic time evolution: unitary wave propagation and classical flows.

Two wave integrators, selected by the grid's boundary kind. Periodic grids
use a second-order split-step spectral scheme (norm-preserving to rounding)
whose numpy FFTs run in one preallocated buffer. Dirichlet grids use
Crank-Nicolson: its constant tridiagonal matrix is LU-factored once per
evolution by LAPACK gttrf and each step is one gttrs solve. scipy's LAPACK
wrappers are imported when a dirichlet evolution first needs them, so
importing mvlab or evolving on a periodic grid never loads scipy.linalg. The
classical companion integrates Newtonian characteristics with RK4 so that
trajectory crossings - the caustics the wave equation never develops - can
be produced and timed accurately.
An EvolutionRecord holds its snapshots as one (T, n) array, validated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StabilityError
from .fields import (
    GridWavefunction,
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    _freeze,
    gradient,
    interpolator,
    write_csv,
)
from .universes import TrajectoryEnsemble

MAX_DEFAULT_SNAPSHOTS = 512
UNITARITY_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Uniformly spaced snapshots of a single wave evolution, row s of amplitudes at times[s].

    The (T, n) amplitude array is kept and times is copied; both are made
    read-only. Row norms are checked against row 0: a drift beyond 1e-8
    means the integrator violated unitarity and the record is refused.
    """

    params: PhysicalParams
    potential: PotentialField
    dt: float
    snapshot_stride: int
    times: np.ndarray
    amplitudes: np.ndarray
    _polars: tuple | None = field(default=None, init=False, repr=False)  # see record_polars

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        if times.size == 0:
            raise DomainError("a record needs at least one snapshot time")
        _freeze(self, "times", times, (times.size,))
        spacing, target = np.diff(times), self.dt * self.snapshot_stride
        if np.any(spacing <= 0.0) or np.any(np.abs(spacing - target) > 1e-9 * max(target, 1e-300)):
            raise DomainError("snapshot times must increase uniformly by dt*stride")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        _freeze(self, "amplitudes", amps, (times.size, self.grid.n_points))
        norms = np.vecdot(amps, amps).real * self.grid.dx  # no (T, n) temporary, unlike sum(|a|**2)
        if np.any(np.abs(norms - norms[0]) > UNITARITY_TOLERANCE):
            raise DomainError("snapshot norms drift beyond the unitarity tolerance")

    @property
    def grid(self) -> SpatialGrid:
        return self.potential.grid

    @property
    def snapshots(self) -> tuple[GridWavefunction, ...]:
        """Each row as its own GridWavefunction (a copy per row)."""
        return tuple(GridWavefunction(self.grid, row) for row in self.amplitudes)


@dataclass(frozen=True, eq=False)
class ClassicalEnsembleRecord:
    """Newtonian characteristics: positions and velocities per particle per time.

    velocities is copied and made read-only.
    """

    params: PhysicalParams
    potential: PotentialField
    ensemble: TrajectoryEnsemble
    velocities: np.ndarray

    def __post_init__(self):
        v = np.array(self.velocities, dtype=np.float64)
        _freeze(self, "velocities", v, self.ensemble.positions.shape)


def _auto_stride(n_steps: int) -> int:
    """The least divisor of n_steps >= 1 with n_steps // stride <= MAX_DEFAULT_SNAPSHOTS."""
    target = -(-n_steps // MAX_DEFAULT_SNAPSHOTS)  # ceil division
    return next(stride for stride in range(target, n_steps + 1) if n_steps % stride == 0)


def evolve_schrodinger(
    wf0: GridWavefunction,
    V: PotentialField,
    params: PhysicalParams,
    dt: float,
    n_steps: int,
    snapshot_stride: int | None = None,
) -> EvolutionRecord:
    """Advance the wave by n_steps of size dt, recording every stride-th state.

    Periodic grids use Strang splitting (half potential kick, exact spectral
    kinetic step, half kick); dirichlet grids use Crank-Nicolson. Guard:
    dt*max|V|/hbar must stay below 0.5 or the potential phase per step is
    unresolved.
    """
    grid = wf0.grid
    if V.grid != grid:
        raise DomainError("wavefunction and potential live on different grids")
    if not (dt > 0.0):
        raise DomainError(f"dt must be positive, got {dt}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")
    v_max = float(np.max(np.abs(V.values)))
    if dt * v_max / params.hbar >= 0.5:
        raise StabilityError(
            f"dt*max|V|/hbar = {dt * v_max / params.hbar:.3g} >= 0.5; reduce dt"
        )
    if snapshot_stride is None:
        stride = _auto_stride(n_steps) if n_steps > 0 else 1
    else:
        stride = snapshot_stride
        if stride < 1:
            raise DomainError(f"snapshot_stride must be >= 1, got {stride}")
        if n_steps > 0 and n_steps % stride != 0:
            raise DomainError(
                f"snapshot_stride={stride} must divide n_steps={n_steps} "
                "so snapshot times stay uniform"
            )

    amplitudes = np.empty((n_steps // stride + 1, grid.n_points), dtype=np.complex128)
    psi = amplitudes[0] = wf0.amplitudes
    if n_steps > 0:
        step = (
            _split_step_stepper(grid, V, params, dt)
            if grid.boundary == "periodic"
            else _crank_nicolson_stepper(grid, V, params, dt)
        )
        for k in range(1, n_steps + 1):
            psi = step(psi)
            if k % stride == 0:
                amplitudes[k // stride] = psi
    times = np.arange(len(amplitudes)) * (dt * stride)
    return EvolutionRecord(params, V, dt, stride, times, amplitudes)


def _split_step_stepper(grid, V, params, dt):
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    kinetic = np.exp(-1j * params.hbar * k**2 * dt / (2.0 * params.mass))
    half_kick = np.exp(-1j * V.values * dt / (2.0 * params.hbar))
    buf = np.empty(grid.n_points, dtype=np.complex128)

    def step(psi):
        # one buffer; every product keeps the operand order of the out-of-place step,
        # since swapping it (e.g. buf *= kinetic) changes bits
        np.multiply(half_kick, psi, out=buf)
        np.fft.fft(buf, out=buf)
        np.multiply(kinetic, buf, out=buf)
        np.fft.ifft(buf, out=buf)
        return half_kick * buf

    return step


def _crank_nicolson_stepper(grid, V, params, dt):
    # H = -(hbar^2/2m) D2 + V with zero ghosts just outside the stored points;
    # (1 + r H) psi' = (1 - r H) psi, the left matrix LU-factored once
    from scipy.linalg.lapack import get_lapack_funcs

    c = params.hbar**2 / (2.0 * params.mass * grid.dx**2)
    diag = 2.0 * c + V.values
    r = 1j * dt / (2.0 * params.hbar)
    off = np.full(grid.n_points - 1, -r * c, dtype=np.complex128)
    main = 1.0 + r * diag
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (main,))
    dl, d, du, du2, ipiv, info = gttrf(off, main, off)
    if info != 0:
        raise DomainError(f"Crank-Nicolson factorisation failed (LAPACK gttrf info={info})")

    def step(psi):
        h_psi = diag * psi
        h_psi[:-1] -= c * psi[1:]
        h_psi[1:] -= c * psi[:-1]
        rhs = psi - r * h_psi
        if not np.isfinite(rhs).all():
            raise DomainError("Crank-Nicolson right-hand side is not finite (state, dt, hbar or dx)")
        x, info = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=True)
        if info != 0:
            raise DomainError(f"Crank-Nicolson solve failed (LAPACK gttrs info={info})")
        return x

    return step


def classical_ensemble_evolve(
    initial_positions,
    initial_velocities,
    V: PotentialField,
    params: PhysicalParams,
    dt: float,
    n_steps: int,
) -> ClassicalEnsembleRecord:
    """Integrate x'' = -dV/dx / m for an ensemble with classic RK4.

    The force is the centered finite difference of the sampled potential,
    linearly interpolated between grid points. On dirichlet grids a
    trajectory leaving the domain is flagged with its escape time and held
    at its last position; on periodic grids positions wrap for force
    evaluation but are recorded unwrapped.
    """
    grid = V.grid
    x = np.array(initial_positions, dtype=np.float64)
    v = np.array(initial_velocities, dtype=np.float64)
    if x.ndim != 1 or x.shape != v.shape or x.size == 0:
        raise DomainError("positions and velocities must be matching nonempty 1D sequences")
    if not np.all((x >= grid.x_min) & (x <= grid.x_max)):  # NaN fails too
        raise DomainError("initial positions must lie within the grid")
    if not np.all(np.isfinite(v)):
        raise DomainError("initial velocities must be finite")
    if not (dt > 0.0):
        raise DomainError(f"dt must be positive, got {dt}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")

    force = interpolator(grid, -gradient(V.values, grid))

    def accel(pos):
        return force(pos) / params.mass

    m_traj = x.size
    positions = np.empty((m_traj, n_steps + 1))
    velocities = np.empty((m_traj, n_steps + 1))
    positions[:, 0] = x
    velocities[:, 0] = v
    escaped = np.zeros(m_traj, dtype=bool)
    escaped_at = np.full(m_traj, np.nan)

    for step in range(1, n_steps + 1):
        k1x, k1v = v, accel(x)
        k2x, k2v = v + 0.5 * dt * k1v, accel(x + 0.5 * dt * k1x)
        k3x, k3v = v + 0.5 * dt * k2v, accel(x + 0.5 * dt * k2x)
        k4x, k4v = v + dt * k3v, accel(x + dt * k3x)
        x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        x = np.where(escaped, x, x_new)
        v = np.where(escaped, v, v_new)
        if grid.boundary != "periodic":
            out = ~escaped & ((x < grid.x_min) | (x > grid.x_max))
            if np.any(out):
                # hold at the boundary it crossed; recorded positions stay finite
                x = np.where(out, np.clip(x, grid.x_min, grid.x_max), x)
                v = np.where(out, 0.0, v)
                escaped_at[out] = step * dt
                escaped |= out
        positions[:, step] = x
        velocities[:, step] = v

    times = np.arange(n_steps + 1) * dt
    ensemble = TrajectoryEnsemble(times, positions, "classical", escaped_at=escaped_at)
    return ClassicalEnsembleRecord(params, V, ensemble, velocities)


def evolution_to_csv(record: EvolutionRecord, path) -> None:
    """Write long-format columns t,x,re,im,R2 with LF line endings."""
    n = record.grid.n_points
    x = list(map(repr, record.grid.points.tolist()))
    write_csv(path, "t,x,re,im,R2", (
        ([repr(t)] * n, x, psi.real, psi.imag, np.abs(psi) ** 2)
        for t, psi in zip(record.times.tolist(), record.amplitudes)
    ))


def classical_to_csv(record: ClassicalEnsembleRecord, path) -> None:
    """Write columns t,particle_id,x,v with LF line endings."""
    ens = record.ensemble
    ids = list(map(str, range(ens.n_trajectories)))
    write_csv(path, "t,particle_id,x,v", (
        ([repr(t)] * len(ids), ids, ens.positions[:, s], record.velocities[:, s])
        for s, t in enumerate(ens.times.tolist())
    ))
