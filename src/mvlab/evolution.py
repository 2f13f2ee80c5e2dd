"""Deterministic time evolution: unitary wave propagation.

Two wave integrators, selected by the grid's boundary kind. Periodic grids
use a second-order split-step spectral scheme (norm-preserving to rounding)
whose FFTs run in place in one preallocated buffer through scipy's compiled
pocketfft, bit for bit numpy's np.fft.fft and np.fft.ifft. Dirichlet grids use
Crank-Nicolson: its constant tridiagonal matrix is LU-factored once per
evolution by LAPACK gttrf and each step is one gttrs solve. Each integrator
loads the one scipy extension module it needs on its own, after only the
top-level `import scipy`; no run imports scipy.fft or scipy.linalg, and
importing mvlab loads no scipy at all. The trajectory flows, Bohmian and
classical, live in mvlab.universes, which this module does not import.
An EvolutionRecord holds its snapshots as one (T, n) array, validated once, and
no other (T, n) array: madelung streams its polar decomposition.
Each stepper is a pure kernel, factory(grid, V, params, dt) -> step(psi), that
checks only the operator it builds; evolve_schrodinger owns the stride (_stride),
the one loop and the refusal of a recorded row that is not finite.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StabilityError
from .fields import (
    GridWavefunction,
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    _freeze,
    write_snapshot_csv,
)

MAX_DEFAULT_SNAPSHOTS = 512
UNITARITY_TOLERANCE = 1e-8


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Uniformly spaced snapshots of a single wave evolution, row s of amplitudes at times[s].

    The (T, n) amplitude array is kept and times is copied; both are made
    read-only. The times must increase, each spacing within 1e-9 relative of
    the mean step (t[-1] - t[0])/(T - 1), the step the residuals difference
    by. Row norms are checked against row 0: a drift beyond 1e-8 means the
    integrator violated unitarity and the record is refused.
    """

    potential: PotentialField
    times: np.ndarray
    amplitudes: np.ndarray
    _residuals: tuple | None = field(default=None, init=False, repr=False)  # see madelung._residual_pair

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        if times.size == 0:
            raise DomainError("a record needs at least one snapshot time")
        _freeze(self, "times", times, (times.size,))
        spacing, step = np.diff(times), (times[-1] - times[0]) / max(times.size - 1, 1)
        if np.any(spacing <= 0.0) or np.any(np.abs(spacing - step) > 1e-9 * step):
            raise DomainError("snapshot times must increase uniformly")
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


def _check_steps(dt: float, n_steps: int) -> None:
    """Refuse a step dt outside 0 < dt < inf or a negative n_steps: the one rule of every flow."""
    if not (0.0 < dt < math.inf):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if n_steps < 0:
        raise DomainError(f"n_steps must be nonnegative, got {n_steps}")


def _stride(n_steps: int, snapshot_stride: int | None) -> int:
    """A given stride once it is >= 1 and divides n_steps, else the least divisor of n_steps
    with at most MAX_DEFAULT_SNAPSHOTS intervals, over divisor pairs to isqrt(n_steps)."""
    if snapshot_stride is not None:
        if snapshot_stride < 1:
            raise DomainError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
        if n_steps > 0 and n_steps % snapshot_stride != 0:
            raise DomainError(
                f"snapshot_stride={snapshot_stride} must divide n_steps={n_steps} "
                "so snapshot times stay uniform"
            )
        return snapshot_stride
    least = -(-n_steps // MAX_DEFAULT_SNAPSHOTS)  # ceil division
    pairs = ((d, n_steps // d) for d in range(1, math.isqrt(n_steps) + 1) if n_steps % d == 0)
    return min((m for pair in pairs for m in pair if m >= least), default=1)  # 1 at n_steps = 0


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
    unresolved. _stride decides the stride; each recorded row is refused,
    naming its time, if not finite, so a bad run stops within stride steps.
    """
    grid = wf0.grid
    if V.grid != grid:
        raise DomainError("wavefunction and potential live on different grids")
    _check_steps(dt, n_steps)
    v_max = float(np.max(np.abs(V.values)))
    if dt * v_max / params.hbar >= 0.5:
        raise StabilityError(
            f"dt*max|V|/hbar = {dt * v_max / params.hbar:.3g} >= 0.5; reduce dt"
        )
    stride = _stride(n_steps, snapshot_stride)

    amplitudes = np.empty((n_steps // stride + 1, grid.n_points), dtype=np.complex128)
    psi = amplitudes[0] = wf0.amplitudes
    times = np.arange(len(amplitudes)) * (dt * stride)
    if n_steps > 0:
        stepper = _split_step_stepper if grid.boundary == "periodic" else _crank_nicolson_stepper
        step = stepper(grid, V, params, dt)
        for s in range(1, len(amplitudes)):
            for _ in range(stride):
                psi = step(psi)
            if not np.isfinite(psi).all():
                raise DomainError(f"the evolved state is not finite at t={times[s]}")
            amplitudes[s] = psi
    return EvolutionRecord(V, times, amplitudes)


def _scipy_extension(name: str):
    """The compiled scipy extension module of that full dotted name, loaded on its own.

    Importing it the usual way runs its packages' __init__ files: scipy.linalg
    or scipy.fft costs about 0.3 s and 25-27 MiB (scipy's array-API layer, and
    numpy.f2py for linalg). So the extension is found in its directory under
    scipy and executed on its own, after only the top-level `import scipy`, and
    is registered in sys.modules under its full name: a later import of its
    package reuses it, so scipy's own wrappers call these same functions.
    """
    module = sys.modules.get(name)
    if module is None:
        import scipy

        package = name.split(".")[1:-1]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy.__path__[0], *package)]
        )
        if spec is None:
            raise ImportError(f"cannot find the extension module {name}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module


def _fft_in_place(buf):
    """fft() and ifft() of the 1D complex128 buf in place, bit for bit np.fft.fft and np.fft.ifft.

    Both are scipy's pocketfft c2c, the transform numpy's own np.fft runs, at
    about half its fixed cost per call. The inverse runs unnormalised and then
    scales each float64 component by the double 1/n, as numpy does: scipy's
    own inorm=2 works out 1/n in long double, which rounds differently for
    some n (2731 is the first) and would change bits. Only a NaN's sign can
    differ, at some Bluestein sizes (2731, 7919); a record refuses NaN anyway.
    """
    c2c = _scipy_extension("scipy.fft._pocketfft.pypocketfft").c2c
    parts, scale = buf.view(np.float64), np.reciprocal(np.float64(buf.size))

    def fft():
        c2c(buf, (0,), True, 0, buf, 1)

    def ifft():
        c2c(buf, (0,), False, 0, buf, 1)
        np.multiply(parts, scale, out=parts)

    return fft, ifft


def _split_step_stepper(grid, V, params, dt):
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    # the largest phase, in Python floats (they overflow to inf without a numpy warning)
    # and in the order the kinetic array below takes
    k_max = float(np.max(np.abs(k)))
    if not math.isfinite(params.hbar * (k_max * k_max) * dt / (2.0 * params.mass)):
        raise DomainError(
            f"the kinetic phase hbar*k_max**2*dt/(2*mass) is not finite (hbar={params.hbar}, "
            f"dt={dt}, mass={params.mass}, dx={grid.dx})"
        )
    kinetic = np.exp(-1j * params.hbar * k**2 * dt / (2.0 * params.mass))
    half_kick = np.exp(-1j * V.values * dt / (2.0 * params.hbar))
    buf = np.empty(grid.n_points, dtype=np.complex128)
    fft, ifft = _fft_in_place(buf)

    def step(psi):
        # one buffer; every product keeps the operand order of the out-of-place step,
        # since swapping it (e.g. buf *= kinetic) changes bits
        np.multiply(half_kick, psi, out=buf)
        fft()
        np.multiply(kinetic, buf, out=buf)
        ifft()
        return half_kick * buf

    return step


def _gttr():
    """LAPACK's complex128 zgttrf and zgttrs, from scipy's compiled _flapack module alone."""
    flapack = _scipy_extension("scipy.linalg._flapack")
    return flapack.zgttrf, flapack.zgttrs


def _crank_nicolson_stepper(grid, V, params, dt):
    # H = -(hbar^2/2m) D2 + V with zero ghosts just outside the stored points;
    # (1 + r H) psi' = (1 - r H) psi, the left matrix LU-factored once
    denominator = 2.0 * params.mass * grid.dx**2
    c = params.hbar**2 / denominator if denominator > 0.0 else math.inf  # mass*dx**2 may underflow
    if not (0.0 < c < math.inf):
        raise DomainError(
            f"the Crank-Nicolson coupling hbar**2/(2*mass*dx**2) is zero or not finite "
            f"(hbar={params.hbar}, mass={params.mass}, dx={grid.dx})"
        )
    # |r| = dt/(2*hbar) times H's extreme entries (c off the diagonal, 2c + min V and 2c + max V
    # on it), in Python floats (they overflow to inf without a numpy warning)
    rate = dt / (2.0 * params.hbar)
    extremes = (c, 2.0 * c + float(np.min(V.values)), 2.0 * c + float(np.max(V.values)))
    if not all(math.isfinite(rate * e) for e in extremes):
        raise DomainError(
            f"the Crank-Nicolson operator dt/(2*hbar)*H is not finite (dt={dt}, "
            f"hbar={params.hbar}, mass={params.mass}, dx={grid.dx}, max|V|={np.max(np.abs(V.values))})"
        )
    diag = 2.0 * c + V.values
    r = 1j * dt / (2.0 * params.hbar)
    off = np.full(grid.n_points - 1, -r * c, dtype=np.complex128)
    gttrf, gttrs = _gttr()
    dl, d, du, du2, ipiv, info = gttrf(off, 1.0 + r * diag, off)
    if info != 0:
        raise DomainError(f"Crank-Nicolson factorisation failed (LAPACK gttrf info={info})")

    def step(psi):
        h_psi = diag * psi
        h_psi[:-1] -= c * psi[1:]
        h_psi[1:] -= c * psi[:-1]
        x, info = gttrs(dl, d, du, du2, ipiv, psi - r * h_psi, overwrite_b=True)
        if info != 0:
            raise DomainError(f"Crank-Nicolson solve failed (LAPACK gttrs info={info})")
        return x

    return step


def evolution_to_csv(record: EvolutionRecord, path) -> None:
    """Write long-format columns t,x,re,im,R2 with LF line endings."""

    def columns(s):
        psi = record.amplitudes[s]
        return psi.real, psi.imag, np.abs(psi) ** 2

    write_snapshot_csv(path, "t,x,re,im,R2", record.times, record.grid.points, columns)
