"""Spatial grids, physical constants, wavefunctions, and grid calculus.

Conventions used throughout the package:

* grid points are x_j = x_min + j*dx for j = 0..n_points-1 with
  dx = (x_max - x_min)/n_points; periodic grids identify x_max with x_min,
  dirichlet grids hold the field at zero just outside the stored points;
* all integrals are discrete Riemann sums with weight dx, so
  norm_squared(psi) = sum |psi_j|^2 * dx;
* spatial derivatives are second-order centered differences along the last
  axis (one (n,) field or every row of a (T, n) stack), with wraparound on
  periodic grids and one-sided second-order stencils at dirichlet ends;
* every CSV file of the package is written by write_csv, which prints
  floats as repr of the float64, so they read back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CommensurabilityError, DomainError, ResolutionError

BOUNDARIES = ("periodic", "dirichlet")


@dataclass(frozen=True)
class PhysicalParams:
    """Planck constant and particle mass, both strictly positive; hbar**2 must be finite."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar * self.hbar)):
            raise DomainError(f"hbar must be positive with a finite square, got {self.hbar}")
        if not (self.mass > 0.0):
            raise DomainError(f"mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid on [x_min, x_max) with a boundary kind."""

    x_min: float
    x_max: float
    n_points: int
    boundary: str = "periodic"

    def __post_init__(self):
        if not (self.x_max > self.x_min):
            raise DomainError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 8:
            raise DomainError(f"n_points must be >= 8, got {self.n_points}")
        if self.boundary not in BOUNDARIES:
            raise DomainError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex amplitudes sampled on a grid; immutable after construction."""

    grid: SpatialGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_points,):
            raise DomainError(
                f"amplitudes must have shape ({self.grid.n_points},), got {amps.shape}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise DomainError("amplitudes contain NaN or Inf")
        object.__setattr__(self, "amplitudes", _readonly(amps))


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Real potential energy sampled on a grid."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_points,):
            raise DomainError(
                f"values must have shape ({self.grid.n_points},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("potential values contain NaN or Inf")
        object.__setattr__(self, "values", _readonly(vals))


def free_potential(grid: SpatialGrid) -> PotentialField:
    """V = 0 everywhere."""
    return PotentialField(grid, np.zeros(grid.n_points))


def harmonic_potential(
    grid: SpatialGrid, omega: float, params: PhysicalParams, center: float = 0.0
) -> PotentialField:
    """V = m*omega^2*(x - center)^2 / 2."""
    if not (omega > 0.0 and math.isfinite(omega * omega)):
        raise DomainError(f"omega must be positive with a finite square, got {omega}")
    x = grid.points
    return PotentialField(grid, 0.5 * params.mass * omega**2 * (x - center) ** 2)


def make_gaussian_packet(
    grid: SpatialGrid, x0: float, sigma: float, k0: float, params: PhysicalParams
) -> GridWavefunction:
    """Normalized Gaussian packet ~ exp(-(x-x0)^2/(4 sigma^2)) * exp(i k0 x).

    Requires x0 inside the grid and sigma >= 4*dx so the envelope is resolved.
    Construction is deterministic: identical inputs give bitwise-identical
    amplitudes.
    """
    if not (grid.x_min < x0 < grid.x_max):
        raise DomainError(f"x0={x0} lies outside the grid ({grid.x_min}, {grid.x_max})")
    if not (sigma > 0.0 and math.isfinite(sigma * sigma)):
        raise DomainError(f"sigma must be positive with a finite square, got {sigma}")
    if sigma < 4.0 * grid.dx:
        raise ResolutionError(
            f"sigma={sigma} under-resolved: need sigma >= 4*dx = {4.0 * grid.dx}"
        )
    x = grid.points
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k0 * x)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return GridWavefunction(grid, psi)


def make_plane_wave(grid: SpatialGrid, k: float, amplitude: float) -> GridWavefunction:
    """Plane wave A*exp(i k x) on a periodic grid.

    k must fit a whole number of wavelengths in the box, otherwise the
    modulus would not be constant under the spectral evolution.
    """
    if grid.boundary != "periodic":
        raise DomainError("plane waves require a periodic grid")
    if not (amplitude > 0.0):
        raise DomainError(f"amplitude must be positive, got {amplitude}")
    winding = k * grid.length / (2.0 * np.pi)
    if abs(winding - round(winding)) > 1e-9 * max(1.0, abs(winding)):
        raise CommensurabilityError(
            f"k={k} is not commensurate: k*L/(2*pi) = {winding} is not an integer"
        )
    return GridWavefunction(grid, amplitude * np.exp(1j * k * grid.points))


def norm_squared(wf: GridWavefunction) -> float:
    """Riemann-sum norm: sum |psi_j|^2 * dx."""
    return float(np.sum(np.abs(wf.amplitudes) ** 2) * wf.grid.dx)


def normalize(wf: GridWavefunction) -> GridWavefunction:
    """Rescale so norm_squared = 1; rejects the all-zero field."""
    n2 = norm_squared(wf)
    if n2 <= 0.0:
        raise DomainError("cannot normalize a zero wavefunction")
    return GridWavefunction(wf.grid, wf.amplitudes / np.sqrt(n2))


def gradient(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Second-order first derivative along the last axis, respecting the grid's boundary kind."""
    dx = grid.dx
    if grid.boundary == "periodic":
        return (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) / (2.0 * dx)
    out = np.empty_like(np.asarray(values, dtype=np.result_type(values, 1.0)))
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * dx)
    out[..., 0] = (-3.0 * values[..., 0] + 4.0 * values[..., 1] - values[..., 2]) / (2.0 * dx)
    out[..., -1] = (3.0 * values[..., -1] - 4.0 * values[..., -2] + values[..., -3]) / (2.0 * dx)
    return out


def laplacian(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Second-order second derivative along the last axis, respecting the grid's boundary kind."""
    dx2 = grid.dx * grid.dx
    if grid.boundary == "periodic":
        return (np.roll(values, -1, axis=-1) - 2.0 * values + np.roll(values, 1, axis=-1)) / dx2
    v = values
    out = np.empty_like(np.asarray(v, dtype=np.result_type(v, 1.0)))
    out[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / dx2
    out[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]) / dx2
    out[..., -1] = (2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]) / dx2
    return out


def interpolator(grid: SpatialGrid, values):
    """Linear interpolant of grid samples in position; periodic grids wrap the position.

    A (k, n) stack along the last axis gives a list of k rows per call, from
    one wrap of the positions; each row equals its own (n,) interpolant's.
    """
    x, vs, periodic = grid.points, np.asarray(values), grid.boundary == "periodic"
    if periodic:
        x, vs = np.append(x, grid.x_max), np.concatenate((vs, vs[..., :1]), axis=-1)

    def interp(pos):
        if periodic:
            pos = grid.x_min + np.mod(pos - grid.x_min, grid.length)
        return np.interp(pos, x, vs) if vs.ndim == 1 else [np.interp(pos, x, row) for row in vs]

    return interp


def _csv_text(column):
    if isinstance(column, np.ndarray):
        if column.dtype == bool:
            column = column.astype(np.int8)
        return map(repr, column.tolist())
    return column


def write_csv(path, header: str, blocks) -> None:
    """Write a header row, then the rows of each block, with LF line endings.

    A block is a tuple of equal-length columns, written as one string per
    block so the text held in memory is bounded by the largest block. A
    numpy column is numeric: each value is written as ``repr`` of its Python
    value, so a float64 prints in its shortest round-trip form (``nan``,
    ``inf`` and ``-0.0`` included), an integer as its digits and a bool as
    0 or 1. Any other column is a sequence of strings written as they are.
    A block's fields and separators are slotted into one list and joined
    once, with no per-row string.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for block in blocks:
            text = ([None, ","] * (len(block) - 1) + [None, "\n"]) * len(block[0])
            for j, column in enumerate(block):  # a column of another length raises ValueError
                text[2 * j :: 2 * len(block)] = _csv_text(column)
            fh.write("".join(text))


def wavefunction_to_csv(wf: GridWavefunction, path) -> None:
    """Write columns index,x,re,im with LF line endings."""
    amps = wf.amplitudes
    columns = (np.arange(wf.grid.n_points), wf.grid.points, amps.real, amps.imag)
    write_csv(path, "index,x,re,im", [columns])
