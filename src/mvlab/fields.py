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
* every CSV number is formatted here, as repr of its Python value, so floats
  read back exactly; write_csv writes every CSV file (write_snapshot_csv each
  per-snapshot table), a large one on every core; write_json every JSON file;
* every array a record holds is frozen by _freeze, once the record has
  converted it, copying it or keeping it as its type documents.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CommensurabilityError, DomainError, ResolutionError, _shown

BOUNDARIES = ("periodic", "dirichlet")


@dataclass(frozen=True)
class PhysicalParams:
    """Planck constant and particle mass, both strictly positive; hbar**2 and 1/hbar must be finite."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0.0 and math.isfinite(self.hbar * self.hbar) and math.isfinite(1.0 / self.hbar)):
            raise DomainError(f"hbar must be positive with a finite square and reciprocal, got {self.hbar}")
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
            raise DomainError(f"boundary must be one of {BOUNDARIES}, got {_shown(self.boundary)}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)


_FINITE_BLOCK_BYTES = 1 << 16  # data per finiteness check in _freeze: its bool temporary stays small


def _freeze(record, name: str, array: np.ndarray, shape: tuple, finite: bool = True) -> np.ndarray:
    """Set the converted array, read-only, as field `name` of a frozen record, and return it.

    Refuses a shape other than `shape` and, unless the array is a bool mask
    or `finite` is false (a NaN-means-never flag array), any NaN or Inf.
    The finiteness check is its one pass over the data, in blocks of leading
    rows of about _FINITE_BLOCK_BYTES (one row at least); it never copies.
    """
    if array.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {array.shape}")
    if finite and array.dtype != bool:
        step = max(1, _FINITE_BLOCK_BYTES // max(1, array[:1].nbytes))
        if not all(np.isfinite(array[i : i + step]).all() for i in range(0, len(array), step)):
            raise DomainError(f"NaN or Inf in {name}")
    array.flags.writeable = False
    object.__setattr__(record, name, array)
    return array


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex amplitudes sampled on a grid; copied and made read-only."""

    grid: SpatialGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        _freeze(self, "amplitudes", amps, (self.grid.n_points,))


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Real potential energy sampled on a grid; copied and made read-only."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "values", np.array(self.values, dtype=np.float64), (self.grid.n_points,))


def free_potential(grid: SpatialGrid) -> PotentialField:
    """V = 0 everywhere."""
    return PotentialField(grid, np.zeros(grid.n_points))


def harmonic_potential(grid: SpatialGrid, omega: float, params: PhysicalParams) -> PotentialField:
    """V = m*omega^2*x^2 / 2."""
    if not (omega > 0.0 and math.isfinite(omega * omega)):
        raise DomainError(f"omega must be positive with a finite square, got {omega}")
    x = grid.points
    reach = max(abs(float(x[0])), abs(float(x[-1])))  # the largest |x|
    if not math.isfinite(0.5 * params.mass * (omega * omega) * (reach * reach)):  # Python floats: inf, no warning
        raise DomainError(f"the harmonic potential 0.5*mass*omega**2*x**2 is past float "
                          f"range on the grid (omega={omega}, mass={params.mass})")
    return PotentialField(grid, 0.5 * params.mass * omega**2 * x**2)


def make_gaussian_packet(
    grid: SpatialGrid, x0: float, sigma: float, k0: float, params: PhysicalParams
) -> GridWavefunction:
    """Normalized Gaussian packet ~ exp(-(x-x0)^2/(4 sigma^2)) * exp(i k0 x).

    Requires x0 inside the grid, sigma >= 4*dx so the envelope is resolved,
    and |k0|*dx < pi so the phase step between cells is. Construction is
    deterministic: identical inputs give bitwise-identical amplitudes.
    """
    if not (grid.x_min < x0 < grid.x_max):
        raise DomainError(f"x0={x0} lies outside the grid ({grid.x_min}, {grid.x_max})")
    if not (sigma > 0.0 and math.isfinite(sigma * sigma)):
        raise DomainError(f"sigma must be positive with a finite square, got {sigma}")
    if not math.isfinite(k0 * max(abs(grid.x_min), abs(grid.x_max))):
        raise DomainError(f"k0 must be finite with a finite phase k0*x on the grid, got {k0}")
    if sigma < 4.0 * grid.dx:
        raise ResolutionError(
            f"sigma={sigma} under-resolved: need sigma >= 4*dx = {4.0 * grid.dx}"
        )
    if not abs(k0) * grid.dx < math.pi:
        raise ResolutionError(f"k0={k0} under-resolved: need |k0|*dx < pi, with dx = {grid.dx}")
    x = grid.points
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2)) * np.exp(1j * k0 * x)
    return normalize(GridWavefunction(grid, psi))


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


def grid_offset(grid: SpatialGrid, pos):
    """pos - x_min, wrapped into [0, length) on a periodic grid: the one wrap of a position."""
    return np.mod(pos - grid.x_min, grid.length) if grid.boundary == "periodic" else pos - grid.x_min


def interpolator(grid: SpatialGrid, values):
    """Linear interpolant of grid samples in position; periodic grids wrap the position.

    A (k, n) stack along the last axis gives a list of k rows per call, from
    one wrap of the positions; each row equals its own (n,) interpolant's.
    interp(pos, offset) takes a caller's offset = grid_offset(grid, pos) in
    place of wrapping pos again.
    """
    x, vs, periodic = grid.points, np.asarray(values), grid.boundary == "periodic"
    if periodic:
        x, vs = np.append(x, grid.x_max), np.concatenate((vs, vs[..., :1]), axis=-1)

    def interp(pos, offset=None):
        if periodic:
            pos = grid.x_min + (grid_offset(grid, pos) if offset is None else offset)
        return np.interp(pos, x, vs) if vs.ndim == 1 else [np.interp(pos, x, row) for row in vs]

    return interp


def _csv_text(column):
    """A numpy column's fields, repr of each Python value (a bool as 0 or 1); other columns as they are."""
    if isinstance(column, np.ndarray):
        if column.dtype == bool:
            column = column.astype(np.int8)
        return list(map(repr, column.tolist()))
    return column


@dataclass(frozen=True)
class LazyBlocks:
    """A sized sequence of CSV blocks built on demand: the i-th is block(i), for i < count."""

    count: int
    block: Callable

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int):
        if not 0 <= i < self.count:
            raise IndexError(i)
        return self.block(i)


# repr fields per block range below which a forked worker costs more than it saves: at about
# 0.5 us per float field a range takes 30 ms or more. Joined text is cheaper than any fork
# pays back: the 2^16-row branch tree, three string columns, wrote in 26-28 ms in one
# process and 36-42 ms split over two (medians of 15 writes on 2 cores, where two busy
# processes ran 0.94-2.06 times as fast as one)
MIN_FIELDS_PER_RANGE = 1 << 16
_ERROR_BYTES = 4096  # a worker's error message, at most; fits an empty pipe without blocking


def _block_ranges(count: int, first) -> list[int]:
    """Bounds of the k contiguous ranges of count blocks that write_csv formats: k is 1 unless
    they hold MIN_FIELDS_PER_RANGE repr fields per range on k cores, priced from first, the
    first block, by its numpy columns alone (a string column is only joined)."""
    k = 1
    if count > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        fields = count * sum(len(column) for column in first if isinstance(column, np.ndarray))
        k = max(1, min(len(os.sched_getaffinity(0)), count, fields // MIN_FIELDS_PER_RANGE))
    return [count * i // k for i in range(k + 1)]


def _format_range(path, head: str, blocks) -> None:
    """Write head, then the rows of each block in the iterable blocks, to path."""
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        for block in blocks:
            text = ([None, ","] * (len(block) - 1) + [None, "\n"]) * len(block[0])
            for j, column in enumerate(block):  # a column of another length raises ValueError
                text[2 * j :: 2 * len(block)] = _csv_text(column)
            fh.write("".join(text))


def _fork_worker(part: str, blocks) -> tuple[int, int]:
    """Fork a process that formats the iterable blocks into part and exits: (pid, read end of its error pipe)."""
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() in any process with a second native thread,
            # numpy's idle BLAS pool included; the worker calls no BLAS, it formats text.
            # The CLI starts no pool; the filter stays for library callers, who may have one.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the worker never returns into its caller's frames
        status = 1
        try:
            os.close(read_end)
            _format_range(part, "", blocks)
            status = 0
        except BaseException as exc:  # reported by the pipe and the exit status
            os.write(write_end, f"{type(exc).__name__}: {exc}".encode(errors="replace")[:_ERROR_BYTES])
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def write_csv(path, header: str, blocks) -> None:
    """Write a header row, then the rows of each block, with LF line endings.

    blocks is a sized sequence (a list, or LazyBlocks to build each block on
    demand); a block is a tuple of equal-length columns, written as one
    string per block so the text held in memory is bounded by the largest
    block. A numpy column is numeric: each value is written as ``repr`` of
    its Python value, so a float64 prints in its shortest round-trip form
    (``nan``, ``inf`` and ``-0.0`` included), an integer as its digits and a
    bool as 0 or 1. Any other column is a sequence of strings written as they
    are. A block's fields and separators are slotted into one list and joined
    once, with no per-row string.

    Large outputs are formatted on up to one core each: the blocks split
    into k contiguous ranges of at least MIN_FIELDS_PER_RANGE numeric
    fields, those that need ``repr``, counted from the first block's numpy
    columns (a string column is only joined, so a table of strings alone is
    written serially). This process writes range 0 to path while k - 1
    forked workers write the others to ``<path>.part<i>`` beside it, which
    are then appended in order and deleted. The bytes are those of k = 1,
    the only case for small files or where os.fork or os.sched_getaffinity
    is missing. Each block is built once. A worker that fails raises
    OSError naming its error; no part file or child process outlives the
    call.
    """
    first = blocks[0] if len(blocks) else None  # built once: it prices the plan and opens range 0
    bounds = _block_ranges(len(blocks), first)
    parts = [f"{os.fspath(path)}.part{i}" for i in range(1, len(bounds) - 1)]
    running, pipes = {}, []
    try:
        for i, part in enumerate(parts, 1):
            running[part], pipe = _fork_worker(part, map(blocks.__getitem__, range(bounds[i], bounds[i + 1])))
            pipes.append(pipe)
        _format_range(path, header + "\n", (first if i == 0 else blocks[i] for i in range(bounds[1])))
        for part, pipe in zip(parts, pipes):
            status = os.waitpid(running[part], 0)[1]
            del running[part]
            if os.WIFSIGNALED(status):
                raise OSError(f"CSV worker for {part} failed: killed by signal {os.WTERMSIG(status)}")
            if status:
                error = os.read(pipe, _ERROR_BYTES).decode(errors="replace")
                raise OSError(f"CSV worker for {part} failed: {error or os.waitstatus_to_exitcode(status)}")
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out, 1 << 20)
    finally:
        if running:  # a range failed: the other workers' output is moot
            import signal  # only here, so importing mvlab does not load it

            for pid in running.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            os.close(pipe)
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def write_snapshot_csv(path, header: str, times, labels, columns: Callable) -> None:
    """Write one block per recorded time s, a row times[s], label, *columns(s) for each label."""
    t_texts, label_texts = _csv_text(times), _csv_text(labels)

    def block(s):
        return [t_texts[s]] * len(label_texts), label_texts, *columns(s)

    write_csv(path, header, LazyBlocks(len(t_texts), block))


def write_json(path, payload) -> None:
    """Write payload as JSON with sorted keys and a 2-space indent, a final newline and LF endings.

    Strict JSON: a NaN or infinite value raises ValueError before the file is opened.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
