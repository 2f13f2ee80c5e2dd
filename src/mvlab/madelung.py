"""Polar decomposition psi = R*exp(i*phi/hbar) and its hydrodynamic checks.

The phase phi carries action units; it is defined modulo 2*pi*hbar, so any
continuous unwrapped representative gives the same gradient, which is all the
downstream physics uses. Unwrapping never crosses a node: each node-free
segment unwraps independently, anchored at its own modulus maximum where phi
takes its principal value in (-pi*hbar, pi*hbar].

A record is decomposed once, by record_polars, into one (T, n) PolarField
stack that every consumer reads; the residual pair is whole-stack arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .fields import (
    GridWavefunction,
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    _freeze,
    gradient,
    laplacian,
    write_csv,
)

if TYPE_CHECKING:
    from .evolution import EvolutionRecord

DEFAULT_NODE_EPSILON = 1e-6

# Stencil radius by which node masks are widened before derivatives are
# trusted: a centered stencil touching a node point reads garbage phase.
MASK_DILATION = 2


@dataclass(frozen=True, eq=False)
class PolarField:
    """Modulus R >= 0 and unwrapped phase phi (action units) on a grid.

    R, phi and node_mask share the shape (n,), or (T, n) for a stack whose
    polar[s] is snapshot s; the arrays are kept, not copied, and made read-only.
    """

    grid: SpatialGrid
    R: np.ndarray
    phi: np.ndarray
    node_mask: np.ndarray

    def __post_init__(self):
        n = self.grid.n_points
        R = np.asarray(self.R, dtype=np.float64)
        if R.ndim not in (1, 2) or R.shape[-1] != n:
            raise DomainError(f"R must have shape ({n},) or (T, {n}), got {R.shape}")
        for name, dtype in (("R", np.float64), ("phi", np.float64), ("node_mask", bool)):
            _freeze(self, name, np.asarray(getattr(self, name), dtype=dtype), R.shape)
        if np.any(R < 0.0):
            raise DomainError("R must be nonnegative")

    def __len__(self) -> int:
        if self.R.ndim != 2:
            raise TypeError("a single-snapshot PolarField has no length")
        return len(self.R)

    def __getitem__(self, s) -> "PolarField":
        return PolarField(self.grid, self.R[s], self.phi[s], self.node_mask[s])


@dataclass(frozen=True, eq=False)
class QuantumPotentialField:
    """The modulus-curvature term -(hbar^2/2m) * lap(R)/R; NaN where masked."""

    grid: SpatialGrid
    U_quantum: np.ndarray
    node_mask: np.ndarray


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Pointwise residual of a transport identity plus its summary norms.

    field has one row per interior snapshot time and NaN where masked;
    scalar is the dx-weighted L2 norm averaged over those times, and scale
    is the largest time-derivative magnitude, so scalar/scale is the
    dimensionless figure used by the convergence criteria.
    """

    times: np.ndarray
    field: np.ndarray
    mask: np.ndarray
    scalar: float
    scale: float

    @property
    def relative(self) -> float:
        return self.scalar / self.scale if self.scale > 0.0 else self.scalar


def dilate_mask(mask: np.ndarray, cells: int, periodic: bool) -> np.ndarray:
    """Widen a boolean mask by `cells` grid points on each side, along the last axis."""
    out = mask.copy()
    for _ in range(cells):
        if periodic:
            out = out | np.roll(out, 1, axis=-1) | np.roll(out, -1, axis=-1)
        else:
            grown = out.copy()
            grown[..., 1:] |= out[..., :-1]
            grown[..., :-1] |= out[..., 1:]
            out = grown
    return out


def _wrap(delta: np.ndarray, period: float) -> np.ndarray:
    """Shift each value by a multiple of `period` into (-period/2, period/2]."""
    return delta - period * np.round(delta / period)


def decompose(
    wf: GridWavefunction, params: PhysicalParams, node_epsilon: float = DEFAULT_NODE_EPSILON
) -> PolarField:
    """Split psi into modulus R and unwrapped phase phi with R*exp(i*phi/hbar) = psi."""
    if not (0.0 < node_epsilon <= 0.1):
        raise DomainError(f"node_epsilon must lie in (0, 0.1], got {node_epsilon}")
    R = np.abs(wf.amplitudes)
    r_max = float(R.max())
    if r_max == 0.0:
        raise DomainError("cannot decompose an identically zero wavefunction")
    mask = R < node_epsilon * r_max
    angle = np.angle(wf.amplitudes)
    phi = params.hbar * angle  # masked points keep their principal value

    # node-free segments are the runs of ~mask, read off the mask's edges
    edges = np.flatnonzero(np.diff(np.concatenate(([False], ~mask, [False]))))
    for start, stop in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        seg = slice(start, stop)
        theta = np.unwrap(angle[seg])
        anchor = int(np.argmax(R[seg]))
        # unwrap preserves values mod 2*pi, so this shift count is an integer
        shift = round((theta[anchor] - angle[seg][anchor]) / (2.0 * np.pi))
        phi[seg] = params.hbar * (theta - 2.0 * np.pi * shift)
    return PolarField(wf.grid, R, phi, mask)


def recompose(polar: PolarField, params: PhysicalParams) -> GridWavefunction:
    """Inverse of decompose: psi_j = R_j * exp(i*phi_j/hbar)."""
    return GridWavefunction(polar.grid, polar.R * np.exp(1j * polar.phi / params.hbar))


def phase_gradient(phi: np.ndarray, grid: SpatialGrid, hbar: float) -> np.ndarray:
    """Centered gradient of the phase along the last axis, branch-safe.

    Neighbor differences are wrapped into (-pi*hbar, pi*hbar] before
    averaging, so independently unwrapped segments and the periodic seam
    (where the unwrapped phase may wind) difference correctly. Assumes the
    true phase change per cell is below pi*hbar, the same sampling condition
    the unwrap itself needs.
    """
    period = 2.0 * np.pi * hbar
    dx = grid.dx
    if grid.boundary == "periodic":
        fwd = _wrap(np.roll(phi, -1, axis=-1) - phi, period)
        return (fwd + np.roll(fwd, 1, axis=-1)) / (2.0 * dx)
    fwd = _wrap(phi[..., 1:] - phi[..., :-1], period)
    out = np.empty_like(phi)
    out[..., 1:-1] = (fwd[..., 1:] + fwd[..., :-1]) / (2.0 * dx)
    out[..., 0] = (3.0 * fwd[..., 0] - fwd[..., 1]) / (2.0 * dx)
    out[..., -1] = (3.0 * fwd[..., -1] - fwd[..., -2]) / (2.0 * dx)
    return out


def quantum_potential(polar: PolarField, params: PhysicalParams) -> QuantumPotentialField:
    """U_j = -(hbar^2/2m) * (lap R)_j / R_j, NaN at nodes (and dirichlet ends)."""
    mask = polar.node_mask.copy()
    if polar.grid.boundary == "dirichlet":
        mask[..., 0] = mask[..., -1] = True
    d2R = laplacian(polar.R, polar.grid)
    safe_R = np.where(mask, 1.0, polar.R)
    U = -(params.hbar**2 / (2.0 * params.mass)) * d2R / safe_R
    U = np.where(mask, np.nan, U)
    return QuantumPotentialField(polar.grid, U, mask)


def universe_density(polar: PolarField) -> np.ndarray:
    """R^2 per grid point; its Riemann sum is the squared norm."""
    return polar.R**2


def record_polars(
    record: "EvolutionRecord", params: PhysicalParams, node_epsilon: float = DEFAULT_NODE_EPSILON
) -> PolarField:
    """The record's snapshots decomposed into one (T, n) stack, one decompose call per row.

    Rows are written into preallocated arrays, so no second copy is held.
    The stack is held on the record keyed by (hbar, node_epsilon); a call
    with another key rebuilds it, so a record holds at most one stack.
    """
    key = (params.hbar, node_epsilon)
    if record._polars is None or record._polars[0] != key:
        grid, shape = record.grid, record.amplitudes.shape
        R, phi, mask = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        for s, row in enumerate(record.amplitudes):
            polar = decompose(GridWavefunction(grid, row), params, node_epsilon)
            R[s], phi[s], mask[s] = polar.R, polar.phi, polar.node_mask
        object.__setattr__(record, "_polars", (key, PolarField(grid, R, phi, mask)))
    return record._polars[1]


def _polar_stack(record, params, node_epsilon):
    """The record's polar stack and time step; centered time differences need 3 snapshots."""
    times = record.times
    if times.size < 3:
        raise DomainError("residuals need at least 3 snapshots for centered time differences")
    return record_polars(record, params, node_epsilon), (times[-1] - times[0]) / (len(times) - 1)


def _residual_report(record, polars, residual, rate):
    """Mask the (T-2, n) residual and rate near nodes (and dirichlet ends) and summarise them.

    The masked residual becomes the report's field in place: each (T-2, n)
    temporary held here adds to the peak memory of the residual pair.
    """
    grid = record.grid
    periodic = grid.boundary == "periodic"
    nodes = polars.node_mask
    mask = dilate_mask(nodes[:-2] | nodes[1:-1] | nodes[2:], MASK_DILATION, periodic)
    if not periodic:
        mask[:, :MASK_DILATION] = True
        mask[:, -MASK_DILATION:] = True
    keep = ~mask
    # one sum per time, as a 1-D sum: an axis=1 reduction may round differently
    sq_per_time = [
        float(np.sum(r[k] ** 2) * grid.dx) if k.any() else 0.0 for r, k in zip(residual, keep)
    ]
    scalar = float(np.sqrt(np.mean(sq_per_time)))
    scale = float(np.max(np.abs(rate[keep]))) if keep.any() else 0.0
    residual[mask] = np.nan
    return ResidualReport(record.times[1:-1].copy(), residual, mask, scalar, scale)


def continuity_residual(
    record: "EvolutionRecord",
    params: PhysicalParams,
    node_epsilon: float = DEFAULT_NODE_EPSILON,
) -> ResidualReport:
    """Residual of d(R^2)/dt + div(R^2 * grad(phi)/m) on interior snapshots.

    Vanishes to second order in dx and dt for any wavefunction transported
    by the wave equation: R^2 is a conserved density carried by the phase
    flow.
    """
    grid = record.grid
    polars, dt = _polar_stack(record, params, node_epsilon)
    R = polars.R
    d_density_dt = (R[2:] ** 2 - R[:-2] ** 2) / (2.0 * dt)
    flux = phase_gradient(polars.phi[1:-1], grid, params.hbar) * R[1:-1] ** 2 / params.mass
    return _residual_report(record, polars, d_density_dt + gradient(flux, grid), d_density_dt)


def hamilton_jacobi_residual(
    record: "EvolutionRecord",
    V: PotentialField,
    params: PhysicalParams,
    node_epsilon: float = DEFAULT_NODE_EPSILON,
) -> ResidualReport:
    """Residual of dphi/dt + (grad phi)^2/2m + V - (hbar^2/2m) lap(R)/R.

    The last term is the quantum potential contribution; with it the phase
    obeys a classical-looking evolution law, which is the second half of the
    decomposition identity.
    """
    grid = record.grid
    if V.grid != grid:
        raise DomainError("potential grid does not match the record's grid")
    polars, dt = _polar_stack(record, params, node_epsilon)
    phi, R, period = polars.phi, polars.R[1:-1], 2.0 * np.pi * params.hbar
    # per-snapshot unwrapping fixes phi only up to 2*pi*hbar per segment; wrapping
    # each increment removes that ambiguity provided |dphi/dt|*dt < pi*hbar
    rate = (_wrap(phi[2:] - phi[1:-1], period) + _wrap(phi[1:-1] - phi[:-2], period)) / (2.0 * dt)
    # rate + (grad phi)^2/2m + V - (hbar^2/2m) lap(R)/R, summed in that order, in place
    residual = rate + phase_gradient(phi[1:-1], grid, params.hbar) ** 2 / (2.0 * params.mass)
    residual += V.values
    curvature = laplacian(R, grid) / np.where(polars.node_mask[1:-1], 1.0, R)
    residual -= (params.hbar**2 / (2.0 * params.mass)) * curvature
    return _residual_report(record, polars, residual, rate)


def polar_to_csv(polar: PolarField, path) -> None:
    """Write columns x,R,phi,mask with LF line endings."""
    if polar.R.ndim != 1:
        raise DomainError("polar_to_csv writes one snapshot, not a (T, n) stack: pass polar[s]")
    write_csv(path, "x,R,phi,mask", [(polar.grid.points, polar.R, polar.phi, polar.node_mask)])


def quantum_potential_to_csv(field: QuantumPotentialField, path) -> None:
    """Write columns x,U with LF line endings (NaN where masked)."""
    write_csv(path, "x,U", [(field.grid.points, field.U_quantum)])
