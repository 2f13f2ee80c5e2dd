"""Polar decomposition psi = R*exp(i*phi/hbar) and its hydrodynamic checks.

The phase phi carries action units; it is defined modulo 2*pi*hbar, so any
continuous unwrapped representative gives the same gradient, which is all the
downstream physics uses. Unwrapping never crosses a node: each node-free
segment unwraps independently, anchored at its own modulus maximum where phi
takes its principal value in (-pi*hbar, pi*hbar].
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
    """Modulus R >= 0 and unwrapped phase phi (action units) on a grid."""

    grid: SpatialGrid
    R: np.ndarray
    phi: np.ndarray
    node_mask: np.ndarray

    def __post_init__(self):
        for name in ("R", "phi"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.grid.n_points,):
                raise DomainError(f"{name} must have shape ({self.grid.n_points},)")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} contains NaN or Inf")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.R < 0.0):
            raise DomainError("R must be nonnegative")
        mask = np.array(self.node_mask, dtype=bool)
        if mask.shape != (self.grid.n_points,):
            raise DomainError(f"node_mask must have shape ({self.grid.n_points},)")
        mask.flags.writeable = False
        object.__setattr__(self, "node_mask", mask)


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
    """Widen a boolean mask by `cells` grid points on each side."""
    out = mask.copy()
    for _ in range(cells):
        if periodic:
            out = out | np.roll(out, 1) | np.roll(out, -1)
        else:
            grown = out.copy()
            grown[1:] |= out[:-1]
            grown[:-1] |= out[1:]
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
    """Centered gradient of the phase, branch-safe.

    Neighbor differences are wrapped into (-pi*hbar, pi*hbar] before
    averaging, so independently unwrapped segments and the periodic seam
    (where the unwrapped phase may wind) difference correctly. Assumes the
    true phase change per cell is below pi*hbar, the same sampling condition
    the unwrap itself needs.
    """
    period = 2.0 * np.pi * hbar
    dx = grid.dx
    if grid.boundary == "periodic":
        fwd = _wrap(np.roll(phi, -1) - phi, period)
        return (fwd + np.roll(fwd, 1)) / (2.0 * dx)
    fwd = _wrap(phi[1:] - phi[:-1], period)
    out = np.empty_like(phi)
    out[1:-1] = (fwd[1:] + fwd[:-1]) / (2.0 * dx)
    out[0] = (3.0 * fwd[0] - fwd[1]) / (2.0 * dx)
    out[-1] = (3.0 * fwd[-1] - fwd[-2]) / (2.0 * dx)
    return out


def quantum_potential(polar: PolarField, params: PhysicalParams) -> QuantumPotentialField:
    """U_j = -(hbar^2/2m) * (lap R)_j / R_j, NaN at nodes (and dirichlet ends)."""
    mask = polar.node_mask.copy()
    if polar.grid.boundary == "dirichlet":
        mask[0] = mask[-1] = True
    d2R = laplacian(polar.R, polar.grid)
    safe_R = np.where(mask, 1.0, polar.R)
    U = -(params.hbar**2 / (2.0 * params.mass)) * d2R / safe_R
    U = np.where(mask, np.nan, U)
    return QuantumPotentialField(polar.grid, U, mask)


def universe_density(polar: PolarField) -> np.ndarray:
    """R^2 per grid point; its Riemann sum is the squared norm."""
    return polar.R**2


def _record_polars(record, params, node_epsilon):
    return [decompose(wf, params, node_epsilon) for wf in record.snapshots]


def _phase_rate(phi_prev, phi_mid, phi_next, hbar, dt):
    """Centered time derivative of phi from branch-wrapped increments.

    Per-snapshot unwrapping fixes phi only up to 2*pi*hbar per segment, so
    raw differences across time are branch-ambiguous; wrapping each pointwise
    increment removes the ambiguity provided |dphi/dt|*dt < pi*hbar.
    """
    period = 2.0 * np.pi * hbar
    return (_wrap(phi_next - phi_mid, period) + _wrap(phi_mid - phi_prev, period)) / (2.0 * dt)


def _residual_core(record, params, node_epsilon, pointwise):
    if len(record.snapshots) < 3:
        raise DomainError("residuals need at least 3 snapshots for centered time differences")
    polars = _record_polars(record, params, node_epsilon)
    grid = record.snapshots[0].grid
    periodic = grid.boundary == "periodic"
    times = record.times
    dt = (times[-1] - times[0]) / (len(times) - 1)

    rows, masks = [], []
    for i in range(1, len(polars) - 1):
        prev_p, mid, next_p = polars[i - 1], polars[i], polars[i + 1]
        residual, rate = pointwise(prev_p, mid, next_p, dt)
        mask = dilate_mask(
            prev_p.node_mask | mid.node_mask | next_p.node_mask, MASK_DILATION, periodic
        )
        if not periodic:
            mask[:MASK_DILATION] = True
            mask[-MASK_DILATION:] = True
        rows.append((residual, rate))
        masks.append(mask)

    field = np.array([np.where(m, np.nan, r) for (r, _), m in zip(rows, masks)])
    mask_arr = np.array(masks)
    keep = ~mask_arr
    sq_per_time = [
        float(np.sum(r[~m] ** 2) * grid.dx) if np.any(~m) else 0.0
        for (r, _), m in zip(rows, masks)
    ]
    scalar = float(np.sqrt(np.mean(sq_per_time)))
    rates = np.array([rate for _, rate in rows])
    scale = float(np.max(np.abs(rates[keep]))) if np.any(keep) else 0.0
    return ResidualReport(times[1:-1].copy(), field, mask_arr, scalar, scale)


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
    grid = record.snapshots[0].grid

    def pointwise(prev_p, mid, next_p, dt):
        d_density_dt = (next_p.R**2 - prev_p.R**2) / (2.0 * dt)
        flux = mid.R**2 * phase_gradient(mid.phi, grid, params.hbar) / params.mass
        return d_density_dt + gradient(flux, grid), d_density_dt

    return _residual_core(record, params, node_epsilon, pointwise)


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
    grid = record.snapshots[0].grid
    if V.grid != grid:
        raise DomainError("potential grid does not match the record's grid")

    def pointwise(prev_p, mid, next_p, dt):
        rate = _phase_rate(prev_p.phi, mid.phi, next_p.phi, params.hbar, dt)
        grad_phi = phase_gradient(mid.phi, grid, params.hbar)
        safe_R = np.where(mid.node_mask, 1.0, mid.R)
        curvature = laplacian(mid.R, grid) / safe_R
        residual = (
            rate
            + grad_phi**2 / (2.0 * params.mass)
            + V.values
            - (params.hbar**2 / (2.0 * params.mass)) * curvature
        )
        return residual, rate

    return _residual_core(record, params, node_epsilon, pointwise)


def polar_to_csv(polar: PolarField, path) -> None:
    """Write columns x,R,phi,mask with LF line endings."""
    write_csv(path, "x,R,phi,mask", [(polar.grid.points, polar.R, polar.phi, polar.node_mask)])


def quantum_potential_to_csv(field: QuantumPotentialField, path) -> None:
    """Write columns x,U with LF line endings (NaN where masked)."""
    write_csv(path, "x,U", [(field.grid.points, field.U_quantum)])
