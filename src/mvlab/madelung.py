"""Polar decomposition psi = R*exp(i*phi/hbar) and its hydrodynamic checks.

The phase phi carries action units; it is defined modulo 2*pi*hbar, so any
continuous unwrapped representative gives the same gradient, which is all the
downstream physics uses. Unwrapping never crosses a node: each node-free
segment unwraps independently, anchored at its own modulus maximum where phi
takes its principal value in (-pi*hbar, pi*hbar].

decompose takes an (n,) field or a record's (T, n) stack, which record_polars
caches for every consumer; the residual pair reads that stack RESIDUAL_BLOCK
interior snapshots at a time, through one blocked pass.
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

# interior rows per block of the residual pair: at n=2048, 16 rows add 1.8 MiB
# to the report's own field and mask, where (T-2, n) temporaries added 19 MiB
RESIDUAL_BLOCK = 16


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


def node_zone(mask: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """The zone all node checks exclude: mask widened by MASK_DILATION points along the last axis."""
    out = mask.copy()
    for _ in range(MASK_DILATION):
        if grid.boundary == "periodic":
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
    source, params: PhysicalParams, node_epsilon: float = DEFAULT_NODE_EPSILON
) -> PolarField:
    """Split psi into modulus R and unwrapped phase phi with R*exp(i*phi/hbar) = psi.

    source has a .grid and (n,) or (T, n) .amplitudes (a GridWavefunction or an
    EvolutionRecord); each row of the like-shaped PolarField is decomposed on its own.
    """
    if not (0.0 < node_epsilon <= 0.1):
        raise DomainError(f"node_epsilon must lie in (0, 0.1], got {node_epsilon}")
    psi = source.amplitudes
    R = np.abs(psi)
    r_max = R.max(axis=-1, keepdims=True)
    if (r_max == 0.0).any():
        raise DomainError("cannot decompose an identically zero wavefunction")
    mask = R < node_epsilon * r_max
    phi = np.angle(psi)  # the principal angle, overwritten segment by segment
    for r, angle, m in zip(np.atleast_2d(R), np.atleast_2d(phi), np.atleast_2d(mask)):
        # node-free segments are the runs of ~m, read off the mask's edges
        edges = np.flatnonzero(np.diff(np.concatenate(([False], ~m, [False]))))
        for start, stop in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            seg = slice(start, stop)
            theta = np.unwrap(angle[seg])
            anchor = int(np.argmax(r[seg]))
            # unwrap preserves values mod 2*pi, so this shift count is an integer
            shift = round((theta[anchor] - angle[seg][anchor]) / (2.0 * np.pi))
            angle[seg] = params.hbar * (theta - 2.0 * np.pi * shift)
    np.multiply(phi, params.hbar, out=phi, where=mask)  # masked points keep their principal value
    return PolarField(source.grid, R, phi, mask)


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
    """The record decomposed into one (T, n) stack: one decompose call, held on the record.

    The stack is keyed by (hbar, node_epsilon), since the record holds no
    hbar of its own; a call with another key rebuilds it, so a record holds
    at most one stack.
    """
    key = (params.hbar, node_epsilon)
    if record._polars is None or record._polars[0] != key:
        object.__setattr__(record, "_polars", (key, decompose(record, params, node_epsilon)))
    return record._polars[1]


def _polar_stack(record, params, node_epsilon):
    """The record's polar stack and time step; centered time differences need 3 snapshots."""
    times = record.times
    if times.size < 3:
        raise DomainError("residuals need at least 3 snapshots for centered time differences")
    return record_polars(record, params, node_epsilon), (times[-1] - times[0]) / (len(times) - 1)


def _blocked_report(record, polars, terms):
    """The (T-2, n) residual, masked near nodes (and dirichlet ends) and summarised.

    terms(R, phi, nodes) takes the polar stack's rows lo..hi+1 and returns the
    residual and its rate on the interior rows between them, snapshots
    lo+1..hi. The pass runs RESIDUAL_BLOCK interior rows at a time into the
    preallocated field and mask, so no (T-2, n) temporary is built. The
    report is bit for bit the whole-stack one: every kernel works along the
    last axis, each per-time sum is a 1-D sum over one row, and max is exact.
    """
    grid = record.grid
    periodic = grid.boundary == "periodic"
    rows = len(polars) - 2
    field = np.empty((rows, grid.n_points))
    mask = np.empty((rows, grid.n_points), dtype=bool)
    sq_per_time = []
    scale = 0.0
    for lo in range(0, rows, RESIDUAL_BLOCK):
        hi = min(lo + RESIDUAL_BLOCK, rows)
        window = slice(lo, hi + 2)
        nodes = polars.node_mask[window]
        residual, rate = terms(polars.R[window], polars.phi[window], nodes)
        masked = node_zone(nodes[:-2] | nodes[1:-1] | nodes[2:], grid)
        if not periodic:
            masked[:, :MASK_DILATION] = True
            masked[:, -MASK_DILATION:] = True
        keep = ~masked
        # one sum per time, as a 1-D sum: an axis=1 reduction may round differently
        sq_per_time += [
            float(np.sum(r[k] ** 2) * grid.dx) if k.any() else 0.0 for r, k in zip(residual, keep)
        ]
        if keep.any():
            scale = np.maximum(scale, np.max(np.abs(rate[keep])))  # NaN propagates, as in one max
        residual[masked] = np.nan
        field[lo:hi] = residual
        mask[lo:hi] = masked
    scalar = float(np.sqrt(np.mean(sq_per_time)))
    return ResidualReport(record.times[1:-1].copy(), field, mask, scalar, float(scale))


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

    def terms(R, phi, nodes):
        d_density_dt = (R[2:] ** 2 - R[:-2] ** 2) / (2.0 * dt)
        flux = phase_gradient(phi[1:-1], grid, params.hbar) * R[1:-1] ** 2 / params.mass
        return d_density_dt + gradient(flux, grid), d_density_dt

    return _blocked_report(record, polars, terms)


def hamilton_jacobi_residual(
    record: "EvolutionRecord",
    V: PotentialField,
    params: PhysicalParams,
    node_epsilon: float = DEFAULT_NODE_EPSILON,
) -> ResidualReport:
    """Residual of dphi/dt + (grad phi)^2/2m + V - (hbar^2/2m) lap(R)/R.

    The last term is the quantum potential contribution; with it the phase
    obeys a classical-looking evolution law, which is the second half of the
    decomposition identity. V must be the potential the record evolved in.
    """
    grid = record.grid
    if V.grid != grid or not np.array_equal(V.values, record.potential.values):
        raise DomainError("the potential is not the one the record evolved in")
    polars, dt = _polar_stack(record, params, node_epsilon)
    period = 2.0 * np.pi * params.hbar

    def terms(R, phi, nodes):
        # per-snapshot unwrapping fixes phi only up to 2*pi*hbar per segment; wrapping
        # each increment removes that ambiguity provided |dphi/dt|*dt < pi*hbar
        rate = (_wrap(phi[2:] - phi[1:-1], period) + _wrap(phi[1:-1] - phi[:-2], period)) / (2.0 * dt)
        # rate + (grad phi)^2/2m + V - (hbar^2/2m) lap(R)/R, summed in that order, in place
        residual = rate + phase_gradient(phi[1:-1], grid, params.hbar) ** 2 / (2.0 * params.mass)
        residual += V.values
        curvature = laplacian(R[1:-1], grid) / np.where(nodes[1:-1], 1.0, R[1:-1])
        residual -= (params.hbar**2 / (2.0 * params.mass)) * curvature
        return residual, rate

    return _blocked_report(record, polars, terms)


def polar_to_csv(polar: PolarField, path) -> None:
    """Write columns x,R,phi,mask with LF line endings."""
    if polar.R.ndim != 1:
        raise DomainError("polar_to_csv writes one snapshot, not a (T, n) stack: pass polar[s]")
    write_csv(path, "x,R,phi,mask", [(polar.grid.points, polar.R, polar.phi, polar.node_mask)])


def quantum_potential_to_csv(field: QuantumPotentialField, path) -> None:
    """Write columns x,U with LF line endings (NaN where masked)."""
    write_csv(path, "x,U", [(field.grid.points, field.U_quantum)])
