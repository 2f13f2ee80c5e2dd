"""Polar decomposition psi = R*exp(i*phi/hbar) and its hydrodynamic checks.

The phase phi carries action units; it is defined modulo 2*pi*hbar, so any
continuous unwrapped representative gives the same gradient, which is all the
downstream physics uses. Unwrapping never crosses a node: each node-free
segment unwraps independently, anchored at its own modulus maximum where phi
takes its principal value in (-pi*hbar, pi*hbar].

decompose takes an (n,) field, a record's (T, n) stack or a window of its rows.
The residual pair streams a record: one pass decomposes RESIDUAL_BLOCK + 2 rows
at a time and computes both residuals from each window, so no (T, n) polar or
residual array is ever held; the record keeps the two small reports.
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

# interior rows per window of the residual pass, which decomposes 2 more: the pass peaks at
# about 15 window-sized float64 arrays (4.5 MiB at n=2048), whatever the record's length
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
    """Summary norms of a transport identity's residual over the interior snapshot times.

    sq_per_time holds the dx-weighted sum of squares of the unmasked residual
    at each of those times (read-only); scalar is the root of their mean, and
    scale is the largest time-derivative magnitude, so scalar/scale is the
    dimensionless figure used by the convergence criteria.
    """

    times: np.ndarray
    sq_per_time: np.ndarray
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
    source, params: PhysicalParams, node_epsilon: float = DEFAULT_NODE_EPSILON, rows=slice(None)
) -> PolarField:
    """Split psi into modulus R and unwrapped phase phi with R*exp(i*phi/hbar) = psi.

    source has a .grid and (n,) or (T, n) .amplitudes (a GridWavefunction or an
    EvolutionRecord); rows picks a record's snapshots, an index or a slice. Each
    row of the like-shaped PolarField is decomposed on its own, so a window of
    rows has the bits of those rows of the whole stack.
    """
    if not (0.0 < node_epsilon <= 0.1):
        raise DomainError(f"node_epsilon must lie in (0, 0.1], got {node_epsilon}")
    psi = source.amplitudes[rows]
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


def _residual_windows(record: "EvolutionRecord", params: PhysicalParams, node_epsilon: float):
    """Per window of interior rows: keep, then each residual with its rate, continuity first.

    Interior rows lo..hi-1 are snapshots lo+1..hi, whose centered differences
    read snapshots lo..hi+1; those RESIDUAL_BLOCK + 2 rows are all a window
    decomposes. keep is False on the node zone of the three snapshots (and
    near dirichlet ends). Every kernel works along the last axis, so each
    window has the bits of the same rows of a whole-stack pass; the two
    residuals share the window's phase gradient and mask.
    """
    grid, times = record.grid, record.times
    if times.size < 3:
        raise DomainError("residuals need at least 3 snapshots for centered time differences")
    dt = (times[-1] - times[0]) / (len(times) - 1)
    hbar, mass = params.hbar, params.mass
    period = 2.0 * np.pi * hbar
    rows = len(times) - 2
    for lo in range(0, rows, RESIDUAL_BLOCK):
        hi = min(lo + RESIDUAL_BLOCK, rows)
        polar = decompose(record, params, node_epsilon, slice(lo, hi + 2))
        R, phi, nodes = polar.R, polar.phi, polar.node_mask
        masked = node_zone(nodes[:-2] | nodes[1:-1] | nodes[2:], grid)
        if grid.boundary != "periodic":
            masked[:, :MASK_DILATION] = True
            masked[:, -MASK_DILATION:] = True
        grad_phi = phase_gradient(phi[1:-1], grid, hbar)

        d_density_dt = (R[2:] ** 2 - R[:-2] ** 2) / (2.0 * dt)
        flux = grad_phi * R[1:-1] ** 2 / mass
        continuity = d_density_dt + gradient(flux, grid)

        # per-snapshot unwrapping fixes phi only up to 2*pi*hbar per segment; wrapping
        # each increment removes that ambiguity provided |dphi/dt|*dt < pi*hbar
        rate = (_wrap(phi[2:] - phi[1:-1], period) + _wrap(phi[1:-1] - phi[:-2], period)) / (2.0 * dt)
        # rate + (grad phi)^2/2m + V - (hbar^2/2m) lap(R)/R, summed in that order, in place
        hamilton_jacobi = rate + grad_phi**2 / (2.0 * mass)
        hamilton_jacobi += record.potential.values
        curvature = laplacian(R[1:-1], grid) / np.where(nodes[1:-1], 1.0, R[1:-1])
        hamilton_jacobi -= (hbar**2 / (2.0 * mass)) * curvature
        yield ~masked, (continuity, d_density_dt), (hamilton_jacobi, rate)


def _residual_pair(record: "EvolutionRecord", params: PhysicalParams, node_epsilon: float):
    """The continuity and Hamilton-Jacobi reports from one streamed pass, held on the record.

    The pair is keyed by (params, node_epsilon); a call with another key
    rebuilds it, so a record holds at most one pair. Each per-time sum is a
    1-D sum over one row and max is exact, so the reports are bit for bit
    the whole-stack ones.
    """
    key = (params, node_epsilon)
    if record._residuals is None or record._residuals[0] != key:
        dx, sq_per_time, scale = record.grid.dx, ([], []), [0.0, 0.0]
        for keep, *pair in _residual_windows(record, params, node_epsilon):
            for k, (residual, rate) in enumerate(pair):
                # one sum per time, as a 1-D sum: an axis=1 reduction may round differently
                sq_per_time[k].extend(float(np.sum(r[m] ** 2) * dx) if m.any() else 0.0
                                      for r, m in zip(residual, keep))
                if keep.any():  # NaN propagates, as in one max
                    scale[k] = np.maximum(scale[k], np.max(np.abs(rate[keep])))
        reports = []
        for sums, top in zip(sq_per_time, scale):
            sums = np.array(sums)
            sums.flags.writeable = False
            reports.append(ResidualReport(record.times[1:-1], sums, float(np.sqrt(np.mean(sums))), float(top)))
        object.__setattr__(record, "_residuals", (key, tuple(reports)))
    return record._residuals[1]


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
    return _residual_pair(record, params, node_epsilon)[0]


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
    if V.grid != record.grid or not np.array_equal(V.values, record.potential.values):
        raise DomainError("the potential is not the one the record evolved in")
    return _residual_pair(record, params, node_epsilon)[1]


def polar_to_csv(polar: PolarField, path) -> None:
    """Write columns x,R,phi,mask with LF line endings."""
    if polar.R.ndim != 1:
        raise DomainError("polar_to_csv writes one snapshot, not a (T, n) stack: pass polar[s]")
    write_csv(path, "x,R,phi,mask", [(polar.grid.points, polar.R, polar.phi, polar.node_mask)])


def quantum_potential_to_csv(field: QuantumPotentialField, path) -> None:
    """Write columns x,U with LF line endings (NaN where masked)."""
    write_csv(path, "x,U", [(field.grid.points, field.U_quantum)])
