"""Independent analytic oracles used across the test suite.

Everything here is closed-form mathematics evaluated directly, with four
exceptions that reuse mvlab's single-snapshot building blocks as a reference
for how they are combined: branch_correlation (the spin branches),
per_snapshot_residual_pair (the residual pair evaluated snapshot by snapshot),
per_snapshot_universes (the trajectory integration, likewise) and
per_step_classical (the classical RK4 on separate x and v arrays). csv_bytes
is the CSV format written out one field at a time, and loop_node_zone the
node zone built one point at a time.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from mvlab.fields import GridWavefunction, SpatialGrid


def free_gaussian(x, t, x0, sigma, k0, hbar=1.0, mass=1.0):
    """Closed-form free evolution of a normalized Gaussian packet."""
    beta = 1.0 + 1j * hbar * t / (2.0 * mass * sigma**2)
    norm0 = (2.0 * np.pi * sigma**2) ** (-0.25)
    u = x - x0 - hbar * k0 * t / mass
    return (
        norm0
        / np.sqrt(beta)
        * np.exp(-(u**2) / (4.0 * sigma**2 * beta) + 1j * k0 * (x - hbar * k0 * t / (2.0 * mass)))
    )


def free_gaussian_width(t, sigma, hbar=1.0, mass=1.0):
    """sigma(t) = sigma * sqrt(1 + (hbar*t / (2*m*sigma^2))^2)."""
    tau = hbar * t / (2.0 * mass * sigma**2)
    return sigma * math.sqrt(1.0 + tau * tau)


def free_gaussian_velocity(x, t, sigma, hbar=1.0, mass=1.0):
    """Phase-flow velocity of the centered free packet (k0 = 0, x0 = 0)."""
    tau = hbar * t / (2.0 * mass * sigma**2)
    return x * (hbar**2 * t / (4.0 * mass**2 * sigma**4)) / (1.0 + tau * tau)


def free_gaussian_trajectory(x_start, t, sigma, hbar=1.0, mass=1.0):
    """Integral curve of the free-packet flow: pure rescaling by sigma(t)/sigma."""
    return x_start * free_gaussian_width(t, sigma, hbar, mass) / sigma


def coherent_state(x, t, x_center, omega, hbar=1.0, mass=1.0):
    """Displaced harmonic ground state; oscillates rigidly with period 2*pi/omega."""
    a0 = x_center * math.sqrt(mass * omega / (2.0 * hbar))
    a = a0 * np.exp(-1j * omega * t)
    return (
        (mass * omega / (np.pi * hbar)) ** 0.25
        * np.exp(-1j * omega * t / 2.0)
        * np.exp(
            -(mass * omega / (2.0 * hbar)) * x**2
            + math.sqrt(2.0 * mass * omega / hbar) * a * x
            - a * a / 2.0
            - a0 * a0 / 2.0
        )
    )


def gaussian_quantum_potential(x, sigma, hbar=1.0, mass=1.0):
    """Symbolic second derivative of exp(-x^2/(4 sigma^2)) divided by itself."""
    return -(hbar**2 / (2.0 * mass)) * (x**2 / (4.0 * sigma**4) - 1.0 / (2.0 * sigma**2))


def discrete_harmonic_ground_state(grid: SpatialGrid, omega, hbar=1.0, mass=1.0):
    """Ground eigenvector of the tridiagonal H = -(hbar^2/2m) D2 + V on the grid.

    This is the state that is exactly stationary for the matching discrete
    operators, unlike the sampled continuum Gaussian.
    """
    x = grid.points
    v = 0.5 * mass * omega**2 * x**2
    c = hbar**2 / (2.0 * mass * grid.dx**2)
    energies, vectors = eigh_tridiagonal(
        2.0 * c + v, np.full(grid.n_points - 1, -c), select="i", select_range=(0, 0)
    )
    vec = vectors[:, 0]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    vec = vec / np.sqrt(np.sum(vec**2) * grid.dx)
    return GridWavefunction(grid, vec.astype(complex)), float(energies[0])


def binomial_central_moment(m: int, N: int, p) -> Fraction:
    """Exact <(r/N - p)^m> for r ~ Binomial(N, p), summed over the pmf directly."""
    pf = Fraction(p)
    qf = 1 - pf
    total = Fraction(0)
    for r in range(N + 1):
        weight = math.comb(N, r) * pf**r * qf ** (N - r)
        total += weight * (Fraction(r, N) - pf) ** m
    return total


def branch_correlation(theta: float) -> float:
    """E(theta) summed over measurement branches of the rotated singlet."""
    from mvlab.spins import Direction, apply_measurement, rotate_second_basis, singlet, unset_pointers

    state = singlet(Direction(0.0))
    if theta != 0.0:
        state = rotate_second_basis(state, Direction(theta))
    sign = {"up": 1.0, "down": -1.0}
    return sum(
        b.weight * sign[b.spin_labels[0]] * sign[b.spin_labels[1]]
        for b in apply_measurement(state, unset_pointers())
    )


def loop_node_zone(mask, grid):
    """madelung.node_zone point by point: a point is in the zone when a node lies within
    MASK_DILATION points of it, counted around a periodic grid and up to a dirichlet end."""
    from mvlab.madelung import MASK_DILATION

    n = grid.n_points
    zone = np.zeros_like(mask, dtype=bool)
    for row in np.ndindex(mask.shape[:-1]):
        for j in range(n):
            for k in range(j - MASK_DILATION, j + MASK_DILATION + 1):
                if grid.boundary == "periodic":
                    zone[row + (j,)] |= mask[row + (k % n,)]
                elif 0 <= k < n:
                    zone[row + (j,)] |= mask[row + (k,)]
    return zone


def per_snapshot_residual_pair(record, V, params, node_epsilon):
    """The continuity and Hamilton-Jacobi reports, one snapshot triple at a time.

    The per-snapshot loop that mvlab.madelung's stacked residuals
    replaced: every snapshot is decomposed on its own and every kernel is
    applied to one (n,) row. Returns two (times, field, mask, scalar, scale)
    tuples, continuity first.
    """
    from mvlab.fields import gradient, laplacian
    from mvlab.madelung import MASK_DILATION, decompose, node_zone, phase_gradient

    grid = record.grid
    hbar, mass = params.hbar, params.mass
    period = 2.0 * np.pi * hbar
    periodic = grid.boundary == "periodic"
    polars = [decompose(GridWavefunction(grid, row), params, node_epsilon) for row in record.amplitudes]
    times = record.times
    dt = (times[-1] - times[0]) / (len(times) - 1)

    def wrap(delta):
        return delta - period * np.round(delta / period)

    def continuity(prev_p, mid, next_p):
        d_density_dt = (next_p.R**2 - prev_p.R**2) / (2.0 * dt)
        flux = mid.R**2 * phase_gradient(mid.phi, grid, hbar) / mass
        return d_density_dt + gradient(flux, grid), d_density_dt

    def hamilton_jacobi(prev_p, mid, next_p):
        rate = (wrap(next_p.phi - mid.phi) + wrap(mid.phi - prev_p.phi)) / (2.0 * dt)
        grad_phi = phase_gradient(mid.phi, grid, hbar)
        safe_R = np.where(mid.node_mask, 1.0, mid.R)
        curvature = laplacian(mid.R, grid) / safe_R
        residual = rate + grad_phi**2 / (2.0 * mass) + V.values - (hbar**2 / (2.0 * mass)) * curvature
        return residual, rate

    reports = []
    for pointwise in (continuity, hamilton_jacobi):
        rows, masks = [], []
        for prev_p, mid, next_p in zip(polars, polars[1:], polars[2:]):
            mask = node_zone(prev_p.node_mask | mid.node_mask | next_p.node_mask, grid)
            if not periodic:
                mask[:MASK_DILATION] = True
                mask[-MASK_DILATION:] = True
            rows.append(pointwise(prev_p, mid, next_p))
            masks.append(mask)
        field = np.array([np.where(m, np.nan, r) for (r, _), m in zip(rows, masks)])
        mask_arr = np.array(masks)
        keep = ~mask_arr
        sq_per_time = [
            float(np.sum(r[~m] ** 2) * grid.dx) if np.any(~m) else 0.0 for (r, _), m in zip(rows, masks)
        ]
        scalar = float(np.sqrt(np.mean(sq_per_time)))
        rates = np.array([rate for _, rate in rows])
        scale = float(np.max(np.abs(rates[keep]))) if np.any(keep) else 0.0
        reports.append((times[1:-1].copy(), field, mask_arr, scalar, scale))
    return reports


def whole_stack_residual_pair(record, V, params, node_epsilon):
    """The continuity and Hamilton-Jacobi reports, each built over the whole stack at once.

    The (T-2, n) arithmetic that mvlab.madelung's blocked pass replaced,
    expression for expression: every temporary spans all interior
    snapshots. Reads the record's cached polar stack. Returns two
    (times, field, mask, scalar, scale) tuples, continuity first.
    """
    from mvlab.fields import gradient, laplacian
    from mvlab.madelung import MASK_DILATION, node_zone, phase_gradient, record_polars

    grid = record.grid
    hbar, mass = params.hbar, params.mass
    period = 2.0 * np.pi * hbar
    periodic = grid.boundary == "periodic"
    polars = record_polars(record, params, node_epsilon)
    R, phi, nodes = polars.R, polars.phi, polars.node_mask
    times = record.times
    dt = (times[-1] - times[0]) / (len(times) - 1)

    def wrap(delta):
        return delta - period * np.round(delta / period)

    def report(residual, rate):
        mask = node_zone(nodes[:-2] | nodes[1:-1] | nodes[2:], grid)
        if not periodic:
            mask[:, :MASK_DILATION] = True
            mask[:, -MASK_DILATION:] = True
        keep = ~mask
        sq_per_time = [float(np.sum(r[k] ** 2) * grid.dx) if k.any() else 0.0 for r, k in zip(residual, keep)]
        scalar = float(np.sqrt(np.mean(sq_per_time)))
        scale = float(np.max(np.abs(rate[keep]))) if keep.any() else 0.0
        residual[mask] = np.nan
        return times[1:-1].copy(), residual, mask, scalar, scale

    d_density_dt = (R[2:] ** 2 - R[:-2] ** 2) / (2.0 * dt)
    flux = phase_gradient(phi[1:-1], grid, hbar) * R[1:-1] ** 2 / mass
    continuity = report(d_density_dt + gradient(flux, grid), d_density_dt)
    rate = (wrap(phi[2:] - phi[1:-1]) + wrap(phi[1:-1] - phi[:-2])) / (2.0 * dt)
    residual = rate + phase_gradient(phi[1:-1], grid, hbar) ** 2 / (2.0 * mass)
    residual += V.values
    curvature = laplacian(R[1:-1], grid) / np.where(nodes[1:-1], 1.0, R[1:-1])
    residual -= (hbar**2 / (2.0 * mass)) * curvature
    return [continuity, report(residual, rate)]


def per_snapshot_universes(record, starts, params, node_epsilon):
    """integrate_universes' (T, M) positions and stopped_at, one snapshot at a time.

    The loop that mvlab.universes' blocked velocity replaced: every snapshot
    is decomposed on its own, its velocity derived from one (n,) row, each
    RK4 stage reads two single-row interpolants, each of which wraps the
    positions itself, and the node zone is looked up at both ends of a cell.
    """
    from mvlab.fields import interpolator
    from mvlab.madelung import decompose
    from mvlab.universes import velocity_field

    grid = record.grid
    n = grid.n_points

    def zone_lookup(zone):
        def in_zone(pos):
            if grid.boundary == "periodic":
                idx = np.floor((np.mod(pos - grid.x_min, grid.length)) / grid.dx).astype(int)
                idx = np.clip(idx, 0, n - 1)
                nxt = (idx + 1) % n
            else:
                idx = np.clip(np.floor((pos - grid.x_min) / grid.dx).astype(int), 0, n - 1)
                nxt = np.clip(idx + 1, 0, n - 1)
            return zone[idx] | zone[nxt]

        return in_zone

    def flow(row):
        v = velocity_field(decompose(GridWavefunction(grid, row), params, node_epsilon), params)
        zone = np.isnan(v)
        return interpolator(grid, np.where(zone, 0.0, v)), zone

    x = np.array(starts, dtype=np.float64)
    times = record.times
    positions = np.empty((times.size, x.size))
    positions[0] = x
    frozen = np.zeros(x.size, dtype=bool)
    frozen_at = np.full(x.size, np.nan)
    interp1, zone1 = flow(record.amplitudes[0])
    for s in range(times.size - 1):
        t0, t1 = times[s], times[s + 1]
        interp0, zone0 = interp1, zone1
        interp1, zone1 = flow(record.amplitudes[s + 1])
        in_zone = zone_lookup(zone0 | zone1)
        h = t1 - t0

        def vel(pos, t):
            w = (t - t0) / (t1 - t0)
            return (1.0 - w) * interp0(pos) + w * interp1(pos)

        k1 = vel(x, t0)
        k2 = vel(x + 0.5 * h * k1, t0 + 0.5 * h)
        k3 = vel(x + 0.5 * h * k2, t0 + 0.5 * h)
        k4 = vel(x + h * k3, t0 + h)
        x = np.where(frozen, x, x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        newly = ~frozen & in_zone(x)
        frozen_at[newly] = t0 + h
        frozen |= newly
        positions[s + 1] = x
    return positions, frozen_at


def per_step_classical(x, v, V, params, dt, n_steps):
    """classical_ensemble_evolve's (T, M) positions, velocities and its stopped_at, x and v apart.

    The loop that mvlab.universes' stacked (x, v) state replaced: each RK4
    stage is written out for x and v apart, and an escaped trajectory is
    tracked by a bool array beside its escape time.
    """
    from mvlab.fields import gradient, interpolator

    grid = V.grid
    x = np.array(x, dtype=np.float64)
    v = np.array(v, dtype=np.float64)
    force = interpolator(grid, -gradient(V.values, grid))

    def accel(pos):
        return force(pos) / params.mass

    positions = np.empty((n_steps + 1, x.size))
    velocities = np.empty((n_steps + 1, x.size))
    positions[0] = x
    velocities[0] = v
    escaped = np.zeros(x.size, dtype=bool)
    escaped_at = np.full(x.size, np.nan)
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
            x = np.where(out, np.clip(x, grid.x_min, grid.x_max), x)
            v = np.where(out, 0.0, v)
            escaped_at[out] = step * dt
            escaped |= out
        positions[step] = x
        velocities[step] = v
    return positions, velocities, escaped_at


def csv_bytes(header, blocks) -> bytes:
    """mvlab.fields.write_csv's bytes, serially, one row and one field at a time.

    A numpy column's field is repr of its Python value, a bool as 0 or 1;
    any other column holds the field strings themselves.
    """

    def field(column, i):
        if isinstance(column, np.ndarray):
            value = column[i].item()
            return repr(int(value) if column.dtype == bool else value)
        return column[i]

    rows = [header]
    for block in blocks:
        rows += [",".join(field(column, i) for column in block) for i in range(len(block[0]))]
    return ("\n".join(rows) + "\n").encode()
