import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import corpus
from oracles import discrete_harmonic_ground_state, gaussian_quantum_potential

from mvlab.errors import DomainError
from mvlab.evolution import evolve_schrodinger
from mvlab.fields import (
    GridWavefunction,
    PhysicalParams,
    SpatialGrid,
    free_potential,
    harmonic_potential,
    make_gaussian_packet,
    make_plane_wave,
    norm_squared,
    normalize,
)
from mvlab.madelung import (
    PolarField,
    continuity_residual,
    decompose,
    hamilton_jacobi_residual,
    quantum_potential,
    recompose,
    universe_density,
)

PARAMS = PhysicalParams()


def loop_decompose(wf, params, node_epsilon):
    """decompose with its original per-point segment search: the reference (R, phi, mask)."""
    R = np.abs(wf.amplitudes)
    mask = R < node_epsilon * float(R.max())
    angle = np.angle(wf.amplitudes)
    phi = params.hbar * angle
    clear = ~mask
    j = 0
    n = wf.grid.n_points
    while j < n:
        if not clear[j]:
            j += 1
            continue
        start = j
        while j < n and clear[j]:
            j += 1
        seg = slice(start, j)
        theta = np.unwrap(angle[seg])
        anchor = int(np.argmax(R[seg]))
        shift = round((theta[anchor] - angle[seg][anchor]) / (2.0 * np.pi))
        phi[seg] = params.hbar * (theta - 2.0 * np.pi * shift)
    return R, phi, mask


def assert_matches_loop(wf, params, node_epsilon=1e-6):
    polar = decompose(wf, params, node_epsilon)
    R, phi, mask = loop_decompose(wf, params, node_epsilon)
    assert np.array_equal(polar.R, R)
    assert np.array_equal(polar.phi, phi)
    assert np.array_equal(polar.node_mask, mask)


@st.composite
def amplitudes_with_zero_runs(draw):
    """Random amplitudes with exact zeros forced at the start, the end, the middle, or all but one point."""
    n = draw(st.integers(8, 64))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=n, max_size=n))) + 1j * np.array(
        draw(st.lists(part, min_size=n, max_size=n))
    )
    where = draw(st.sampled_from(["start", "end", "middle", "all_but_one"]))
    if where == "all_but_one":
        keep = draw(st.integers(0, n - 1))
        amps[np.arange(n) != keep] = 0.0
    else:
        length = draw(st.integers(1, n - 2))
        if where == "start":
            start = 0
        elif where == "end":
            start = n - length
        else:
            start = draw(st.integers(1, n - length - 1))
        amps[start : start + length] = 0.0
    assume(np.abs(amps).max() > 0.0)
    return amps


def odd_state(grid):
    plus = make_gaussian_packet(grid, 2.0, 1.0, 0.0, PARAMS)
    minus = make_gaussian_packet(grid, -2.0, 1.0, 0.0, PARAMS)
    return normalize(GridWavefunction(grid, plus.amplitudes - minus.amplitudes))


class TestDecompose:
    def test_plane_wave_modulus_and_phase_slope(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        k = 2.0 * np.pi * 4 / g.length
        polar = decompose(make_plane_wave(g, k, 2.0), PARAMS)
        assert np.allclose(polar.R, 2.0, atol=1e-14)
        assert not polar.node_mask.any()
        slopes = np.diff(polar.phi) / g.dx
        assert np.max(np.abs(slopes - PARAMS.hbar * k)) < 1e-10

    def test_real_positive_gaussian_has_zero_phase(self):
        g = SpatialGrid(-20.0, 20.0, 512)
        polar = decompose(make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS), PARAMS)
        assert np.array_equal(polar.phi, np.zeros(g.n_points))

    def test_node_masked_and_segments_unwrap_independently(self):
        g = SpatialGrid(-20.0, 20.0, 1024)
        polar = decompose(odd_state(g), PARAMS)
        center = np.argmin(np.abs(g.points))
        assert polar.node_mask[center]
        # adjacent non-node phases stay within pi*hbar of each other
        clear = ~polar.node_mask
        both = clear[:-1] & clear[1:]
        jumps = np.abs(np.diff(polar.phi))[both]
        assert np.all(jumps < np.pi * PARAMS.hbar)

    def test_anchor_principal_value(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        k = 2.0 * np.pi * 6 / g.length
        polar = decompose(make_plane_wave(g, k, 1.0), PARAMS)
        anchor = np.argmax(polar.R)
        assert -np.pi * PARAMS.hbar < polar.phi[anchor] <= np.pi * PARAMS.hbar

    def test_rejects_zero_field_and_bad_epsilon(self):
        g = SpatialGrid(-16.0, 16.0, 64)
        zero = GridWavefunction(g, np.zeros(64, dtype=complex))
        with pytest.raises(DomainError):
            decompose(zero, PARAMS)
        wf = make_gaussian_packet(g, 0.0, 3.0, 0.0, PARAMS)
        with pytest.raises(DomainError):
            decompose(wf, PARAMS, node_epsilon=0.5)


class TestSegmentSearch:
    """decompose's vectorised segment search against the per-point loop it replaced."""

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_corpus_bitwise_equal_to_loop(self, name, n):
        assert_matches_loop(corpus(SpatialGrid(-20.0, 20.0, n))[name], PARAMS)

    @settings(max_examples=200, deadline=None)
    @given(
        amps=amplitudes_with_zero_runs(),
        hbar=st.floats(0.25, 4.0),
        node_epsilon=st.sampled_from([1e-6, 1e-3, 0.1]),
    )
    def test_random_zero_runs_bitwise_equal_to_loop(self, amps, hbar, node_epsilon):
        wf = GridWavefunction(SpatialGrid(-1.0, 1.0, amps.size), amps)
        assert_matches_loop(wf, PhysicalParams(hbar=hbar), node_epsilon)


class TestRecompose:
    def test_unit_modulus_zero_phase(self):
        g = SpatialGrid(-16.0, 16.0, 64)
        polar = PolarField(g, np.ones(64), np.zeros(64), np.zeros(64, dtype=bool))
        wf = recompose(polar, PARAMS)
        assert np.array_equal(wf.amplitudes, np.ones(64, dtype=complex))

    def test_linear_phase_gives_plane_wave(self):
        g = SpatialGrid(-16.0, 16.0, 128)
        k = 2.0 * np.pi * 3 / g.length
        polar = PolarField(g, np.ones(128), PARAMS.hbar * k * g.points,
                           np.zeros(128, dtype=bool))
        wf = recompose(polar, PARAMS)
        assert np.max(np.abs(wf.amplitudes - np.exp(1j * k * g.points))) < 1e-12

    @pytest.mark.parametrize("name", list(corpus()))
    def test_round_trip_off_nodes(self, name):
        wf = corpus()[name]
        polar = decompose(wf, PARAMS)
        back = recompose(polar, PARAMS)
        keep = ~polar.node_mask
        scale = np.max(np.abs(wf.amplitudes))
        err = np.max(np.abs(back.amplitudes[keep] - wf.amplitudes[keep])) / scale
        assert err < 1e-10

    def test_round_trip_on_evolved_snapshot(self):
        g = SpatialGrid(-20.0, 20.0, 1024)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 500, snapshot_stride=500)
        wf = rec.snapshots[-1]
        polar = decompose(wf, PARAMS)
        back = recompose(polar, PARAMS)
        keep = ~polar.node_mask
        err = np.max(np.abs(back.amplitudes[keep] - wf.amplitudes[keep]))
        assert err / np.max(np.abs(wf.amplitudes)) < 1e-10

    def test_global_phase_shift_is_gauge(self):
        g = SpatialGrid(-20.0, 20.0, 256)
        wf = make_gaussian_packet(g, 0.0, 1.0, 1.0, PARAMS)
        polar = decompose(wf, PARAMS)
        shifted = PolarField(g, polar.R, polar.phi + 2.0 * np.pi * PARAMS.hbar * 3,
                             polar.node_mask)
        a = recompose(polar, PARAMS).amplitudes
        b = recompose(shifted, PARAMS).amplitudes
        assert np.max(np.abs(a - b)) < 1e-12


class TestQuantumPotential:
    def test_plane_wave_vanishes(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        polar = decompose(make_plane_wave(g, 2.0 * np.pi * 5 / g.length, 1.0), PARAMS)
        qp = quantum_potential(polar, PARAMS)
        # constant modulus: only |psi| rounding jitter amplified by 1/dx^2 remains
        assert np.nanmax(np.abs(qp.U_quantum)) < 1e-12

    def test_gaussian_matches_symbolic_oracle(self):
        g = SpatialGrid(-200.0, 200.0, 2048)
        sigma = 25.0
        wf = make_gaussian_packet(g, 0.0, sigma, 0.0, PARAMS)
        polar = decompose(wf, PARAMS)
        qp = quantum_potential(polar, PARAMS)
        exact = gaussian_quantum_potential(g.points, sigma)
        keep = ~qp.node_mask
        assert np.max(np.abs(qp.U_quantum[keep] - exact[keep])) < 1e-6

    def test_scales_with_hbar_squared(self):
        g = SpatialGrid(-20.0, 20.0, 512)
        wf = make_gaussian_packet(g, 0.0, 1.5, 0.0, PARAMS)
        polar = decompose(wf, PARAMS)
        u1 = quantum_potential(polar, PhysicalParams(hbar=1.0)).U_quantum
        u2 = quantum_potential(polar, PhysicalParams(hbar=0.5)).U_quantum
        keep = ~np.isnan(u1)
        assert np.max(np.abs(u2[keep] - 0.25 * u1[keep])) < 1e-12

    def test_invariant_under_modulus_rescaling(self):
        g = SpatialGrid(-20.0, 20.0, 512)
        polar = decompose(make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS), PARAMS)
        scaled = PolarField(g, 7.3 * polar.R, polar.phi, polar.node_mask)
        u1 = quantum_potential(polar, PARAMS).U_quantum
        u2 = quantum_potential(scaled, PARAMS).U_quantum
        keep = ~np.isnan(u1)
        denom = np.maximum(np.abs(u1[keep]), 1.0)
        assert np.max(np.abs(u1[keep] - u2[keep]) / denom) < 1e-12

    def test_dirichlet_endpoints_masked(self):
        g = SpatialGrid(-20.0, 20.0, 256, "dirichlet")
        polar = decompose(make_gaussian_packet(g, 0.0, 2.0, 0.0, PARAMS), PARAMS)
        qp = quantum_potential(polar, PARAMS)
        assert qp.node_mask[0] and qp.node_mask[-1]


class TestUniverseDensity:
    def test_normalized_gaussian_sums_to_one(self):
        g = SpatialGrid(-20.0, 20.0, 1024)
        polar = decompose(make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS), PARAMS)
        assert abs(np.sum(universe_density(polar)) * g.dx - 1.0) < 1e-12

    def test_plane_wave_constant(self):
        g = SpatialGrid(-16.0, 16.0, 256)
        polar = decompose(make_plane_wave(g, 2.0 * np.pi * 2 / g.length, 3.0), PARAMS)
        assert np.allclose(universe_density(polar), 9.0, atol=1e-13)

    def test_two_packet_halves_carry_their_weights(self):
        g = SpatialGrid(-20.0, 20.0, 2048)
        left = make_gaussian_packet(g, -8.0, 1.0, 0.0, PARAMS)
        right = make_gaussian_packet(g, 8.0, 1.0, 0.0, PARAMS)
        a, b = 0.6, 0.8  # a^2 + b^2 = 1
        wf = GridWavefunction(g, a * left.amplitudes + b * right.amplitudes)
        polar = decompose(wf, PARAMS)
        density = universe_density(polar)
        xs = g.points
        left_mass = np.sum(density[xs < 0.0]) * g.dx
        right_mass = np.sum(density[xs >= 0.0]) * g.dx
        assert abs(left_mass - a**2) < 1e-6
        assert abs(right_mass - b**2) < 1e-6


class TestResiduals:
    def free_gaussian_record(self, n=2048, dt=1e-4, stride=25, t_final=1.0):
        g = SpatialGrid(-16.0, 16.0, n)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        n_steps = int(round(t_final / dt))
        return evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, n_steps,
                                  snapshot_stride=stride), g

    def test_needs_three_snapshots(self):
        g = SpatialGrid(-16.0, 16.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 10, snapshot_stride=10)
        with pytest.raises(DomainError):
            continuity_residual(rec, PARAMS)

    def test_plane_wave_residuals_at_rounding_floor(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        wf0 = make_plane_wave(g, 2.0 * np.pi * 10 / g.length, 1.0)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 100, snapshot_stride=10)
        assert continuity_residual(rec, PARAMS).scalar < 1e-9
        assert hamilton_jacobi_residual(rec, free_potential(g), PARAMS).scalar < 1e-9

    def test_stationary_ground_state_residuals(self):
        # the discrete eigenvector is exactly stationary for the matching stencils
        g = SpatialGrid(-12.0, 12.0, 512, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0, _ = discrete_harmonic_ground_state(g, 1.0)
        rec = evolve_schrodinger(wf0, V, PARAMS, 1e-4, 200, snapshot_stride=10)
        assert continuity_residual(rec, PARAMS).scalar < 1e-8
        assert hamilton_jacobi_residual(rec, V, PARAMS).scalar < 1e-8

    def test_free_gaussian_thresholds_from_refinement_study(self):
        # thresholds frozen by the pre-build refinement study: measured
        # 8.23e-5 (transport) and 2.41e-4 (phase law) at this resolution
        rec, g = self.free_gaussian_record()
        cont = continuity_residual(rec, PARAMS)
        hj = hamilton_jacobi_residual(rec, free_potential(g), PARAMS)
        assert cont.relative < 1.5e-4
        assert hj.relative < 4.0e-4

    def test_second_order_decrease_under_refinement(self):
        base_rec, base_g = self.free_gaussian_record(2048, 1e-4)
        fine_rec, fine_g = self.free_gaussian_record(4096, 5e-5)
        for make, args in (
            (continuity_residual, ()),
            (hamilton_jacobi_residual, None),
        ):
            if args is None:
                coarse = hamilton_jacobi_residual(base_rec, free_potential(base_g), PARAMS)
                fine = hamilton_jacobi_residual(fine_rec, free_potential(fine_g), PARAMS)
            else:
                coarse = continuity_residual(base_rec, PARAMS)
                fine = continuity_residual(fine_rec, PARAMS)
            assert coarse.relative / fine.relative >= 3.5

    def test_potential_grid_must_match(self):
        rec, _ = self.free_gaussian_record(n=512, dt=1e-3, stride=10, t_final=0.05)
        other = free_potential(SpatialGrid(-16.0, 16.0, 256))
        with pytest.raises(DomainError):
            hamilton_jacobi_residual(rec, other, PARAMS)

    def test_residuals_finite_for_state_with_nodes(self):
        # node segments are masked, not fatal: the scalar stays finite and small
        g = SpatialGrid(-20.0, 20.0, 2048)
        rec = evolve_schrodinger(odd_state(g), free_potential(g), PARAMS, 1e-4, 2000,
                                 snapshot_stride=50)
        cont = continuity_residual(rec, PARAMS)
        hj = hamilton_jacobi_residual(rec, free_potential(g), PARAMS)
        assert np.isfinite(cont.scalar) and cont.relative < 1e-2
        assert np.isfinite(hj.scalar) and hj.relative < 1e-2
        assert cont.mask.any()  # the node region was actually excluded
