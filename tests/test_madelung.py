import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corpus import corpus
from oracles import (
    discrete_harmonic_ground_state,
    gaussian_quantum_potential,
    loop_node_zone,
    per_snapshot_residual_pair,
    whole_stack_residual_pair,
)

import mvlab.madelung
from mvlab.cli import EXIT_OK, run
from mvlab.errors import DomainError
from mvlab.evolution import EvolutionRecord, evolve_schrodinger
from mvlab.fields import (
    GridWavefunction,
    PhysicalParams,
    SpatialGrid,
    free_potential,
    gradient,
    harmonic_potential,
    laplacian,
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
    node_zone,
    phase_gradient,
    polar_to_csv,
    quantum_potential,
    recompose,
    record_polars,
    universe_density,
)
from mvlab.universes import density_transport_check, integrate_universes, stratified_positions

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
def zero_run_row(draw, n):
    """n random amplitudes with exact zeros forced at the start, the end, both ends, the middle, or all but one point."""
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(part, min_size=n, max_size=n))) + 1j * np.array(
        draw(st.lists(part, min_size=n, max_size=n))
    )
    where = draw(st.sampled_from(["start", "end", "both_ends", "middle", "all_but_one"]))
    if where == "all_but_one":
        keep = draw(st.integers(0, n - 1))
        amps[np.arange(n) != keep] = 0.0
    elif where == "both_ends":
        head = draw(st.integers(1, n - 2))
        amps[:head] = 0.0
        amps[head + 1 + draw(st.integers(0, n - head - 2)):] = 0.0
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


@st.composite
def amplitudes_with_zero_runs(draw):
    return draw(zero_run_row(draw(st.integers(8, 64))))


@st.composite
def stacks_with_zero_runs(draw):
    """A (T, n) amplitude stack whose every row has its own forced zero runs."""
    n = draw(st.integers(8, 64))
    return np.stack([draw(zero_run_row(n)) for _ in range(draw(st.integers(1, 6)))])


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

    @settings(max_examples=200, deadline=None)
    @given(
        amps=stacks_with_zero_runs(),
        hbar=st.floats(0.25, 4.0),
        node_epsilon=st.sampled_from([1e-6, 1e-3, 0.1]),
    )
    def test_stack_bitwise_equal_to_loop_row_by_row(self, amps, hbar, node_epsilon):
        grid, params = SpatialGrid(-1.0, 1.0, amps.shape[1]), PhysicalParams(hbar=hbar)
        polar = decompose(SimpleNamespace(grid=grid, amplitudes=amps), params, node_epsilon)
        assert polar.R.shape == amps.shape
        for s, row in enumerate(amps):
            R, phi, mask = loop_decompose(GridWavefunction(grid, row), params, node_epsilon)
            assert np.array_equal(polar.R[s], R)
            assert np.array_equal(polar.phi[s], phi)
            assert np.array_equal(polar.node_mask[s], mask)

    @pytest.mark.parametrize("zero_rows", [slice(None), slice(1, 2)])
    def test_stack_with_a_zero_row_rejected(self, zero_rows):
        g = SpatialGrid(-16.0, 16.0, 64)
        amps = np.ones((3, 64), dtype=complex)
        amps[zero_rows] = 0.0
        with pytest.raises(DomainError, match="identically zero"):
            decompose(SimpleNamespace(grid=g, amplitudes=amps), PARAMS)


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

    def test_free_gaussian_thresholds_from_refinement_study(self, refinement_records):
        # thresholds frozen by the pre-build refinement study: measured
        # 8.23e-5 (transport) and 2.41e-4 (phase law) at this resolution
        rec = refinement_records[2048]
        cont = continuity_residual(rec, PARAMS)
        hj = hamilton_jacobi_residual(rec, free_potential(rec.grid), PARAMS)
        assert cont.relative < 1.5e-4
        assert hj.relative < 4.0e-4

    def test_second_order_decrease_under_refinement(self, refinement_records):
        base_rec, fine_rec = refinement_records[2048], refinement_records[4096]
        base_g, fine_g = base_rec.grid, fine_rec.grid
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

    def test_potential_values_must_match(self):
        g = SpatialGrid(-8.0, 8.0, 256, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        rec = evolve_schrodinger(make_gaussian_packet(g, 1.0, 1.0, 0.0, PARAMS), V, PARAMS, 1e-3, 20,
                                 snapshot_stride=5)
        with pytest.raises(DomainError, match="not the one the record evolved in"):
            hamilton_jacobi_residual(rec, free_potential(g), PARAMS)
        assert np.isfinite(hamilton_jacobi_residual(rec, V, PARAMS).scalar)

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


def odd_record(n=512, n_steps=120, stride=4):
    g = SpatialGrid(-20.0, 20.0, n)
    return evolve_schrodinger(odd_state(g), free_potential(g), PARAMS, 1e-3, n_steps,
                              snapshot_stride=stride)


class TestRecordPolars:
    """A record is decomposed in one call, whichever consumers read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = {"decompose": 0}
        real = mvlab.madelung.decompose

        def counted(*args, **kwargs):
            counter["decompose"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mvlab.madelung, "decompose", counted)
        return counter

    @staticmethod
    def outputs(rec, node_epsilon=1e-6):
        """Residual reports, a bohmian ensemble and its transport fractions."""
        V = free_potential(rec.grid)
        reports = [continuity_residual(rec, PARAMS, node_epsilon),
                   hamilton_jacobi_residual(rec, V, PARAMS, node_epsilon)]
        starts = stratified_positions(decompose(rec.snapshots[0], PARAMS, node_epsilon), 40)
        ens = integrate_universes(rec, starts, PARAMS, node_epsilon)
        ends = integrate_universes(rec, [-3.0, -1.0], PARAMS, node_epsilon).positions
        report = density_transport_check(rec, ens, ends, PARAMS, node_epsilon)
        arrays = [a for r in reports for a in (r.times, r.field, r.mask)]
        arrays += [ens.positions, ens.stopped_at, report.fractions, report.deviations]
        scalars = [v for r in reports for v in (r.scalar, r.scale)] + [report.expected]
        return arrays, scalars

    def assert_same(self, left, right):
        for a, b in zip(left[0], right[0], strict=True):
            assert np.array_equal(a, b, equal_nan=True)
        assert left[1] == right[1]

    def test_stack_equals_per_snapshot_decompose(self):
        rec = odd_record()
        polars = record_polars(rec, PARAMS, 1e-3)
        assert polars.R.shape == rec.amplitudes.shape and len(polars) == len(rec.snapshots)
        assert polars.node_mask.any()
        for polar, wf in zip(polars, rec.snapshots, strict=True):
            R, phi, mask = loop_decompose(wf, PARAMS, 1e-3)
            assert np.array_equal(polar.R, R) and np.array_equal(polar.phi, phi)
            assert np.array_equal(polar.node_mask, mask)

    def test_one_stack_held_per_key(self, calls):
        rec = odd_record()
        first = record_polars(rec, PARAMS)
        assert record_polars(rec, PARAMS) is first
        assert record_polars(rec, PhysicalParams(mass=2.0)) is first  # phi does not depend on m
        assert calls["decompose"] == 1
        other = record_polars(rec, PARAMS, 1e-3)
        assert other is not first and record_polars(rec, PARAMS, 1e-3) is other
        scaled = record_polars(rec, PhysicalParams(hbar=2.0))
        assert np.array_equal(scaled[3].phi, 2.0 * first[3].phi)
        assert record_polars(rec, PARAMS) is not first  # only the latest stack was held
        assert calls["decompose"] == 4

    def test_polar_to_csv_refuses_a_stack_before_writing(self, tmp_path):
        polars = record_polars(odd_record(), PARAMS)
        path = tmp_path / "polar.csv"
        with pytest.raises(DomainError, match="one snapshot"):
            polar_to_csv(polars, path)
        assert not path.exists()
        polar_to_csv(polars[2], path)
        assert len(path.read_text().splitlines()) == 1 + polars.R.shape[1]

    def test_consumers_decompose_each_snapshot_once(self, calls):
        rec = odd_record()
        V = free_potential(rec.grid)
        continuity_residual(rec, PARAMS)
        hamilton_jacobi_residual(rec, V, PARAMS)
        ens = integrate_universes(rec, stratified_positions(record_polars(rec, PARAMS)[0], 40), PARAMS)
        ends = integrate_universes(rec, [-3.0, -1.0], PARAMS).positions
        density_transport_check(rec, ens, ends, PARAMS)
        assert calls["decompose"] == 1

    def test_cli_universes_decomposes_each_snapshot_once(self, calls, tmp_path):
        config = Path(__file__).resolve().parent.parent / "configs" / "universes.json"
        parameters = json.loads(config.read_text())
        parameters.pop("experiment")
        assert run("universes", parameters, tmp_path, quiet=True) == EXIT_OK
        assert calls["decompose"] == 1

    def test_reused_record_matches_fresh(self):
        rec = odd_record()
        self.outputs(rec)
        self.assert_same(self.outputs(rec), self.outputs(odd_record()))
        # another node_epsilon rebuilds the held stack, and back again
        self.assert_same(self.outputs(rec, 1e-3), self.outputs(odd_record(), 1e-3))
        self.assert_same(self.outputs(rec), self.outputs(odd_record()))

    def test_stack_indexing(self):
        rec = odd_record()
        polars = record_polars(rec, PARAMS)
        assert len(polars) == len(rec.times) and polars[-1].R.shape == (rec.grid.n_points,)
        single = polars[0]
        with pytest.raises(TypeError):
            len(single)
        with pytest.raises(DomainError):
            single[0]
        with pytest.raises(DomainError, match="phi must have shape"):
            PolarField(rec.grid, polars.R, polars.phi[:-1], polars.node_mask)


def free_gaussian_case():
    g = SpatialGrid(-16.0, 16.0, 512)
    wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.5, PARAMS)
    V = free_potential(g)
    return evolve_schrodinger(wf0, V, PARAMS, 1e-3, 200, snapshot_stride=10), V


def ground_state_case():
    g = SpatialGrid(-12.0, 12.0, 512, "dirichlet")
    V = harmonic_potential(g, 1.0, PARAMS)
    wf0, _ = discrete_harmonic_ground_state(g, 1.0)
    return evolve_schrodinger(wf0, V, PARAMS, 1e-4, 200, snapshot_stride=10), V


def odd_case():
    rec = odd_record()
    return rec, free_potential(rec.grid)


def assert_reports_equal(reports, expected):
    """Residual reports bit for bit equal to an oracle's (times, field, mask, scalar, scale) tuples."""
    for report, (times, field, mask, scalar, scale) in zip(reports, expected, strict=True):
        for got, want in ((report.times, times), (report.field, field), (report.mask, mask)):
            assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
        assert report.scalar == scalar and report.scale == scale


def residual_pair(rec, V, node_epsilon):
    return (continuity_residual(rec, PARAMS, node_epsilon),
            hamilton_jacobi_residual(rec, V, PARAMS, node_epsilon))


@pytest.mark.parametrize("case, node_epsilon", [
    (free_gaussian_case, 1e-6),
    (ground_state_case, 1e-6),
    (odd_case, 1e-6),
    (odd_case, 1e-3),
])
def test_stacked_residuals_equal_the_per_snapshot_loop(case, node_epsilon):
    rec, V = case()
    reports = residual_pair(rec, V, node_epsilon)
    assert_reports_equal(reports, per_snapshot_residual_pair(rec, V, PARAMS, node_epsilon))
    assert_reports_equal(reports, whole_stack_residual_pair(rec, V, PARAMS, node_epsilon))
    for report in reports:
        assert report.mask.any() and not report.mask.all()  # both branches of the mask are exercised


def unit_rows_record(grid, amplitudes, dt=1e-3):
    """A record of these (T, n) amplitudes, each row scaled to unit norm, dt apart."""
    amps = amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2, axis=1, keepdims=True) * grid.dx)
    return EvolutionRecord(free_potential(grid), np.arange(len(amps)) * dt, amps)


@pytest.mark.parametrize("node_epsilon", [1e-6, 1e-3])
@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
@pytest.mark.parametrize("interior", [1, 2, 3, 4, 7])
def test_blocks_of_three_equal_the_whole_stack(monkeypatch, interior, boundary, node_epsilon):
    # blocks of 3 interior rows: one partial block, one whole, and 7 = 3 + 3 + 1
    monkeypatch.setattr(mvlab.madelung, "RESIDUAL_BLOCK", 3)
    g = SpatialGrid(-20.0, 20.0, 256, boundary)
    odd = evolve_schrodinger(odd_state(g), free_potential(g), PARAMS, 1e-3, interior + 1, snapshot_stride=1)
    # a node only in snapshot 3 (or the last): it masks interior rows 1-3, across the first block edge
    amps = odd.amplitudes.copy()
    amps[min(3, interior + 1), np.argmax(np.abs(amps[0]))] = 0.0
    for rec in (odd, unit_rows_record(g, amps)):
        V = rec.potential
        reports = residual_pair(rec, V, node_epsilon)
        assert reports[0].field.shape == (interior, g.n_points)
        assert_reports_equal(reports, whole_stack_residual_pair(rec, V, PARAMS, node_epsilon))
        assert_reports_equal(reports, per_snapshot_residual_pair(rec, V, PARAMS, node_epsilon))


@st.composite
def records_with_zeros(draw):
    """A record of 3 to 10 random rows, zero where a random mask is set, on either boundary."""
    T, n = draw(st.integers(3, 10)), draw(st.integers(8, 40))
    grid = SpatialGrid(-4.0, 4.0, n, draw(st.sampled_from(["periodic", "dirichlet"])))
    part = arrays(np.int8, (T, n), elements=st.integers(-8, 8))  # eighths: no squared sum underflows
    amps = (draw(part) + 1j * draw(part)) / 8.0
    amps[draw(arrays(bool, (T, n)))] = 0.0
    assume(np.abs(amps).max(axis=1).min() > 0.0)
    return unit_rows_record(grid, amps)


@settings(max_examples=100, deadline=None)
@given(records_with_zeros(), st.integers(1, 9), st.sampled_from([1e-6, 1e-3, 0.1]))
def test_any_block_size_equals_the_whole_stack(rec, block, node_epsilon):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mvlab.madelung, "RESIDUAL_BLOCK", block)
        reports = residual_pair(rec, rec.potential, node_epsilon)
    assert_reports_equal(reports, whole_stack_residual_pair(rec, rec.potential, PARAMS, node_epsilon))


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_residual_peak_memory_is_the_report_and_a_few_blocks(boundary):
    # 199 interior rows: the blocked pass peaks about 7 block-sized temporaries above its
    # report, where whole-stack temporaries cost 34 to 43 of them
    g = SpatialGrid(-16.0, 16.0, 1024, boundary)
    V = free_potential(g)
    rec = evolve_schrodinger(make_gaussian_packet(g, 0.0, 1.0, 0.5, PARAMS), V, PARAMS, 1e-3, 200,
                             snapshot_stride=1)
    record_polars(rec, PARAMS)  # the cached stack is the record's, not the residual's
    block_bytes = (mvlab.madelung.RESIDUAL_BLOCK + 2) * g.n_points * 8
    for residual in (lambda: continuity_residual(rec, PARAMS), lambda: hamilton_jacobi_residual(rec, V, PARAMS)):
        tracemalloc.start()
        try:
            report = residual()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < report.field.nbytes + report.mask.nbytes + 10 * block_bytes


@st.composite
def stacks(draw):
    """A grid of either boundary, a random (T, n) float stack and a random (T, n) mask."""
    T, n = draw(st.integers(1, 5)), draw(st.integers(8, 40))
    grid = SpatialGrid(-4.0, 4.0, n, draw(st.sampled_from(["periodic", "dirichlet"])))
    values = draw(arrays(np.float64, (T, n), elements=st.floats(-1e3, 1e3)))
    mask = draw(arrays(bool, (T, n)))
    return grid, values, mask


@settings(max_examples=150, deadline=None)
@given(stacks(), st.floats(0.1, 10.0))
def test_kernels_on_a_stack_equal_row_by_row(case, hbar):
    grid, values, mask = case
    kernels = (
        lambda v: gradient(v, grid),
        lambda v: laplacian(v, grid),
        lambda v: phase_gradient(v, grid, hbar),
    )
    for kernel in kernels:
        assert np.array_equal(kernel(values), np.stack([kernel(row) for row in values]))
    zone = node_zone(mask, grid)
    assert np.array_equal(zone, np.stack([node_zone(row, grid) for row in mask]))


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_node_zone_equals_the_point_by_point_loop(case):
    grid, _, mask = case
    assert np.array_equal(node_zone(mask, grid), loop_node_zone(mask, grid))
