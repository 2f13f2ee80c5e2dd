import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    discrete_harmonic_ground_state,
    free_gaussian_trajectory,
    free_gaussian_velocity,
    loop_node_zone,
    per_snapshot_universes,
    per_step_classical,
)

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
    normalize,
)
from mvlab.madelung import decompose, record_polars
from mvlab.universes import (
    VELOCITY_BLOCK,
    TrajectoryEnsemble,
    classical_ensemble_evolve,
    crossing_count,
    density_transport_check,
    integrate_universes,
    stratified_positions,
    trajectories_to_csv,
    velocity_field,
)

PARAMS = PhysicalParams()


def free_gaussian_record(n=2048, dt=1e-3, n_steps=2000, stride=4, sigma=1.0):
    g = SpatialGrid(-20.0, 20.0, n)
    wf0 = make_gaussian_packet(g, 0.0, sigma, 0.0, PARAMS)
    rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, n_steps, snapshot_stride=stride)
    return rec, g


@functools.lru_cache(maxsize=None)
def colliding_record(boundary):
    """Two packets meeting at x=0 on 256 points, 41 snapshots: interference makes nodes."""
    g = SpatialGrid(-20.0, 20.0, 256, boundary)
    plus = make_gaussian_packet(g, 3.0, 1.0, -2.0, PARAMS)
    minus = make_gaussian_packet(g, -3.0, 1.0, 2.0, PARAMS)
    wf0 = normalize(GridWavefunction(g, plus.amplitudes + minus.amplitudes))
    return evolve_schrodinger(wf0, free_potential(g), PARAMS, 2e-3, 1000, snapshot_stride=25)


def endpoints(rec, a, b):
    """(T, 2) columns of the trajectories started at a and b, the transport check's interval."""
    return integrate_universes(rec, [a, b], PARAMS).positions


def loop_trajectories_csv(ensemble):
    """trajectories_to_csv's original per-row writer: the byte reference."""
    lines = ["t,trajectory_id,x,kind,flags\n"]
    word = {"bohmian": "frozen", "classical": "escaped"}[ensemble.kind]
    for t_idx, t in enumerate(ensemble.times):
        for m in range(ensemble.n_trajectories):
            flag = ""
            if np.isfinite(ensemble.stopped_at[m]) and t >= ensemble.stopped_at[m]:
                flag = word
            x = ensemble.positions[t_idx, m]
            lines.append(f"{float(t)!r},{m},{float(x)!r},{ensemble.kind},{flag}\n")
    return "".join(lines).encode()


class TestVelocityField:
    def test_plane_wave_uniform(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        k = 2.0 * np.pi * 4 / g.length
        polar = decompose(make_plane_wave(g, k, 1.0), PARAMS)
        v = velocity_field(polar, PARAMS)
        assert np.max(np.abs(v - PARAMS.hbar * k / PARAMS.mass)) < 1e-10

    def test_real_gaussian_zero(self):
        g = SpatialGrid(-20.0, 20.0, 512)
        polar = decompose(make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS), PARAMS)
        v = velocity_field(polar, PARAMS)
        assert np.nanmax(np.abs(v)) == 0.0

    def test_spreading_gaussian_matches_analytic_flow(self):
        rec, g = free_gaussian_record()
        i = len(rec.snapshots) // 2
        t = rec.times[i]
        polar = decompose(rec.snapshots[i], PARAMS)
        v = velocity_field(polar, PARAMS)
        keep = ~np.isnan(v) & (np.abs(g.points) < 6.0)
        exact = free_gaussian_velocity(g.points[keep], t, 1.0)
        assert np.max(np.abs(v[keep] - exact)) < 1e-5

    def test_nodes_are_nan(self):
        g = SpatialGrid(-20.0, 20.0, 1024)
        plus = make_gaussian_packet(g, 2.0, 1.0, 0.0, PARAMS)
        minus = make_gaussian_packet(g, -2.0, 1.0, 0.0, PARAMS)
        from mvlab.fields import GridWavefunction, normalize

        odd = normalize(GridWavefunction(g, plus.amplitudes - minus.amplitudes))
        v = velocity_field(decompose(odd, PARAMS), PARAMS)
        center = np.argmin(np.abs(g.points))
        assert np.isnan(v[center])

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_nan_set_is_the_dilated_node_mask(self, boundary):
        # the same node zone in which integrate_universes freezes trajectories
        g = SpatialGrid(-20.0, 20.0, 1024, boundary)
        plus = make_gaussian_packet(g, 2.0, 1.0, 0.0, PARAMS)
        minus = make_gaussian_packet(g, -2.0, 1.0, 0.0, PARAMS)
        from mvlab.fields import GridWavefunction, normalize

        polar = decompose(normalize(GridWavefunction(g, plus.amplitudes - minus.amplitudes)), PARAMS)
        assert polar.node_mask.any()
        assert np.array_equal(np.isnan(velocity_field(polar, PARAMS)), loop_node_zone(polar.node_mask, g))


class TestIntegrateUniverses:
    def test_free_gaussian_scaling_map(self):
        rec, _ = free_gaussian_record()
        starts = np.linspace(-2.0, 2.0, 20)
        ens = integrate_universes(rec, starts, PARAMS)
        t_final = rec.times[-1]
        exact = free_gaussian_trajectory(starts, t_final, 1.0)
        rel = np.abs(ens.positions[-1] - exact) / np.abs(exact)
        assert np.max(rel) < 1e-4
        assert ens.kind == "bohmian"
        assert not np.isfinite(ens.stopped_at).any()

    def test_plane_wave_rigid_drift(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        k = 2.0 * np.pi * 4 / g.length
        wf0 = make_plane_wave(g, k, 1.0)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 1000, snapshot_stride=100)
        starts = np.linspace(-5.0, 5.0, 11)
        ens = integrate_universes(rec, starts, PARAMS)
        v = PARAMS.hbar * k / PARAMS.mass
        t_final = rec.times[-1]
        assert np.max(np.abs(ens.positions[-1] - (starts + v * t_final))) < 1e-9
        spacings = np.diff(ens.positions[-1])
        assert np.max(np.abs(spacings - spacings[0])) < 1e-9

    def test_stationary_state_trajectories_static(self):
        g = SpatialGrid(-12.0, 12.0, 512, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0, _ = discrete_harmonic_ground_state(g, 1.0)
        rec = evolve_schrodinger(wf0, V, PARAMS, 1e-3, 200, snapshot_stride=20)
        starts = np.linspace(-1.5, 1.5, 7)
        ens = integrate_universes(rec, starts, PARAMS)
        assert np.max(np.abs(ens.positions - starts)) < 1e-9

    def test_rejects_positions_on_nodes(self):
        g = SpatialGrid(-20.0, 20.0, 1024)
        from mvlab.fields import GridWavefunction, normalize

        plus = make_gaussian_packet(g, 2.0, 1.0, 0.0, PARAMS)
        minus = make_gaussian_packet(g, -2.0, 1.0, 0.0, PARAMS)
        odd = normalize(GridWavefunction(g, plus.amplitudes - minus.amplitudes))
        rec = evolve_schrodinger(odd, free_potential(g), PARAMS, 1e-3, 10, snapshot_stride=5)
        with pytest.raises(DomainError):
            integrate_universes(rec, [0.0], PARAMS)

    def test_rejects_positions_outside_grid(self):
        rec, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=10, stride=5)
        with pytest.raises(DomainError):
            integrate_universes(rec, [50.0], PARAMS)

    @pytest.mark.parametrize("starts", [[np.nan], [0.0, np.nan], [np.nan, np.inf]])
    def test_rejects_nan_positions_at_the_start(self, starts):
        rec, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=10, stride=5)
        with pytest.raises(DomainError, match="initial positions must lie within the grid"):
            integrate_universes(rec, starts, PARAMS)

    @pytest.mark.parametrize("starts", [[[0.0], [1.0, 2.0]], ["a"], [object()], [1j], [10**400],
                                        ["1.0"], np.array(["1.0"]), [0, "1.0"], [2**70, "1.0"]],
                             ids=["ragged", "str", "object", "complex", "int-past-float-range",
                                  "numeric-str", "numeric-str-array", "mixed-str", "mixed-object-str"])
    def test_rejects_ragged_or_non_numeric_positions_by_name(self, starts):
        rec, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=10, stride=5)
        with pytest.raises(DomainError, match="initial positions must be a nonempty 1D sequence"):
            integrate_universes(rec, starts, PARAMS)


class TestOnePass:
    """integrate_universes derives velocity in blocks and wraps once per RK4 stage."""

    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_blocks_equal_the_per_snapshot_loop(self, boundary):
        rec = colliding_record(boundary)
        assert len(rec.times) % VELOCITY_BLOCK and len(rec.times) > VELOCITY_BLOCK  # a partial block
        starts = np.concatenate((np.linspace(-5.0, -1.0, 15), np.linspace(1.0, 5.0, 15)))
        ens = integrate_universes(rec, starts, PARAMS, 1e-2)
        positions, stopped_at = per_snapshot_universes(rec, starts, PARAMS, 1e-2)
        assert ens.positions.tobytes() == positions.tobytes()
        assert ens.stopped_at.tobytes() == stopped_at.tobytes()
        if boundary == "periodic":
            assert np.isfinite(ens.stopped_at).any()  # the freeze path is exercised

    @settings(max_examples=30, deadline=None)
    @given(
        boundary=st.sampled_from(["periodic", "dirichlet"]),
        node_epsilon=st.sampled_from([1e-6, 1e-2]),
        starts=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12),
        ends=st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=2),
    )
    def test_endpoints_riding_along_equal_separate_calls(self, boundary, node_epsilon, starts, ends):
        rec = colliding_record(boundary)
        both = integrate_universes(rec, starts + ends, PARAMS, node_epsilon)
        m = len(starts)
        for cols, alone in ((slice(None, m), starts), (slice(m, None), ends)):
            separate = integrate_universes(rec, alone, PARAMS, node_epsilon)
            assert both.positions[:, cols].tobytes() == separate.positions.tobytes()
            assert both.stopped_at[cols].tobytes() == separate.stopped_at.tobytes()

    def test_ensemble_keeps_a_read_only_view(self):
        rec = colliding_record("periodic")
        both = integrate_universes(rec, [-2.0, -1.0, 1.0, 2.0], PARAMS)
        head = TrajectoryEnsemble(both.times, both.positions[:, :2], "bohmian", both.stopped_at[:2])
        assert np.shares_memory(head.positions, both.positions)
        assert not head.positions.flags.writeable


class TestClassicalFlow:
    """classical_ensemble_evolve steps the stacked (x, v) through the RK4 stage the Bohmian flow uses."""

    @pytest.mark.parametrize("case", ["periodic-caustic", "dirichlet-escape", "harmonic"])
    def test_stacked_state_equals_the_per_step_loop(self, case):
        if case == "periodic-caustic":
            g = SpatialGrid(-10.0, 10.0, 256)
            V, x, dt, n = free_potential(g), np.linspace(-4.0, 4.0, 16), 0.0123, 102
            v = -x / 1.0
        elif case == "dirichlet-escape":
            g = SpatialGrid(-2.0, 2.0, 64, "dirichlet")
            V, x, dt, n = free_potential(g), np.linspace(-1.5, 1.5, 9), 1e-2, 50
            v = np.linspace(-10.0, 10.0, 9)
        else:
            g = SpatialGrid(-8.0, 8.0, 512, "dirichlet")
            V, x, dt, n = harmonic_potential(g, 1.0, PARAMS), np.linspace(-3.0, 3.0, 11), 1e-3, 3000
            v = np.sin(x)
        rec = classical_ensemble_evolve(x, v, V, PARAMS, dt, n)
        positions, velocities, stopped_at = per_step_classical(x, v, V, PARAMS, dt, n)
        assert rec.ensemble.positions.tobytes() == positions.tobytes()
        assert rec.velocities.tobytes() == velocities.tobytes()
        assert rec.ensemble.stopped_at.tobytes() == stopped_at.tobytes()
        if case == "dirichlet-escape":
            assert np.isfinite(stopped_at).any() and np.isnan(stopped_at).any()

    @pytest.mark.parametrize("positions, velocities", [
        ([0.0, 1.0], [0.0]), ([0.0], [0.0, 1.0]), ([], []), ([0.0, 1.0], [[0.0, 1.0]]),
        ([0.0, 1.0], [0.0, np.nan]), ([0.0], [np.inf]),
        ([[0.0], [1.0, 2.0]], [0.0, 1.0]), ([0.0, 1.0], [[0.0], [1.0, 2.0]]),
        (["a"], [0.0]), ([0.0], ["a"]), ([object()], [0.0]), ([0.0], [object()]),
        ([1j], [0.0]), ([0.0], [1j]), ([10**400], [0.0]), ([0.0], [10**400]),
        (["1.0"], [0.0]), ([0.0], ["1.0"]),
    ], ids=["short", "long", "empty", "2d", "nan", "inf", "ragged-positions", "ragged-velocities",
            "str-position", "str-velocity", "object-position", "object-velocity",
            "complex-position", "complex-velocity", "int-past-float-range-position",
            "int-past-float-range-velocity", "numeric-str-position", "numeric-str-velocity"])
    def test_rejects_mismatched_empty_or_non_finite_velocities(self, positions, velocities):
        g = SpatialGrid(-10.0, 10.0, 256)
        with pytest.raises(DomainError, match="initial"):
            classical_ensemble_evolve(positions, velocities, free_potential(g), PARAMS, 1e-2, 10)


    @pytest.mark.parametrize("velocities", [[1, 2**70], np.array([0.5, 2.0], dtype=np.float32),
                                            [True, Fraction(1, 3)], (0.25, np.float64(4.0))],
                             ids=["ints", "float32-array", "bool-fraction", "tuple"])
    def test_numeric_entries_convert_as_float64(self, velocities):
        g = SpatialGrid(-10.0, 10.0, 256)
        rec = classical_ensemble_evolve([0.0, 1.0], velocities, free_potential(g), PARAMS, 1e-2, 0)
        assert rec.velocities[0].tolist() == [float(v) for v in velocities]

    def test_peak_memory_is_the_two_recorded_arrays(self):
        # the record keeps the (T, M) velocities it is built from, as it keeps positions,
        # so a run peaks at the two arrays the CLI's caustic size rule counts; the
        # finiteness check's bool temporary adds an eighth of one
        g = SpatialGrid(-10.0, 10.0, 256, "dirichlet")
        x = np.linspace(-5.0, 5.0, 1001)
        tracemalloc.start()
        try:
            rec = classical_ensemble_evolve(x, -x, free_potential(g), PARAMS, 1e-3, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = rec.velocities.nbytes
        assert rec.ensemble.positions.nbytes == one == 501 * 1001 * 8
        assert peak < 2.25 * one


class TestCrossingCount:
    def test_converging_classical_ensemble_crosses(self):
        g = SpatialGrid(-10.0, 10.0, 256)
        pos = np.linspace(-4.0, 4.0, 64)
        # dt chosen so no recorded time lands on the focus itself
        rec = classical_ensemble_evolve(pos, -pos / 1.0, free_potential(g), PARAMS, 0.0123, 102)
        assert crossing_count(rec.ensemble) >= 63

    def test_bohmian_ensemble_never_crosses(self):
        rec, _ = free_gaussian_record()
        ens = integrate_universes(rec, np.linspace(-2.0, 2.0, 20), PARAMS)
        assert crossing_count(ens) == 0

    def test_single_trajectory_zero(self):
        ens = TrajectoryEnsemble(np.array([0.0, 1.0]), np.array([[0.0], [5.0]]), "classical", [np.nan])
        assert crossing_count(ens) == 0

    def test_order_preservation_implies_monotone_map(self):
        rec, _ = free_gaussian_record()
        starts = np.linspace(-2.0, 2.0, 20)
        ens = integrate_universes(rec, starts, PARAMS)
        finals = ens.positions[-1]
        assert np.all(np.diff(finals) > 0.0)


class TestStratifiedPositions:
    def test_deterministic_and_sorted(self):
        g = SpatialGrid(-20.0, 20.0, 1024)
        polar = decompose(make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS), PARAMS)
        a = stratified_positions(polar, 100)
        b = stratified_positions(polar, 100)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0.0)

    def test_strata_have_equal_mass(self):
        g = SpatialGrid(-20.0, 20.0, 2048)
        polar = decompose(make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS), PARAMS)
        pts = stratified_positions(polar, 1000)
        # the empirical CDF of the sample tracks the density CDF
        density = polar.R**2 * g.dx
        cdf = np.cumsum(density)
        at_samples = np.interp(pts, g.points + g.dx, cdf)
        expected = (np.arange(1000) + 0.5) / 1000
        assert np.max(np.abs(at_samples - expected)) < 2e-3

    def test_needs_one_snapshot(self):
        polars = record_polars(colliding_record("periodic"), PARAMS)
        with pytest.raises(DomainError, match="one snapshot"):
            stratified_positions(polars, 10)
        assert stratified_positions(polars[0], 10).shape == (10,)


class TestDensityTransport:
    def test_free_gaussian_interval_mass_conserved(self):
        rec, _ = free_gaussian_record()
        polar0 = decompose(rec.snapshots[0], PARAMS)
        starts = stratified_positions(polar0, 10000)
        ens = integrate_universes(rec, starts, PARAMS)
        report = density_transport_check(rec, ens, endpoints(rec, -1.0, 1.0), PARAMS)
        assert report.max_deviation < report.bound
        assert report.bound == 3.0 / np.sqrt(10000)

    def test_plane_wave_rigid_translation(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        k = 2.0 * np.pi * 2 / g.length
        wf0 = make_plane_wave(g, k, 1.0)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 400, snapshot_stride=100)
        polar0 = decompose(rec.snapshots[0], PARAMS)
        starts = stratified_positions(polar0, 2000)
        ens = integrate_universes(rec, starts, PARAMS)
        report = density_transport_check(rec, ens, endpoints(rec, -4.0, 4.0), PARAMS)
        assert report.max_deviation < 1.0 / np.sqrt(2000)

    def test_stationary_state_fraction_constant(self):
        g = SpatialGrid(-12.0, 12.0, 512, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0, _ = discrete_harmonic_ground_state(g, 1.0)
        rec = evolve_schrodinger(wf0, V, PARAMS, 1e-3, 100, snapshot_stride=20)
        polar0 = decompose(rec.snapshots[0], PARAMS)
        starts = stratified_positions(polar0, 2000)
        ens = integrate_universes(rec, starts, PARAMS)
        report = density_transport_check(rec, ens, endpoints(rec, -1.0, 1.0), PARAMS)
        assert np.max(np.abs(report.fractions - report.fractions[0])) < 1.0 / np.sqrt(2000)

    def test_deviation_bound_halves_when_m_quadruples(self):
        rec, _ = free_gaussian_record(n=1024, dt=2e-3, n_steps=500, stride=10)
        polar0 = decompose(rec.snapshots[0], PARAMS)
        reports = {}
        for m in (2500, 10000):
            starts = stratified_positions(polar0, m)
            ens = integrate_universes(rec, starts, PARAMS)
            reports[m] = density_transport_check(rec, ens, endpoints(rec, -1.0, 1.0), PARAMS)
        assert reports[10000].bound == reports[2500].bound / 2.0
        assert reports[2500].max_deviation < reports[2500].bound
        assert reports[10000].max_deviation < reports[10000].bound

    def test_rejects_mismatched_records(self):
        rec, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=100, stride=10)
        other, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=100, stride=20)
        polar0 = decompose(rec.snapshots[0], PARAMS)
        ens = integrate_universes(rec, stratified_positions(polar0, 100), PARAMS)
        with pytest.raises(DomainError):
            density_transport_check(other, ens, endpoints(rec, -1.0, 1.0), PARAMS)

    def test_rejects_bad_endpoints(self):
        rec, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=100, stride=10)
        starts = stratified_positions(decompose(rec.snapshots[0], PARAMS), 100)
        ens = integrate_universes(rec, starts, PARAMS)
        with pytest.raises(DomainError, match="a < b"):
            density_transport_check(rec, ens, endpoints(rec, 1.0, -1.0), PARAMS)
        with pytest.raises(DomainError, match="shape"):
            density_transport_check(rec, ens, endpoints(rec, -1.0, 1.0)[:, 1:], PARAMS)

    def test_rejects_classical_ensemble(self):
        rec, _ = free_gaussian_record(n=512, dt=1e-3, n_steps=100, stride=10)
        ens = TrajectoryEnsemble(rec.times, np.zeros((len(rec.times), 3)), "classical", np.full(3, np.nan))
        with pytest.raises(DomainError):
            density_transport_check(rec, ens, np.zeros((len(rec.times), 2)), PARAMS)


def test_every_record_is_time_major():
    """Row s of every record array is the state at times[s]; M, n and T all differ here."""
    rec = colliding_record("periodic")
    polars = record_polars(rec, PARAMS)
    bohmian = integrate_universes(rec, [-4.0, -3.0, 3.0], PARAMS)
    classical = classical_ensemble_evolve([-2.0, -1.0, 0.0, 1.0, 2.0], np.zeros(5),
                                          free_potential(rec.grid), PARAMS, 0.1, 7)
    arrays = [(rec.times, rec.amplitudes), (rec.times, polars.R), (rec.times, polars.phi),
              (rec.times, polars.node_mask), (bohmian.times, bohmian.positions),
              (classical.ensemble.times, classical.ensemble.positions),
              (classical.ensemble.times, classical.velocities)]
    for times, array in arrays:
        assert array.ndim == 2 and array.shape[0] == len(times) != array.shape[1]


class TestTrajectoriesCsv:
    def test_frozen_flags_match_row_loop(self, tmp_path):
        times = np.linspace(0.0, 1.0, 11)
        positions = np.cumsum(np.full((11, 6), 0.25), axis=1) + np.sin(times)[:, None]
        # never, mid-run (exactly on a recorded time and between two), last time, first, after the end
        stopped_at = [np.nan, times[3], 0.35, times[-1], 0.0, 2.0]
        for kind, word, other in (("bohmian", b"frozen", b"escaped"), ("classical", b"escaped", b"frozen")):
            ens = TrajectoryEnsemble(times, positions, kind, stopped_at)
            path = tmp_path / f"{kind}.csv"
            trajectories_to_csv(ens, path)
            text = path.read_bytes()
            assert word in text and other not in text  # the kind names the flag
            assert text == loop_trajectories_csv(ens)

    def test_escaped_flags_match_row_loop(self, tmp_path):
        g = SpatialGrid(-10.0, 10.0, 256, "dirichlet")
        pos = np.linspace(-9.0, 9.0, 7)
        rec = classical_ensemble_evolve(pos, -3.0 * pos, free_potential(g), PARAMS, 0.05, 200)
        assert np.isfinite(rec.ensemble.stopped_at).any()
        path = tmp_path / "traj.csv"
        trajectories_to_csv(rec.ensemble, path)
        assert path.read_bytes() == loop_trajectories_csv(rec.ensemble)
