import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvlab.fields
from mvlab.branchstats import BranchTree
from mvlab.errors import CommensurabilityError, DomainError, ResolutionError
from mvlab.evolution import EvolutionRecord
from mvlab.fields import (
    GridWavefunction,
    LazyBlocks,
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    free_potential,
    gradient,
    harmonic_potential,
    interpolator,
    laplacian,
    make_gaussian_packet,
    make_plane_wave,
    norm_squared,
    normalize,
    write_csv,
    write_json,
)
from mvlab.madelung import PolarField, decompose
from mvlab.universes import ClassicalEnsembleRecord, TrajectoryEnsemble
from oracles import csv_bytes

PARAMS = PhysicalParams()


def grid(n=1024, lo=-20.0, hi=20.0, boundary="periodic"):
    return SpatialGrid(lo, hi, n, boundary)


class TestGrid:
    def test_spacing_and_points(self):
        g = grid(n=8, lo=0.0, hi=4.0)
        assert g.dx == 0.5
        assert np.allclose(g.points, np.arange(8) * 0.5)
        # periodic grids exclude x_max: it is the same point as x_min
        assert g.points[-1] == 3.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            SpatialGrid(1.0, 1.0, 64)
        with pytest.raises(DomainError):
            SpatialGrid(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            SpatialGrid(0.0, 1.0, 64, "absorbing")

    def test_params_positive(self):
        with pytest.raises(DomainError):
            PhysicalParams(hbar=0.0)
        with pytest.raises(DomainError):
            PhysicalParams(mass=-1.0)


class TestGaussianPacket:
    def test_normalized(self):
        wf = make_gaussian_packet(grid(), 0.0, 1.0, 0.0, PARAMS)
        assert abs(norm_squared(wf) - 1.0) < 1e-12

    def test_peak_at_center(self):
        g = grid()
        wf = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        peak = np.argmax(np.abs(wf.amplitudes))
        nearest = np.argmin(np.abs(g.points - 0.0))
        assert peak == nearest

    def test_phase_gradient_matches_k0(self):
        # discrete phase slope at the packet center is hbar*k0
        g = grid(n=2048)
        wf = make_gaussian_packet(g, 0.0, 1.0, 2.0, PARAMS)
        polar = decompose(wf, PARAMS)
        center = np.argmax(polar.R)
        slope = (polar.phi[center + 1] - polar.phi[center]) / g.dx
        assert abs(slope - 2.0 * PARAMS.hbar) < 1e-6

    def test_deterministic_bitwise(self):
        a = make_gaussian_packet(grid(), 0.3, 1.2, 0.7, PARAMS)
        b = make_gaussian_packet(grid(), 0.3, 1.2, 0.7, PARAMS)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_resolution_guard(self):
        g = grid(n=64)  # dx = 0.625
        with pytest.raises(ResolutionError):
            make_gaussian_packet(g, 0.0, 2.0, 0.0, PARAMS)

    def test_center_outside_grid(self):
        with pytest.raises(DomainError):
            make_gaussian_packet(grid(), 25.0, 1.0, 0.0, PARAMS)

    @pytest.mark.parametrize("k0", [np.nan, np.inf, -np.inf, 1e308])
    def test_k0_with_a_non_finite_phase_rejected(self, k0):
        with pytest.raises(DomainError, match="k0"):
            make_gaussian_packet(grid(), 0.0, 1.0, k0, PARAMS)

    def test_k0_resolution_guard(self):
        g = grid(n=64)  # dx = 0.625, so |k0| must stay below pi/dx = 5.03
        make_gaussian_packet(g, 0.0, 4.0, -5.0, PARAMS)
        with pytest.raises(ResolutionError, match="k0"):
            make_gaussian_packet(g, 0.0, 4.0, -5.1, PARAMS)


class TestHarmonicPotential:
    # (x - center)**2 reaches 400 on grid(); 1e150 keeps the largest value finite, near 2e302
    @pytest.mark.parametrize("omega, mass", [(1.0, 1.7e308), (1e154, 1.0), (1e150, 1e10)])
    def test_potential_past_float_range_names_omega_and_mass(self, omega, mass):
        with pytest.raises(DomainError, match=r"past float range.*omega=.*mass="):
            harmonic_potential(grid(), omega, PhysicalParams(1.0, mass))

    def test_largest_finite_potential_is_kept(self):
        V = harmonic_potential(grid(), 1e150, PARAMS)
        assert np.isfinite(V.values).all() and V.values.max() > 1e302


class TestPlaneWave:
    def test_constant_modulus(self):
        g = SpatialGrid(0.0, 2.0 * np.pi, 64)
        wf = make_plane_wave(g, 1.0, 1.0)
        assert np.allclose(np.abs(wf.amplitudes), 1.0, atol=1e-14)

    def test_zero_k_is_constant_one(self):
        g = SpatialGrid(0.0, 2.0 * np.pi, 64)
        wf = make_plane_wave(g, 0.0, 1.0)
        assert np.array_equal(wf.amplitudes, np.ones(64, dtype=complex))

    def test_norm_is_amplitude_squared_times_length(self):
        g = SpatialGrid(0.0, 2.0 * np.pi, 256)
        wf = make_plane_wave(g, 1.0, 1.0)
        assert abs(norm_squared(wf) - 2.0 * np.pi) < 1e-12
        g10 = SpatialGrid(-5.0, 5.0, 256)
        wf2 = make_plane_wave(g10, 2.0 * np.pi * 3 / 10.0, 2.0)
        assert abs(norm_squared(wf2) - 40.0) < 1e-12

    def test_commensurability_guard(self):
        g = SpatialGrid(0.0, 2.0 * np.pi, 64)
        with pytest.raises(CommensurabilityError):
            make_plane_wave(g, 1.3, 1.0)

    def test_requires_periodic(self):
        g = SpatialGrid(0.0, 2.0 * np.pi, 64, "dirichlet")
        with pytest.raises(DomainError):
            make_plane_wave(g, 1.0, 1.0)


class TestNorm:
    def test_zero_field(self):
        wf = GridWavefunction(grid(n=16), np.zeros(16, dtype=complex))
        assert norm_squared(wf) == 0.0

    @pytest.mark.parametrize("scale", [0.1, 3.0, 1e4])
    def test_normalize_then_norm_is_one(self, scale):
        g = grid(n=256)
        raw = GridWavefunction(g, scale * np.exp(-g.points**2) * (1.0 + 0.5j))
        assert abs(norm_squared(normalize(raw)) - 1.0) < 1e-12

    def test_normalize_rejects_zero(self):
        with pytest.raises(DomainError):
            normalize(GridWavefunction(grid(n=16), np.zeros(16, dtype=complex)))


class TestWavefunctionValidation:
    def test_rejects_nan(self):
        amps = np.ones(16, dtype=complex)
        amps[3] = np.nan
        with pytest.raises(DomainError):
            GridWavefunction(grid(n=16), amps)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            GridWavefunction(grid(n=16), np.ones(15, dtype=complex))

    def test_amplitudes_immutable(self):
        wf = make_gaussian_packet(grid(), 0.0, 1.0, 0.0, PARAMS)
        with pytest.raises(ValueError):
            wf.amplitudes[0] = 0.0


class TestFreeze:
    """Every record array passes through fields._freeze: copied or kept per type, then read-only."""

    @staticmethod
    def records():
        """(record, its array attribute, the array it was given) for each record type."""
        g = grid(n=16)
        amps, real, mask = np.ones(16, dtype=complex) / 4.0, np.ones(16), np.zeros(16, dtype=bool)
        polar = PolarField(g, real, real.copy(), mask)
        stack, times = np.tile(amps, (3, 1)), np.arange(3.0)
        record = EvolutionRecord(PARAMS, free_potential(g), 1.0, 1, times, stack)
        positions, flags = np.zeros((3, 2)), np.array([np.nan, 1.0])
        ensemble = TrajectoryEnsemble(times, positions, "bohmian", stopped_at=flags)
        velocities, weights = np.zeros((3, 2)), np.full(4, 0.25)
        return [
            (GridWavefunction(g, amps), "amplitudes", amps),
            (PotentialField(g, real), "values", real),
            (polar, "R", real), (polar, "node_mask", mask),
            (record, "times", times), (record, "amplitudes", stack),
            (ensemble, "times", times), (ensemble, "positions", positions),
            (ensemble, "stopped_at", flags),
            (ClassicalEnsembleRecord(PARAMS, free_potential(g), ensemble, velocities),
             "velocities", velocities),
            (BranchTree(2, 0.5, weights), "weights", weights),
        ]

    def test_copy_or_keep_and_read_only(self):
        kept = {("PolarField", "R"), ("PolarField", "node_mask"), ("EvolutionRecord", "amplitudes"),
                ("TrajectoryEnsemble", "times"), ("TrajectoryEnsemble", "positions"),
                ("TrajectoryEnsemble", "stopped_at")}
        for record, name, given in self.records():
            held = getattr(record, name)
            assert (held is given) == ((type(record).__name__, name) in kept), (record, name)
            assert not held.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_times_and_weights_must_be_finite(self, value):
        times = np.array([0.0, 1.0, value])
        with pytest.raises(DomainError, match="NaN or Inf in times"):
            TrajectoryEnsemble(times, np.zeros((3, 2)), "bohmian")
        g = grid(n=16)
        with pytest.raises(DomainError, match="NaN or Inf in times"):
            EvolutionRecord(PARAMS, free_potential(g), 1.0, 1, times, np.ones((3, 16)) / 4.0)
        with pytest.raises(DomainError, match="NaN or Inf in weights"):
            BranchTree(1, 0.5, [value, 0.5])


class TestDerivatives:
    def test_gradient_periodic_on_trig(self):
        g = SpatialGrid(0.0, 2.0 * np.pi, 512)
        f = np.sin(g.points)
        err = np.max(np.abs(gradient(f, g) - np.cos(g.points)))
        assert err < 5e-5

    def test_laplacian_dirichlet_on_polynomial(self):
        # quadratics are differentiated exactly by second-order stencils
        g = SpatialGrid(-1.0, 1.0, 128, "dirichlet")
        f = 3.0 * g.points**2 + g.points
        assert np.allclose(laplacian(f, g), 6.0, atol=1e-9)


FINITE = st.floats(-1e6, 1e6, allow_nan=False)


class TestInterpolator:
    @settings(max_examples=80, deadline=None)
    @given(
        boundary=st.sampled_from(["periodic", "dirichlet"]),
        n=st.integers(8, 40),
        k=st.integers(1, 4),
        data=st.data(),
    )
    def test_stack_rows_equal_single_rows_bitwise(self, boundary, n, k, data):
        g = grid(n=n, lo=-3.0, hi=5.0, boundary=boundary)
        rows = [np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n))) for _ in range(k)]
        # positions beyond the grid on both sides: periodic ones wrap, dirichlet ones clamp
        pos = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30)))
        stacked = interpolator(g, np.stack(rows))(pos)
        assert len(stacked) == k
        for row, got in zip(rows, stacked):
            assert got.tobytes() == interpolator(g, row)(pos).tobytes()

    def test_periodic_wraps_and_dirichlet_clamps(self):
        values = np.arange(8.0)
        at = np.array([-1.0, 0.5, 7.5, 8.0, 9.0])
        assert np.array_equal(interpolator(grid(8, 0.0, 8.0), values)(at), [7.0, 0.5, 3.5, 0.0, 1.0])
        dirichlet = grid(8, 0.0, 8.0, "dirichlet")
        assert np.array_equal(interpolator(dirichlet, values)(at), [0.0, 0.5, 7.0, 7.0, 7.0])


class TestWriteCsv:
    FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, -2.5])
    INTS = np.arange(8) - 3
    BOOLS = np.array([True, False, True, True, False, False, True, False])
    LABELS = [f"s{k}" for k in range(8)]

    def test_blocks_joined_by_hand(self, tmp_path):
        columns = (self.FLOATS, self.INTS, self.BOOLS, self.LABELS)
        blocks = tuple(
            tuple(c[lo:hi] for c in columns) for lo, hi in ((0, 1), (1, 1), (1, 5), (5, 8))
        )  # a one-row block, an empty block, then two more
        path = tmp_path / "out.csv"
        write_csv(path, "f,i,b,s", blocks)
        expected = "f,i,b,s\n" + "".join(
            f"{repr(float(f))},{str(int(i))},{str(int(b))},{s}\n" for f, i, b, s in zip(*columns)
        )
        assert path.read_bytes() == expected.encode()

    def test_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "f", [(self.FLOATS,)])
        back = np.array([float(v) for v in path.read_text().split("\n")[1:-1]])
        assert np.array_equal(back, self.FLOATS, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(self.FLOATS))

    def test_no_blocks_writes_the_header(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "a,b", [])
        assert path.read_bytes() == b"a,b\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", "a,b", [(self.FLOATS, self.INTS[:3])])

    def test_longer_later_column_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", "a,b", [(self.FLOATS[:3], self.INTS)])


SPECIAL_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 0.1])
COLUMN_KINDS = {
    "float": lambda n: st.lists(st.one_of(SPECIAL_FLOATS, st.floats()), min_size=n, max_size=n)
    .map(lambda v: np.array(v, dtype=np.float64)),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    "int": lambda n: st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n).map(np.array),
    "str": lambda n: st.lists(st.text("abz09_-. ", max_size=5), min_size=n, max_size=n),
}


class Exploding:
    """A string column that raises while it is formatted; given the test's pid, a worker
    formatting it kills itself instead."""

    def __init__(self, rows, only_in_worker_pid=None):
        self.rows, self.parent = rows, only_in_worker_pid

    def __len__(self):
        return self.rows

    def __iter__(self):
        if self.parent is not None and os.getpid() != self.parent:
            os.kill(os.getpid(), 9)  # SIGKILL: the worker dies without a word
        raise RuntimeError("boom")


def split_blocks(mp, cores):
    """Force write_csv to split any nonempty first block, on `cores` cores."""
    mp.setattr(mvlab.fields, "MIN_FIELDS_PER_RANGE", 1)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def assert_no_leftovers(directory):
    assert not list(Path(directory).glob("*.part*"))
    with pytest.raises(ChildProcessError):  # no worker running, none left unreaped
        os.waitpid(-1, os.WNOHANG)


class TestParallelWriteCsv:
    """write_csv split into contiguous block ranges, formatted in forked workers."""

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=4),
           n_blocks=st.integers(1, 40), cores=st.integers(1, 4), data=st.data())
    def test_equals_the_serial_reference(self, kinds, n_blocks, cores, data):
        sizes = data.draw(st.lists(st.integers(0, 4), min_size=n_blocks, max_size=n_blocks))
        blocks = [tuple(data.draw(COLUMN_KINDS[kind](n)) for kind in kinds) for n in sizes]
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
            split_blocks(mp, cores)
            mp.setattr(os, "fork", counted_fork)
            path = Path(out, "out.csv")
            write_csv(path, "h", LazyBlocks(n_blocks, blocks.__getitem__))
            assert path.read_bytes() == csv_bytes("h", blocks)
            assert_no_leftovers(out)
        # one worker per core beyond this process's own, while the first block has fields
        assert len(forks) == (min(cores, n_blocks) - 1 if sizes[0] else 0)

    def test_worker_failure_raises_oserror_naming_it(self, tmp_path, monkeypatch):
        split_blocks(monkeypatch, 2)
        blocks = [(np.arange(3.0),), (np.arange(3.0),), (Exploding(3),)]
        with pytest.raises(OSError, match=r"out\.csv\.part1 failed: RuntimeError: boom"):
            write_csv(tmp_path / "out.csv", "h", blocks)
        assert_no_leftovers(tmp_path)

    def test_killed_worker_raises_oserror(self, tmp_path, monkeypatch):
        split_blocks(monkeypatch, 2)
        blocks = [(np.arange(3.0),), (Exploding(3, only_in_worker_pid=os.getpid()),)]
        with pytest.raises(OSError, match="killed by signal 9"):
            write_csv(tmp_path / "out.csv", "h", blocks)
        assert_no_leftovers(tmp_path)

    def test_own_range_failure_stops_the_workers(self, tmp_path, monkeypatch):
        split_blocks(monkeypatch, 3)
        blocks = [(Exploding(3),)] + [(np.arange(1e5),)] * 5  # the workers still have work
        with pytest.raises(RuntimeError, match="boom"):
            write_csv(tmp_path / "out.csv", "h", blocks)
        assert_no_leftovers(tmp_path)

    def test_serial_where_fork_is_missing(self, tmp_path, monkeypatch):
        split_blocks(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        blocks = [(np.arange(4) - 1.5, [f"r{i}" for i in range(4)])] * 3
        write_csv(tmp_path / "out.csv", "a,b", blocks)
        assert (tmp_path / "out.csv").read_bytes() == csv_bytes("a,b", blocks)

    def test_lazy_blocks_are_sized_and_bounded(self):
        blocks = LazyBlocks(3, lambda i: (np.full(2, i),))
        assert len(blocks) == 3 and blocks[2][0].tolist() == [2, 2]
        with pytest.raises(IndexError):
            blocks[3]
        assert [b[0][0] for b in blocks] == [0, 1, 2]  # iteration stops at the count


class TestWriteJson:
    def test_sorted_indented_lf_bytes(self, tmp_path):
        payload = {"b": [1, 0.1, -0.0], "a": {"z": "up", "y": None}}
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert path.read_bytes().startswith(b'{\n  "a": {\n    "y": null,')

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_refused_before_open(self, tmp_path, bad):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"a": 1, "b": [0.5, bad]})
        assert not path.exists()
