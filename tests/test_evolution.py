import hashlib
import importlib.machinery
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from corpus import corpus
from oracles import (
    coherent_state,
    discrete_harmonic_ground_state,
    free_gaussian,
    linear_scan_stride,
)

from mvlab import evolution
from mvlab.errors import DomainError, StabilityError
from mvlab.evolution import EvolutionRecord, evolve_schrodinger
from mvlab.fields import (
    GridWavefunction,
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    free_potential,
    harmonic_potential,
    make_gaussian_packet,
    make_plane_wave,
    norm_squared,
)
from mvlab.universes import classical_ensemble_evolve

PARAMS = PhysicalParams()
SRC = Path(__file__).resolve().parent.parent / "src"


def oracle_split_step(grid, V, params, dt):
    """The out-of-place Strang step: a fresh array per product and per FFT."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    kinetic = np.exp(-1j * params.hbar * k**2 * dt / (2.0 * params.mass))
    half_kick = np.exp(-1j * V.values * dt / (2.0 * params.hbar))

    def step(psi):
        psi = half_kick * psi
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        return half_kick * psi

    return step


def oracle_crank_nicolson(grid, V, params, dt):
    """Crank-Nicolson through solve_banded, which eliminates the whole system every step."""
    n = grid.n_points
    c = params.hbar**2 / (2.0 * params.mass * grid.dx**2)
    diag = 2.0 * c + V.values
    r = 1j * dt / (2.0 * params.hbar)
    ab = np.zeros((3, n), dtype=np.complex128)
    ab[0, 1:] = -r * c
    ab[1, :] = 1.0 + r * diag
    ab[2, :-1] = -r * c

    def step(psi):
        h_psi = diag * psi
        h_psi[:-1] -= c * psi[1:]
        h_psi[1:] -= c * psi[:-1]
        rhs = psi - r * h_psi
        return solve_banded((1, 1), ab, rhs)

    return step


def oracle_amplitudes(wf0, V, params, dt, n_steps, stride):
    """Every stride-th state of the oracle stepper for the grid's boundary, as one (T, n) array."""
    grid = wf0.grid
    oracle = oracle_split_step if grid.boundary == "periodic" else oracle_crank_nicolson
    step = oracle(grid, V, params, dt)
    psi = wf0.amplitudes.copy()
    expected = [psi]
    for k in range(1, n_steps + 1):
        psi = step(psi)
        if k % stride == 0:
            expected.append(psi)
    return np.stack(expected)


def assert_record_matches_oracle(wf0, V, params, dt, n_steps, stride):
    """Every snapshot of evolve_schrodinger is bit-for-bit the oracle stepper's state."""
    expected = oracle_amplitudes(wf0, V, params, dt, n_steps, stride)
    record = evolve_schrodinger(wf0, V, params, dt, n_steps, stride)
    got = np.stack([wf.amplitudes for wf in record.snapshots])
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.float64), expected.view(np.float64))


@st.composite
def random_evolution(draw):
    """A random grid, state, potential and step inside the dt*max|V|/hbar < 0.5 guard."""
    n = draw(st.integers(8, 128))
    boundary = draw(st.sampled_from(["periodic", "dirichlet"]))
    params = PhysicalParams(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    dt = draw(st.floats(1e-4, 0.1))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    grid = SpatialGrid(-4.0, 4.0, n, boundary)
    amps = np.array(draw(st.lists(unit, min_size=n, max_size=n))) + 1j * np.array(
        draw(st.lists(unit, min_size=n, max_size=n))
    )
    v_cap = draw(st.floats(0.0, 0.49)) * params.hbar / dt
    V = PotentialField(grid, v_cap * np.array(draw(st.lists(unit, min_size=n, max_size=n))))
    return GridWavefunction(grid, amps), V, params, dt, draw(st.integers(1, 12))


class TestSplitStep:
    def test_free_gaussian_matches_analytic_density(self):
        g = SpatialGrid(-20.0, 20.0, 2048)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        n = 10000
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-4, n, snapshot_stride=n)
        exact = free_gaussian(g.points, rec.times[-1], 0.0, 1.0, 0.0)
        err = np.max(np.abs(np.abs(rec.snapshots[-1].amplitudes) ** 2 - np.abs(exact) ** 2))
        assert err < 1e-6

    def test_zero_steps_returns_initial_state(self):
        g = SpatialGrid(-20.0, 20.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 0)
        assert len(rec.snapshots) == 1
        assert np.array_equal(rec.amplitudes[0], wf0.amplitudes)
        assert rec.times[0] == 0.0

    def test_plane_wave_is_an_eigenstate(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        k = 2.0 * np.pi * 10 / g.length
        wf0 = make_plane_wave(g, k, 1.0)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 500, snapshot_stride=500)
        final = rec.snapshots[-1].amplitudes
        assert np.max(np.abs(np.abs(final) - 1.0)) < 1e-10
        # global phase advance -hbar k^2 t / (2m)
        t = rec.times[-1]
        expected = wf0.amplitudes * np.exp(-1j * PARAMS.hbar * k**2 * t / (2.0 * PARAMS.mass))
        assert np.max(np.abs(final - expected)) < 1e-10

    def test_norm_preserved_per_step(self):
        g = SpatialGrid(-16.0, 16.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 1.0, PARAMS)
        rec = evolve_schrodinger(wf0, harmonic_potential(g, 1.0, PARAMS), PARAMS, 1e-3, 50,
                                 snapshot_stride=1)
        norms = [norm_squared(wf) for wf in rec.snapshots]
        assert np.max(np.abs(np.diff(norms))) < 1e-10

    def test_second_order_in_dt(self):
        # halving dt cuts the error by ~4; the guard is >= 3.5
        g = SpatialGrid(-16.0, 16.0, 512)
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0 = GridWavefunction(g, coherent_state(g.points, 0.0, 1.0, 1.0))
        errs = {}
        for dt in (2e-3, 1e-3):
            n = int(round(1.0 / dt))
            rec = evolve_schrodinger(wf0, V, PARAMS, dt, n, snapshot_stride=n)
            exact = coherent_state(g.points, rec.times[-1], 1.0, 1.0)
            errs[dt] = np.max(np.abs(rec.snapshots[-1].amplitudes - exact))
        assert errs[2e-3] / errs[1e-3] >= 3.5

    def test_determinism(self):
        g = SpatialGrid(-16.0, 16.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 2.0, PARAMS)
        a = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 100, snapshot_stride=10)
        b = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 100, snapshot_stride=10)
        assert all(
            np.array_equal(x.amplitudes, y.amplitudes)
            for x, y in zip(a.snapshots, b.snapshots)
        )


class TestCrankNicolson:
    def test_discrete_ground_state_is_stationary(self):
        g = SpatialGrid(-12.0, 12.0, 512, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0, _ = discrete_harmonic_ground_state(g, 1.0)
        rec = evolve_schrodinger(wf0, V, PARAMS, 1e-3, 400, snapshot_stride=400)
        final = np.abs(rec.snapshots[-1].amplitudes)
        assert np.max(np.abs(final - np.abs(wf0.amplitudes))) < 1e-10

    def test_norm_conserved(self):
        g = SpatialGrid(-16.0, 16.0, 512, "dirichlet")
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 1.0, PARAMS)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 1000, snapshot_stride=100)
        drift = abs(norm_squared(rec.snapshots[-1]) - norm_squared(rec.snapshots[0]))
        assert drift < 1e-10

    def test_second_order_in_dt_self_convergence(self):
        g = SpatialGrid(-16.0, 16.0, 512, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0 = GridWavefunction(g, coherent_state(g.points, 0.0, 1.0, 1.0))
        ref = evolve_schrodinger(wf0, V, PARAMS, 1.25e-4, 8000, snapshot_stride=8000)
        ref_final = ref.snapshots[-1].amplitudes
        errs = {}
        for dt in (2e-3, 1e-3):
            n = int(round(1.0 / dt))
            rec = evolve_schrodinger(wf0, V, PARAMS, dt, n, snapshot_stride=n)
            errs[dt] = np.max(np.abs(rec.snapshots[-1].amplitudes - ref_final))
        assert errs[2e-3] / errs[1e-3] >= 3.5

    def test_matches_analytic_coherent_state(self):
        g = SpatialGrid(-16.0, 16.0, 1024, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        wf0 = GridWavefunction(g, coherent_state(g.points, 0.0, 1.0, 1.0))
        rec = evolve_schrodinger(wf0, V, PARAMS, 5e-4, 2000, snapshot_stride=2000)
        exact = coherent_state(g.points, rec.times[-1], 1.0, 1.0)
        assert np.max(np.abs(rec.snapshots[-1].amplitudes - exact)) < 2e-3


class TestSteppersMatchOracles:
    """The buffered split step and the once-factored Crank-Nicolson leave every bit as before."""

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("potential", ["free", "harmonic"])
    @pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
    def test_records_bitwise_equal(self, boundary, potential, n):
        params = PhysicalParams(0.8, 1.7) if n % 2 else PARAMS
        g = SpatialGrid(-16.0, 16.0, n, boundary)
        wf0 = make_gaussian_packet(g, -1.0, 1.0, 2.0, params)
        V = free_potential(g) if potential == "free" else harmonic_potential(g, 1.0, params)
        assert_record_matches_oracle(wf0, V, params, 1e-3, 300, 20)

    @settings(max_examples=100, deadline=None)
    @given(case=random_evolution())
    def test_random_states_bitwise_equal(self, case):
        wf0, V, params, dt, n_steps = case
        assert_record_matches_oracle(wf0, V, params, dt, n_steps, 1)


def nan_as_one(z):
    """The bytes of z's float64 components, every NaN written as the one quiet NaN."""
    parts = z.view(np.float64)
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


def assert_fft_route_is_numpy(x):
    """The split step's in-place fft and ifft of x are np.fft.fft(x) and np.fft.ifft(x), byte for byte.

    Only a NaN's sign bit is left out: at Bluestein sizes such as 2731 and 7919 the two
    builds give some NaNs opposite signs, every other bit the same. A record refuses NaN.
    """
    forward, inverse = np.array(x, dtype=np.complex128), np.array(x, dtype=np.complex128)
    evolution._fft_in_place(forward)[0]()
    evolution._fft_in_place(inverse)[1]()
    with np.errstate(all="ignore"):  # inf and nan inputs make numpy's fft ufunc flag invalid values
        assert nan_as_one(forward) == nan_as_one(np.fft.fft(x))
        assert nan_as_one(inverse) == nan_as_one(np.fft.ifft(x))


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestFftBitContract:
    """scipy's pocketfft in place, with numpy's double 1/n, gives numpy's np.fft bits."""

    def test_every_size_to_4096(self):
        for n in range(8, 4097):
            assert_fft_route_is_numpy(random_state(n, seed=n))

    # where scipy's long-double 1/n (its inorm=2) rounds differently from numpy's double 1/n
    @pytest.mark.parametrize("n", [2731, 4623, 5462])
    def test_sizes_where_long_double_scale_differs(self, n):
        assert_fft_route_is_numpy(random_state(n))

    @pytest.mark.parametrize("n", [7919, 10007, 131071])
    def test_bluestein_sizes(self, n):
        assert_fft_route_is_numpy(random_state(n))

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
        [np.inf, -np.inf, complex(0.0, np.inf), complex(1.0, -np.inf), 2.0],
        [np.nan, complex(1.0, np.nan), -1.0, 0.5],
        [1e308, -1e308, complex(1e308, 1e308), complex(-1e308, 1e308)],
        [1e308, 1.0, -0.0, np.inf, np.nan],
    ], ids=["signed-zeros", "infinities", "nans", "1e308", "mixed"])
    @pytest.mark.parametrize("n", [8, 12, 2731, 7919])
    def test_special_values(self, values, n):
        assert_fft_route_is_numpy(np.resize(np.array(values, dtype=np.complex128), n))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(8, 6000), scale=st.floats(5e-324, 1e300), seed=st.integers(0, 2**32 - 1))
    def test_random_sizes_and_scales(self, n, scale, seed):
        assert_fft_route_is_numpy(scale * random_state(n, seed))


def poisoned(factory, bad, at, taken):
    """A stepper factory whose step sets a point of its state to bad at step `at`, appending
    each state it returns to the list `taken`."""

    def make(*args):
        step = factory(*args)

        def poisoned_step(psi):
            psi = step(psi)
            taken.append(psi)
            if len(taken) == at:
                psi[17] = bad
            return psi

        return poisoned_step

    return make


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCrankNicolsonFailsClosed:
    """A run that goes non-finite is refused at its next recorded row, naming the row's time;
    Crank-Nicolson's operator and its LAPACK calls are checked where they are built and run."""

    # evolve_schrodinger checks each recorded row, on both boundaries, before storing it
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_state_refused(self, monkeypatch, bad):
        stride, n_steps, dt = 4, 24, 1e-3
        for boundary, factory in [("periodic", "_split_step_stepper"),
                                  ("dirichlet", "_crank_nicolson_stepper")]:
            g = SpatialGrid(-8.0, 8.0, 64, boundary)
            wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
            times = evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, n_steps, stride).times
            for at in (1, 3, 4, 5, 24):
                taken = []
                with monkeypatch.context() as patch:
                    patch.setattr(evolution, factory,
                                  poisoned(getattr(evolution, factory), bad, at, taken))
                    row = -(-at // stride)  # the first recorded row at or after step `at`
                    with pytest.raises(DomainError, match=re.escape(f"not finite at t={times[row]}")):
                        evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, n_steps, stride)
                assert len(taken) == row * stride < at + stride

    # r = i*dt/(2*hbar) overflows, so the operator is not finite; dt*max|V|/hbar is 0.
    # It is refused where it is built, naming dt and hbar, before any step
    def test_non_finite_operator_refused(self):
        g = SpatialGrid(-8.0, 8.0, 64, "dirichlet")
        params = PhysicalParams(hbar=1e-150)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, params)
        with pytest.raises(DomainError, match=r"Crank-Nicolson operator .*dt=1e\+200, hbar=1e-150"):
            evolution._crank_nicolson_stepper(g, free_potential(g), params, 1e200)
        with np.errstate(all="raise"), pytest.raises(DomainError, match="Crank-Nicolson operator"):
            evolve_schrodinger(wf0, free_potential(g), params, 1e200, 10, 5)

    # dt/(2*hbar) is finite, but its product with H's largest entry 2c + max V is not
    @pytest.mark.parametrize("dt, hbar, V", [(1e308, 1.0, 0.0), (4.0, 1.0, 1e308)])
    def test_operator_overflow_refused_where_built(self, dt, hbar, V):
        g = SpatialGrid(-8.0, 8.0, 64, "dirichlet")
        potential = PotentialField(g, np.full(g.n_points, V))
        with np.errstate(all="raise"), pytest.raises(DomainError, match=re.escape(f"dt={dt}, hbar={hbar}")):
            evolution._crank_nicolson_stepper(g, potential, PhysicalParams(hbar=hbar), dt)

    # gttrf reports a singular factor with info > 0, either routine a bad argument with info < 0
    @pytest.mark.parametrize("routine, info", [("gttrf", 3), ("gttrf", -2), ("gttrs", -6)])
    def test_lapack_info_raises(self, monkeypatch, routine, info):
        funcs = dict(zip(("gttrf", "gttrs"), evolution._gttr()))
        wrapped = funcs[routine]
        funcs[routine] = lambda *a, **kw: (*wrapped(*a, **kw)[:-1], info)
        monkeypatch.setattr(evolution, "_gttr", lambda: (funcs["gttrf"], funcs["gttrs"]))
        g = SpatialGrid(-8.0, 8.0, 64, "dirichlet")
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        with pytest.raises(DomainError, match=f"{routine} info={info}"):
            evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 5)


def run_fresh(code, cwd):
    """A fresh interpreter running code with src on PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


# run in a fresh interpreter, where scipy.linalg is not yet imported
STANDALONE_LAPACK = textwrap.dedent("""
    import hashlib
    import sys

    import numpy as np

    from mvlab.evolution import _gttr, evolve_schrodinger
    from mvlab.fields import PhysicalParams, SpatialGrid, harmonic_potential, make_gaussian_packet

    params = PhysicalParams()
    g = SpatialGrid(-16.0, 16.0, 256, "dirichlet")
    wf0 = make_gaussian_packet(g, -1.0, 1.0, 2.0, params)
    record = evolve_schrodinger(wf0, harmonic_potential(g, 1.0, params), params, 1e-3, 300, 20)
    assert "scipy.linalg" not in sys.modules
    print(hashlib.sha256(record.amplitudes.tobytes()).hexdigest())

    from scipy.linalg.lapack import get_lapack_funcs

    funcs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(4, dtype=np.complex128),))
    assert all(a is b for a, b in zip(funcs, _gttr(), strict=True))
""")


class TestStandaloneLapack:
    """gttrf and gttrs load from scipy's compiled module alone, without scipy.linalg."""

    def test_fresh_interpreter_matches_oracle(self, tmp_path):
        proc = run_fresh(STANDALONE_LAPACK, tmp_path)
        assert proc.returncode == 0, proc.stderr
        g = SpatialGrid(-16.0, 16.0, 256, "dirichlet")
        wf0 = make_gaussian_packet(g, -1.0, 1.0, 2.0, PARAMS)
        expected = oracle_amplitudes(wf0, harmonic_potential(g, 1.0, PARAMS), PARAMS, 1e-3, 300, 20)
        assert proc.stdout.strip() == hashlib.sha256(expected.tobytes()).hexdigest()


# run in a fresh interpreter: a periodic evolution loads pocketfft alone, and scipy.fft reuses it
STANDALONE_POCKETFFT = textwrap.dedent("""
    import sys

    from mvlab.evolution import evolve_schrodinger
    from mvlab.fields import PhysicalParams, SpatialGrid, free_potential, make_gaussian_packet

    params = PhysicalParams()
    g = SpatialGrid(-16.0, 16.0, 256)
    evolve_schrodinger(make_gaussian_packet(g, -1.0, 1.0, 2.0, params), free_potential(g), params, 1e-3, 5)
    name = "scipy.fft._pocketfft.pypocketfft"
    loaded = sys.modules[name]
    assert "scipy" not in sys.modules and "scipy.fft" not in sys.modules and "scipy.linalg" not in sys.modules

    import scipy.fft

    assert scipy.fft._pocketfft.basic.pfft is loaded and sys.modules[name] is loaded
""")


class TestStandaloneExtensions:
    """Both scipy extension modules load through one path, without their packages."""

    def test_pocketfft_loads_alone_and_is_reused(self, tmp_path):
        proc = run_fresh(STANDALONE_POCKETFFT, tmp_path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("module, load", [
        ("scipy.linalg._flapack", lambda: evolution._gttr()),
        ("scipy.fft._pocketfft.pypocketfft", lambda: evolution._fft_in_place(np.zeros(8, complex))),
    ], ids=["flapack", "pocketfft"])
    def test_missing_extension_raises_import_error(self, monkeypatch, module, load):
        monkeypatch.delitem(sys.modules, module, raising=False)
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda name, path, target=None: None)
        with pytest.raises(ImportError, match=re.escape(module)):
            load()


class TestGuards:
    def test_grid_mismatch(self):
        g1 = SpatialGrid(-16.0, 16.0, 256)
        g2 = SpatialGrid(-16.0, 16.0, 512)
        wf0 = make_gaussian_packet(g1, 0.0, 1.0, 0.0, PARAMS)
        with pytest.raises(DomainError):
            evolve_schrodinger(wf0, free_potential(g2), PARAMS, 1e-3, 10)

    def test_stability_guard(self):
        g = SpatialGrid(-20.0, 20.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        V = harmonic_potential(g, 1.0, PARAMS)  # max V = 200
        with pytest.raises(StabilityError):
            evolve_schrodinger(wf0, V, PARAMS, 1e-2, 10)

    def test_infinite_step_refused(self):
        # dt*max|V|/hbar would be inf*0 = nan, which the stability guard alone lets through
        g = SpatialGrid(-16.0, 16.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        with pytest.raises(DomainError, match="dt must be positive and finite, got inf"):
            evolve_schrodinger(wf0, free_potential(g), PARAMS, np.inf, 10)

    def test_stride_must_divide_steps(self):
        g = SpatialGrid(-16.0, 16.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        with pytest.raises(DomainError):
            evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 100, snapshot_stride=7)

    # each mass is positive, but the kinetic phase overflows, or 2*mass*dx**2 underflows to 0
    @pytest.mark.parametrize("boundary, mass, message", [
        ("periodic", 1e-310, r"kinetic phase .*hbar=1\.0, dt=0\.001, mass=1e-310"),
        ("periodic", 5e-324, r"kinetic phase .*hbar=1\.0, dt=0\.001, mass=5e-324"),
        ("dirichlet", 5e-324, r"Crank-Nicolson coupling .*hbar=1\.0, mass=5e-324"),
    ])
    def test_tiny_mass_refused_before_stepping(self, boundary, mass, message):
        g = SpatialGrid(-16.0, 16.0, 256, boundary)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        with pytest.raises(DomainError, match=message):
            evolve_schrodinger(wf0, free_potential(g), PhysicalParams(mass=mass), 1e-3, 10)

    # finite, but from 2**52 rad on adjacent doubles lie 1 rad or more apart: hbar = mass = 1
    # and the largest |k| is pi/dx, so the phase is (pi/dx)**2*dt/2
    @pytest.mark.parametrize("scale, refused", [(1.0 + 1e-12, True), (1.0 - 1e-12, False)])
    def test_kinetic_phase_from_2_52_rad_refused(self, scale, refused):
        g = SpatialGrid(-16.0, 16.0, 256)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
        dt = 2.0**53 / (np.pi / g.dx) ** 2 * scale
        if refused:
            message = rf"kinetic phase .*below 2\*\*52 rad .*hbar=1\.0, dt={dt}, mass=1\.0"
            with pytest.raises(DomainError, match=message):
                evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, 2)
        else:
            assert len(evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, 2).times) == 3

    def test_default_stride_caps_snapshots(self):
        g = SpatialGrid(-16.0, 16.0, 64)
        wf0 = make_gaussian_packet(g, 0.0, 3.0, 0.0, PARAMS)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 2000)
        assert len(rec.snapshots) <= 513


def primes_below(n):
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).tolist()


PRIMES = primes_below(200_000)
PRIME_POWERS = [p**k for p in PRIMES[:40] for k in range(2, 20) if p**k <= 10**6]
CAP = evolution.MAX_DEFAULT_SNAPSHOTS


class TestStride:
    """_stride, a search over divisor pairs, gives the linear scan's stride and its refusals."""

    def test_every_n_steps_to_5000(self):
        for n_steps in range(5001):
            assert evolution._stride(n_steps, None) == linear_scan_stride(n_steps, CAP)

    @settings(max_examples=200, deadline=None)
    @given(n_steps=st.one_of(
        st.integers(0, 200_000),
        st.sampled_from(PRIMES),
        st.sampled_from(PRIME_POWERS),
    ))
    def test_drawn_n_steps(self, n_steps):
        assert evolution._stride(n_steps, None) == linear_scan_stride(n_steps, CAP)

    # n_steps = multiple*stride + offset: a stride divides it when the offset is 0
    @settings(max_examples=200, deadline=None)
    @given(stride=st.integers(-3, 10**4), multiple=st.integers(0, 10**3),
           offset=st.one_of(st.just(0), st.integers(1, 10**4)))
    def test_given_strides(self, stride, multiple, offset):
        n_steps = multiple * abs(stride) + offset
        if stride < 1:
            with pytest.raises(DomainError, match=f"snapshot_stride must be >= 1, got {stride}"):
                evolution._stride(n_steps, stride)
        elif n_steps % stride:
            with pytest.raises(DomainError, match=f"snapshot_stride={stride} must divide"):
                evolution._stride(n_steps, stride)
        else:
            assert evolution._stride(n_steps, stride) == stride

    def test_prime_near_1e9_records_two_rows(self):
        n_steps = 999_999_937
        assert n_steps // evolution._stride(n_steps, None) + 1 == 2


class TestRecord:
    """A record is one (T, n) array, validated once as a whole."""

    @staticmethod
    def record():
        g = SpatialGrid(-16.0, 16.0, 128)
        wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.5, PARAMS)
        return evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 40, snapshot_stride=10)

    @staticmethod
    def rebuilt(rec, amplitudes):
        return EvolutionRecord(rec.potential, rec.times, amplitudes)

    def test_one_read_only_stack(self):
        rec = self.record()
        assert rec.amplitudes.shape == (5, 128) and rec.grid is rec.potential.grid
        with pytest.raises(ValueError):
            rec.amplitudes[1, 3] = 0.0

    def test_snapshots_are_the_rows(self):
        rec = self.record()
        assert len(rec.snapshots) == len(rec.amplitudes)
        for k, wf in enumerate(rec.snapshots):
            assert wf.grid == rec.grid and np.array_equal(wf.amplitudes, rec.amplitudes[k])

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_stack_refused(self, value):
        rec = self.record()
        amps = rec.amplitudes.copy()
        amps[2, 7] = value
        with pytest.raises(DomainError, match="NaN or Inf"):
            self.rebuilt(rec, amps)

    def test_norm_drift_refused(self):
        rec = self.record()
        amps = rec.amplitudes.copy()
        amps[-1] *= 1.0 + 1e-7
        with pytest.raises(DomainError, match="unitarity"):
            self.rebuilt(rec, amps)

    def test_shape_must_match_times_and_grid(self):
        rec = self.record()
        for amps in (rec.amplitudes[:-1], rec.amplitudes[:, :-1], rec.amplitudes[0]):
            with pytest.raises(DomainError, match="shape"):
                self.rebuilt(rec, amps)

    # the times alone fix the step: each spacing within 1e-9 relative of (t[-1] - t[0])/(T - 1)
    @pytest.mark.parametrize("times, refusal", [
        ([], "at least one snapshot time"),
        ([0.0, 1.0, 1.0], "increase uniformly"),
        ([0.0, 2.0, 1.0], "increase uniformly"),
        ([0.0, 1.0, 2.0 + 1e-6, 3.0], "increase uniformly"),
        ([0.5], None),
        ([0.0, 0.3], None),
        ([0.0, 1.0, 2.0 + 1e-10, 3.0], None),
    ], ids=["empty", "equal", "decreasing", "off-by-1e-6", "T=1", "T=2", "off-by-1e-10"])
    def test_times_rules(self, times, refusal):
        g = SpatialGrid(-8.0, 8.0, 16)
        amps = np.full((len(times), 16), 0.25, dtype=complex)
        if refusal is None:
            assert EvolutionRecord(free_potential(g), times, amps).times.tolist() == times
        else:
            with pytest.raises(DomainError, match=refusal):
                EvolutionRecord(free_potential(g), times, amps)

    # evolve_schrodinger's times are k*(dt*stride), up to the 512-snapshot cap or one per step
    @pytest.mark.parametrize("dt, n_steps, stride", [
        (0.1, 7, None), (1.0 / 3.0, 30, 3), (1e-7, 5000, None), (1e-3, 5000, 1), (0.01, 0, None),
    ])
    def test_evolved_times_are_accepted(self, dt, n_steps, stride):
        g = SpatialGrid(-8.0, 8.0, 16)
        wf0 = make_gaussian_packet(g, 0.0, 4.0, 0.0, PARAMS)
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, dt, n_steps, stride)
        assert self.rebuilt(rec, rec.amplitudes).times.tobytes() == rec.times.tobytes()


class TestUnitarityInvariant:
    @pytest.mark.parametrize("name", list(corpus()))
    def test_norm_drift_below_tolerance(self, name):
        wf0 = corpus()[name]
        g = wf0.grid
        rec = evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-4, 1000, snapshot_stride=250)
        drift = max(
            abs(norm_squared(wf) - norm_squared(rec.snapshots[0])) for wf in rec.snapshots
        )
        assert drift < 1e-8


class TestClassicalEnsemble:
    def test_converging_ensemble_reaches_focus(self):
        g = SpatialGrid(-10.0, 10.0, 256)
        pos = np.linspace(-4.0, 4.0, 16)
        rec = classical_ensemble_evolve(pos, -pos / 1.0, free_potential(g), PARAMS, 1e-3, 1000)
        # at t = 1 every linear trajectory sits at the focus
        assert np.max(np.abs(rec.ensemble.positions[-1])) < 1e-10

    def test_zero_velocity_stays_put(self):
        g = SpatialGrid(-10.0, 10.0, 256)
        pos = np.linspace(-4.0, 4.0, 8)
        rec = classical_ensemble_evolve(pos, np.zeros(8), free_potential(g), PARAMS, 1e-2, 100)
        assert np.array_equal(rec.ensemble.positions[-1], pos)

    def test_harmonic_oscillator_period(self):
        g = SpatialGrid(-8.0, 8.0, 2048, "dirichlet")
        V = harmonic_potential(g, 1.0, PARAMS)
        n = int(round(2.0 * np.pi / 1e-3))
        rec = classical_ensemble_evolve([2.0], [0.0], V, PARAMS, 1e-3, n)
        t_final = rec.ensemble.times[-1]
        assert abs(rec.ensemble.positions[-1, 0] - 2.0 * np.cos(t_final)) < 1e-8

    def test_escape_flagged_not_fatal(self):
        g = SpatialGrid(-2.0, 2.0, 64, "dirichlet")
        rec = classical_ensemble_evolve([0.0, 1.0], [0.0, 10.0], free_potential(g), PARAMS,
                                        1e-2, 50)
        ens = rec.ensemble
        assert ens.kind == "classical"  # so its stops are escapes, never freezes
        assert np.isnan(ens.stopped_at[0])
        assert np.isfinite(ens.stopped_at[1])
        # escaped trajectory holds at the wall it crossed
        assert ens.positions[-1, 1] == 2.0
        assert np.all(np.isfinite(ens.positions))

    @pytest.mark.parametrize("starts", [[np.nan], [0.0, np.nan], [np.nan, np.inf]])
    def test_rejects_nan_positions_at_the_start(self, starts):
        g = SpatialGrid(-10.0, 10.0, 256)
        with pytest.raises(DomainError, match="initial positions must lie within the grid"):
            classical_ensemble_evolve(starts, np.zeros(len(starts)), free_potential(g), PARAMS,
                                      1e-2, 10)

    def test_velocities_recorded(self):
        g = SpatialGrid(-10.0, 10.0, 256)
        rec = classical_ensemble_evolve([1.0], [0.5], free_potential(g), PARAMS, 1e-2, 10)
        assert rec.velocities.shape == rec.ensemble.positions.shape
        assert np.allclose(rec.velocities, 0.5)
