"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the verdict
lines interleaved; they are also written unbuffered to the real stdout).
Thresholds are frozen here, not tuned at runtime; the residual thresholds
come from the pre-build refinement study recorded in the test comments.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from corpus import corpus
from oracles import (
    branch_correlation,
    free_gaussian_trajectory,
    gaussian_quantum_potential,
)

from mvlab.branchstats import central_moment_exact, enumerate_branch_tree, moment_scaling_report
from mvlab.cli import EXIT_OK, main as cli_main
from mvlab.evolution import evolve_schrodinger
from mvlab.fields import (
    PhysicalParams,
    SpatialGrid,
    free_potential,
    make_gaussian_packet,
    make_plane_wave,
    norm_squared,
)
from mvlab.madelung import continuity_residual, decompose, hamilton_jacobi_residual, quantum_potential
from mvlab.spins import (
    Direction,
    TwoSpinState,
    apply_measurement,
    chsh,
    classical_chsh_bound,
    correlation,
    deterministic_chsh_values,
    four_world_split,
    rotate_second_basis,
    singlet,
    unset_pointers,
)
from mvlab.universes import (
    classical_ensemble_evolve,
    crossing_count,
    density_transport_check,
    integrate_universes,
    stratified_positions,
)

PARAMS = PhysicalParams()
REPO = Path(__file__).resolve().parent.parent

# thresholds fixed by the pre-build refinement study (free Gaussian, sigma=1,
# domain [-16,16), stride 25): measured relative residuals 8.23e-5 (transport
# identity) and 2.41e-4 (phase identity) at 2048 points / dt=1e-4, falling
# 4.00x and 3.93x at 4096 points / dt=5e-5
CONTINUITY_THRESHOLD = 1.5e-4
HAMILTON_JACOBI_THRESHOLD = 4.0e-4
REFINEMENT_FACTOR = 3.5


def report(number: int, ok: bool, text: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {text}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def residual_pair(rec):
    cont = continuity_residual(rec, PARAMS)
    hj = hamilton_jacobi_residual(rec, free_potential(rec.grid), PARAMS)
    return cont.relative, hj.relative


@pytest.fixture(scope="module")
def free_gaussian_record():
    g = SpatialGrid(-20.0, 20.0, 2048)
    wf0 = make_gaussian_packet(g, 0.0, 1.0, 0.0, PARAMS)
    return evolve_schrodinger(wf0, free_potential(g), PARAMS, 1e-3, 2000, snapshot_stride=4)


def test_criterion_1_decomposition_equivalence(refinement_records):
    base_cont, base_hj = residual_pair(refinement_records[2048])
    fine_cont, fine_hj = residual_pair(refinement_records[4096])
    ok = (
        base_cont < CONTINUITY_THRESHOLD
        and base_hj < HAMILTON_JACOBI_THRESHOLD
        and base_cont / fine_cont >= REFINEMENT_FACTOR
        and base_hj / fine_hj >= REFINEMENT_FACTOR
    )
    report(
        1, ok,
        f"transport residual {base_cont:.2e} (<{CONTINUITY_THRESHOLD:.1e}, x{base_cont/fine_cont:.2f} under refinement), "
        f"phase residual {base_hj:.2e} (<{HAMILTON_JACOBI_THRESHOLD:.1e}, x{base_hj/fine_hj:.2f})",
    )


def test_criterion_2_quantum_potential_exactness():
    g = SpatialGrid(-16.0, 16.0, 512)
    plane = decompose(make_plane_wave(g, 2.0 * np.pi * 5 / g.length, 1.0), PARAMS)
    plane_max = float(np.nanmax(np.abs(quantum_potential(plane, PARAMS).U_quantum)))

    g2 = SpatialGrid(-200.0, 200.0, 2048)
    sigma = 25.0
    polar = decompose(make_gaussian_packet(g2, 0.0, sigma, 0.0, PARAMS), PARAMS)
    qp = quantum_potential(polar, PARAMS)
    keep = ~qp.node_mask
    gauss_err = float(np.max(np.abs(qp.U_quantum[keep] - gaussian_quantum_potential(g2.points[keep], sigma))))

    ok = plane_max < 1e-12 and gauss_err < 1e-6
    report(2, ok, f"plane-wave max |U| = {plane_max:.1e} (rounding), gaussian oracle error {gauss_err:.2e} < 1e-6")


def test_criterion_3_unitarity_over_ten_thousand_steps():
    worst = 0.0
    for name, wf0 in corpus().items():
        rec = evolve_schrodinger(wf0, free_potential(wf0.grid), PARAMS, 1e-4, 10000,
                                 snapshot_stride=2000)
        n0 = norm_squared(rec.snapshots[0])
        drift = max(abs(norm_squared(wf) - n0) for wf in rec.snapshots)
        worst = max(worst, drift)
    ok = worst < 1e-8
    report(3, ok, f"worst norm drift over 10^4 steps across {len(corpus())} corpus states: {worst:.1e} < 1e-8")


def test_criterion_4_caustic_contrast(free_gaussian_record):
    g = SpatialGrid(-10.0, 10.0, 256)
    pos = np.linspace(-4.0, 4.0, 64)
    classical = classical_ensemble_evolve(pos, -pos / 1.0, free_potential(g), PARAMS, 0.0123, 102)
    classical_crossings = crossing_count(classical.ensemble)

    starts = np.linspace(-2.0, 2.0, 20)
    bohmian = integrate_universes(free_gaussian_record, starts, PARAMS)
    bohmian_crossings = crossing_count(bohmian)
    t_final = free_gaussian_record.times[-1]
    exact = free_gaussian_trajectory(starts, t_final, 1.0)
    worst_rel = float(np.max(np.abs(bohmian.positions[:, -1] - exact) / np.abs(exact)))

    ok = classical_crossings >= 63 and bohmian_crossings == 0 and worst_rel < 1e-4
    report(
        4, ok,
        f"classical crossings {classical_crossings} >= 63, quantum crossings {bohmian_crossings} = 0, "
        f"trajectory oracle error {worst_rel:.1e} < 1e-4",
    )


def test_criterion_5_density_transport(free_gaussian_record):
    polar0 = decompose(free_gaussian_record.snapshots[0], PARAMS)
    ends = integrate_universes(free_gaussian_record, [-1.0, 1.0], PARAMS)
    results = {}
    for m in (2500, 10000):
        ensemble = integrate_universes(free_gaussian_record, stratified_positions(polar0, m), PARAMS)
        results[m] = density_transport_check(free_gaussian_record, ensemble, ends.positions, PARAMS)
    ok = (
        results[10000].max_deviation < results[10000].bound
        and results[2500].max_deviation < results[2500].bound
        and results[10000].bound == results[2500].bound / 2.0
    )
    report(
        5, ok,
        f"max deviation {results[10000].max_deviation:.2e} < 3/sqrt(10^4) = {results[10000].bound:.3f} "
        f"at every snapshot; bound halves from M=2500 to M=10000",
    )


def test_criterion_6_four_world_split():
    worst = 0.0
    for i in range(32):
        theta = (i + 0.5) * math.pi / 32.0
        weights = four_world_split(theta)
        s2 = math.sin(theta / 2.0) ** 2 / 2.0
        c2 = math.cos(theta / 2.0) ** 2 / 2.0
        worst = max(worst, max(abs(a - b) for a, b in zip(weights, (s2, c2, c2, s2))))
        measured = [b.weight for b in apply_measurement(
            rotate_second_basis(singlet(Direction(0.0)), Direction(theta)), unset_pointers())]
        worst = max(worst, max(abs(a - b) for a, b in zip(weights, measured)))
    quarters = four_world_split(math.pi / 2) == (0.25, 0.25, 0.25, 0.25)
    halves = four_world_split(0.0) == (0.0, 0.5, 0.5, 0.0)
    ok = worst < 1e-12 and quarters and halves
    report(
        6, ok,
        f"32 angles within {worst:.1e} of the half-angle weights; exact quarters at pi/2; "
        f"exact two-world halves at 0",
    )


def test_criterion_7_distributivity():
    def expand_then_measure(state):
        out = []
        for idx, amp in enumerate(state.amplitudes):
            if amp == 0:
                continue
            unit = tuple(1.0 if i == idx else 0.0 for i in range(4))
            term = apply_measurement(
                TwoSpinState(state.basis_1, state.basis_2, unit), unset_pointers())[0]
            out.append((amp * term.amplitude, term.spin_labels, term.pointer_labels))
        return out

    def as_tuples(branches):
        return [(b.amplitude, b.spin_labels, b.pointer_labels) for b in branches]

    rng = np.random.default_rng(7)
    states = [singlet(Direction(0.0))]
    for _ in range(100):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = z / np.linalg.norm(z)
        states.append(TwoSpinState(Direction(0.0), Direction(0.0), tuple(z)))
    ok = all(
        as_tuples(apply_measurement(st, unset_pointers())) == expand_then_measure(st)
        for st in states
    )
    report(7, ok, "measuring the sum equals summing the measurements, branch for branch, "
                  "on the singlet and 100 random states (exact)")


def test_criterion_8_born_statistics():
    worst = 0.0
    for n in range(1, 13):
        for p in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
            tree = enumerate_branch_tree(n, p)
            worst = max(worst, abs(tree.frequency_mean() - p))
            worst = max(worst, abs(tree.frequency_central_moment(2) - p * (1.0 - p) / n))
    scaling_ok = all(
        moment_scaling_report(4, [10, 20, 40, 80], p).satisfied
        for p in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
    )
    # spot check the engine's exactness behind the scaling report
    engine_ok = central_moment_exact(2, 40, Fraction(1, 4)) == Fraction(3, 16) / 40
    ok = worst < 1e-12 and scaling_ok and engine_ok
    report(
        8, ok,
        f"brute force over all 2^N branches (N<=12, six p values) reproduces <f>=p and "
        f"variance pq/N within {worst:.1e}; exact moments bounded by C_m/N for m<=4, N in {{10,20,40,80}}",
    )


def test_criterion_9_correlation_and_chsh():
    worst = 0.0
    for i in range(32):
        theta = (i + 0.5) * math.pi / 32.0
        worst = max(worst, abs(correlation(theta) - branch_correlation(theta)))
        worst = max(worst, abs(correlation(theta) + math.cos(theta)))
    s = chsh(0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
    tsirelson = abs(abs(s) - 2.0 * math.sqrt(2.0))
    bound = classical_chsh_bound()
    n_assignments = len(deterministic_chsh_values())
    ok = worst < 1e-12 and tsirelson < 1e-12 and bound == 2.0 and n_assignments == 16
    report(
        9, ok,
        f"E(theta)=-cos(theta) on 32 angles via two code paths within {worst:.1e}; "
        f"|CHSH| = 2*sqrt(2) within {tsirelson:.1e}; all 16 deterministic assignments stay <= 2",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    configs = sorted((REPO / "configs").glob("*.json"))
    assert configs, "example config set is missing"
    all_ok = True
    for config in configs:
        name = config.stem
        runs = []
        for label in ("a", "b"):
            out = tmp_path / name / label
            status = cli_main([name, "--config", str(config), "--out-dir", str(out), "--quiet"])
            all_ok = all_ok and status == EXIT_OK
            runs.append(out)
        golden = REPO / "golden" / name
        for path in sorted(golden.iterdir()):
            fresh_a, fresh_b = runs[0] / path.name, runs[1] / path.name
            if path.name == "manifest.json":
                def core(p):
                    data = json.loads(Path(p).read_text())
                    data.pop("wall_time_s", None)
                    return data
                all_ok = all_ok and core(fresh_a) == core(fresh_b)
                fresh, committed = core(fresh_a), core(path)
                all_ok = all_ok and fresh["outputs"] == committed["outputs"]
                all_ok = all_ok and fresh["parameters"] == committed["parameters"]
            else:
                bytes_a = fresh_a.read_bytes()
                all_ok = all_ok and bytes_a == fresh_b.read_bytes()
                all_ok = all_ok and bytes_a == path.read_bytes()
    report(
        10, all_ok,
        f"{len(configs)} example configs: two consecutive runs byte-identical and equal to the "
        f"committed goldens (manifest compared without its wall-time field)",
    )
