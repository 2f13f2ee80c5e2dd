import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvlab
import mvlab.fields
from mvlab.branchstats import convergence_demo, convergence_to_csv
from mvlab.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_IO,
    EXIT_OK,
    EXPERIMENTS,
    MAX_RUN_BYTES,
    _sha256,
    _validate,
    main,
    run,
)
from mvlab.errors import DomainError
from mvlab.evolution import evolve_schrodinger
from mvlab.fields import (
    PhysicalParams,
    SpatialGrid,
    free_potential,
    make_gaussian_packet,
    write_csv,
)
from mvlab.spins import PointerLabel
from mvlab.universes import TrajectoryEnsemble

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(*args):
    return main(list(args))


def manifest_core(path):
    """Manifest content that must reproduce across runs (wall time excluded)."""
    data = json.loads(Path(path).read_text())
    data.pop("wall_time_s", None)
    return data


class TestValidation:
    def test_unknown_experiment_writes_nothing(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{}")
        out = tmp_path / "out"
        status = run_cli("teleport", "--config", str(config), "--out-dir", str(out))
        assert status == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"theta": 1.0, "phase": 2.0}))
        out = tmp_path / "out"
        status = run_cli("spin_split", "--config", str(config), "--out-dir", str(out))
        assert status == EXIT_CONFIG
        assert "phase" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key_named_in_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"N": 4}))
        status = run_cli("branch_stats", "--config", str(config), "--out-dir", str(tmp_path / "o"))
        assert status == EXIT_CONFIG
        assert "'p'" in capsys.readouterr().err

    # each value is refused by the library object that owns it, before any output exists
    @pytest.mark.parametrize("experiment, override, name", [
        ("spin_split", "theta=9.0", "theta"),
        ("evolve", "n_points=7", "n_points"),
        ("decompose", "boundary=reflective", "boundary"),
        ("universes", "hbar=0", "hbar"),
        ("caustic", "mass=-1", "mass"),
        ("decompose", "sigma=0", "sigma"),
        ("evolve", "dt=0", "dt"),
        ("evolve", "n_steps=-1", "n_steps"),
        ("evolve", "snapshot_stride=0", "snapshot_stride"),
        ("universes", "dt=-0.001", "dt"),
        ("universes", "snapshot_stride=0", "snapshot_stride"),
        ("branch_stats", "N=0", "N"),
        ("branch_stats", "p=1.5", "p"),
        ("convergence", "N_values=[0, 10]", "N_values"),
        ("convergence", "p=-0.5", "p"),
    ])
    def test_out_of_range_value(self, tmp_path, capsys, experiment, override, name):
        out = tmp_path / "o"
        status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"),
                         "--set", override, "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert name in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_experiment_mismatch_rejected(self, tmp_path):
        status = run_cli("spin_split", "--config", str(CONFIGS / "bell.json"),
                         "--out-dir", str(tmp_path / "o"))
        assert status == EXIT_CONFIG

    def test_seed_rejected_where_not_accepted(self, tmp_path):
        status = run_cli("spin_split", "--config", str(CONFIGS / "spin_split.json"),
                         "--out-dir", str(tmp_path / "o"), "--seed", "1")
        assert status == EXIT_CONFIG


class TestGuards:
    @pytest.mark.parametrize("override", [("--seed", "-1"), ("--set", "seed=-1")])
    def test_negative_seed_rejected_before_any_write(self, tmp_path, capsys, override):
        out = tmp_path / "out"
        status = run_cli("convergence", "--config", str(CONFIGS / "convergence.json"),
                         *override, "--out-dir", str(out))
        assert status == EXIT_CONFIG
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_guard_no_partial_output(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"N": 25, "p": 0.5}))
        out = tmp_path / "out"
        status = run_cli("branch_stats", "--config", str(config), "--out-dir", str(out))
        assert status == EXIT_GUARD
        assert not out.exists()

    # each override asks for far more than MAX_RUN_BYTES; only the refusal is ever run
    @pytest.mark.parametrize("experiment, override", [
        ("evolve", "n_points=100000000000"),
        ("decompose", "n_points=100000000000"),
        ("universes", "n_trajectories=100000000000"),
        ("caustic", "dt=1e-12"),
        ("caustic", "t_total=1e9"),
        ("bell", "n_theta=100000000000"),
        ("convergence", "N_values=[10, 100000000000]"),
    ])
    def test_size_guard_refuses_before_allocating(self, tmp_path, capsys, experiment, override):
        out = tmp_path / "out"
        status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"),
                         "--set", override, "--out-dir", str(out))
        assert status == EXIT_GUARD
        assert "MiB cap" in capsys.readouterr().err
        assert not out.exists()

    def test_size_estimate_of_the_configs(self):
        expected = {
            "evolve": 16 * 256 * 6,  # 100 steps, stride 20
            "universes": 16 * 512 * 11 + 8 * 64 * 11,  # 200 steps, stride 20, 64 trajectories
            "caustic": 16 * 256 + 2 * 8 * 16 * 103,  # round(1.2546 / 0.0123) + 1 recorded times
            "decompose": 16 * 256,
            "bell": 3 * 8 * 32,
            "convergence": 8 * 10000,
            "branch_stats": 0,
            "spin_split": 0,
        }
        for name in expected:
            raw = json.loads((CONFIGS / f"{name}.json").read_text())
            raw.pop("experiment")
            p = _validate(EXPERIMENTS[name].schema, raw, name)
            assert (name, EXPERIMENTS[name].size(p)) == (name, expected[name])
            assert expected[name] < MAX_RUN_BYTES

    def test_size_estimate_counts_the_universes_record(self):
        # 16 B of amplitudes per point per snapshot and no polar stack, which is never held, so
        # 20 000 snapshots of 2048 points are admitted; only the estimate is computed, never the run
        p = {"n_points": 2048, "n_steps": 19999, "snapshot_stride": 1, "n_trajectories": 64}
        assert EXPERIMENTS["universes"].size(p) == (16 * 2048 + 8 * 64) * 20000 < MAX_RUN_BYTES
        p["n_steps"] = 39999  # 40 000 snapshots are not
        assert EXPERIMENTS["universes"].size(p) == (16 * 2048 + 8 * 64) * 40000 > MAX_RUN_BYTES

    # with snapshot_stride left out the library picks the stride; the rule must not undershoot
    # it (it overstates up to 256.5x at a prime n_steps, where the stride is n_steps itself)
    @settings(max_examples=20, deadline=None)
    @given(n_steps=st.integers(0, 2000))
    @example(n_steps=512)
    @example(n_steps=513)
    @example(n_steps=1999)
    def test_size_rule_bounds_the_default_snapshots(self, n_steps):
        raw = json.loads((CONFIGS / "evolve.json").read_text())
        del raw["experiment"], raw["snapshot_stride"]
        raw.update(n_points=64, sigma=2.0, n_steps=n_steps)  # sigma >= 4 dx on 64 points
        p = _validate(EXPERIMENTS["evolve"].schema, raw, "evolve")
        params = PhysicalParams(p["hbar"], p["mass"])
        grid = SpatialGrid(p["x_min"], p["x_max"], p["n_points"], p["boundary"])
        wf0 = make_gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], params)
        record = evolve_schrodinger(wf0, free_potential(grid), params, p["dt"], n_steps)
        assert EXPERIMENTS["evolve"].size(p) >= record.amplitudes.nbytes

    # JSON's Infinity and NaN, and a literal past float range, are refused by name before any run
    @pytest.mark.parametrize("experiment, override, name", [
        ("evolve", "mass=Infinity", "mass"),
        ("evolve", "dt=Infinity", "dt"),
        ("evolve", "dt=1e400", "dt"),
        ("evolve", "x_max=Infinity", "x_max"),
        ("evolve", "hbar=-Infinity", "hbar"),
        ("caustic", "t_total=Infinity", "t_total"),
        ("bell", "angles=[0.0, NaN, 1.0, 2.0]", "angles"),
    ])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, experiment, override, name):
        out = tmp_path / "out"
        status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"),
                         "--set", override, "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"parameter {name!r} is not finite" in err
        assert "Warning" not in err
        assert not out.exists()

    # each angle is finite, but a - b overflows when the two lie at opposite ends of float range
    @pytest.mark.parametrize("angles, status", [
        ("[1e308, 1e308, -1e308, -1e308]", EXIT_CONFIG),
        ("[1e308, -1e308, 0, 0]", EXIT_OK),
    ])
    def test_bell_angle_differences_must_be_finite(self, tmp_path, capsys, angles, status):
        out = tmp_path / "out"
        assert run_cli("bell", "--config", str(CONFIGS / "bell.json"), "--set", f"angles={angles}",
                       "--out-dir", str(out), "--quiet") == status
        if status == EXIT_CONFIG:
            assert "angles" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert math.isfinite(json.loads((out / "bell.json").read_text())["chsh"])

    def test_non_finite_dirichlet_step_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run_cli("evolve", "--config", str(CONFIGS / "evolve.json"), "--set", "boundary=dirichlet",
                         "--set", "dt=Infinity", "--out-dir", str(out))
        assert status == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_stability_guard(self, tmp_path):
        raw = json.loads((CONFIGS / "evolve.json").read_text())
        raw.update({"potential": "harmonic", "omega": 4.0, "dt": 0.1})
        raw.pop("experiment")
        config = tmp_path / "c.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        status = run_cli("evolve", "--config", str(config), "--out-dir", str(out))
        assert status == EXIT_GUARD
        assert not out.exists()

    # each value squared overflows a float: refused by the constructor that owns it
    @pytest.mark.parametrize("experiment, overrides", [
        ("evolve", ["sigma=1e308"]),
        ("evolve", ["potential=harmonic", "omega=1e200"]),
        ("decompose", ["hbar=1e300"]),
        ("evolve", ["boundary=dirichlet", "hbar=1e300"]),
        # 1/hbar overflows: the half kick's phase V*dt/(2*hbar) would be NaN
        ("evolve", ["hbar=1e-310"]),
        ("universes", ["hbar=5e-324"]),
    ])
    def test_overflowing_square_exits_2(self, tmp_path, capsys, experiment, overrides):
        out = tmp_path / "out"
        sets = [arg for override in overrides for arg in ("--set", override)]
        status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"), *sets,
                         "--out-dir", str(out))
        assert status == EXIT_CONFIG
        assert "finite square" in capsys.readouterr().err
        assert not out.exists()

    # NaN is refused as a parameter; 1e308 is finite, but its phase k0*x is not
    @pytest.mark.parametrize("k0, message", [
        ("NaN", "parameter 'k0' is not finite"),
        ("1e308", "k0 must be finite"),
    ], ids=["NaN", "1e308"])
    def test_non_finite_k0_phase_exits_2(self, tmp_path, capsys, k0, message):
        out = tmp_path / "out"
        status = run_cli("evolve", "--config", str(CONFIGS / "evolve.json"), "--set", f"k0={k0}",
                         "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1  # no numpy warnings
        assert not out.exists()

    # each value is finite and in range, but hbar*k_max**2*dt/(2*mass) overflows, or
    # 2*mass*dx**2 underflows to 0
    @pytest.mark.parametrize("experiment, overrides, names", [
        ("evolve", ["mass=1e-310"], ["kinetic phase", "hbar=", "dt=", "mass=1e-310"]),
        ("evolve", ["mass=5e-324"], ["kinetic phase", "hbar=", "dt=", "mass=5e-324"]),
        ("universes", ["mass=5e-324"], ["kinetic phase", "hbar=", "dt=", "mass=5e-324"]),
        ("evolve", ["x_min=-1e-160", "x_max=1e-160"], ["kinetic phase", "dx=7.8125e-163"]),
        ("evolve", ["boundary=dirichlet", "mass=5e-324"], ["Crank-Nicolson coupling", "hbar=", "mass=5e-324"]),
        ("evolve", ["boundary=dirichlet", "x_min=-1e-160", "x_max=1e-160"],
         ["Crank-Nicolson coupling", "dx=7.8125e-163"]),
        ("caustic", ["focus_time=1e-310"], ["'span'", "'focus_time'", "'t_total'"]),
        ("caustic", ["focus_time=1e-307"], ["'span'", "'focus_time'", "'t_total'"]),
    ], ids=["evolve-1e-310", "evolve-5e-324", "universes-5e-324", "evolve-narrow-grid",
            "dirichlet-5e-324", "dirichlet-narrow-grid", "caustic-focus-1e-310",
            "caustic-focus-1e-307"])
    def test_unresolvable_step_exits_2(self, tmp_path, capsys, experiment, overrides, names):
        out = tmp_path / "out"
        sets = [arg for override in overrides for arg in ("--set", override)]
        status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"), *sets,
                         "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(name in err for name in names)
        assert len(err.strip().splitlines()) == 1  # no numpy warnings
        assert not out.exists()

    def test_universes_interval_outside_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run_cli("universes", "--config", str(CONFIGS / "universes.json"),
                         "--set", "interval_a=-100", "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "interval (-100.0, 1.0) must lie inside the grid and satisfy a < b" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()  # so no "status": "ok" manifest either

    def test_universes_interval_endpoint_on_a_node_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        # R(-15)/R(0) = exp(-225/4) is far below node_epsilon: a node neighbourhood
        status = run_cli("universes", "--config", str(CONFIGS / "universes.json"),
                         "--set", "interval_a=-15", "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "avoid node neighborhoods" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    # an integer past float range where a float is expected: float() would raise OverflowError
    @pytest.mark.parametrize("experiment, override, name", [
        ("evolve", "dt=1" + "0" * 400, "'dt'"),
        ("bell", "angles=[0, 1, 1" + "0" * 400 + ", 2]", "'angles'"),
    ], ids=["evolve-dt", "bell-angles"])
    def test_integer_past_float_range_exits_2(self, tmp_path, capsys, experiment, override, name):
        out = tmp_path / "out"
        status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"),
                         "--set", override, "--out-dir", str(out))
        assert status == EXIT_CONFIG
        err = capsys.readouterr().err
        assert name in err and "float range" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    # an integer literal longer than int() reads (4300 digits by default), in --set or in the file
    @pytest.mark.parametrize("experiment, key", [("evolve", "n_steps"), ("evolve", "dt"),
                                                 ("bell", "n_theta")])
    @pytest.mark.parametrize("source", ["set", "file"])
    def test_overlong_integer_literal_exits_2(self, tmp_path, capsys, experiment, key, source):
        literal = "1" + "0" * 5000
        if source == "set":
            args = ("--config", str(CONFIGS / f"{experiment}.json"), "--set", f"{key}={literal}")
        else:
            text = (CONFIGS / f"{experiment}.json").read_text().rstrip().rstrip("}")
            config = tmp_path / "c.json"
            config.write_text(f'{text}, "{key}": {literal}}}')
            args = ("--config", str(config))
        out = tmp_path / "out"
        assert run_cli(experiment, *args, "--out-dir", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "5001 digits" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unanticipated_arithmetic_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def overflowing(p):
            return 1e300**2

        monkeypatch.setitem(EXPERIMENTS, "evolve", EXPERIMENTS["evolve"]._replace(run=overflowing))
        out = tmp_path / "out"
        status = run_cli("evolve", "--config", str(CONFIGS / "evolve.json"), "--out-dir", str(out))
        assert status == EXIT_GUARD
        err = capsys.readouterr().err
        assert "OverflowError" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-310, -1e-310, 2.3e-308, 1e-307, 1e-300, 1e-160, 1e154,
               1e300, -1e300, 1.7e308, -1.7e308)
EDGE_INTS = (-1, 0, 1, 2, 7, 8, 9)


def edge_cases():
    """Every int and float parameter of every experiment at each edge value, over its config."""
    for experiment, entry in EXPERIMENTS.items():
        for param in entry.schema:
            for value in {"float": EDGE_FLOATS, "int": EDGE_INTS}.get(param.kind, ()):
                yield pytest.param(experiment, param.name, value, id=f"{experiment}-{param.name}={value!r}")


# an edge value exits 0 or with a documented code and one line; a refusal writes nothing
@pytest.mark.parametrize("experiment, name, value", edge_cases())
def test_edge_value_exits_cleanly(tmp_path, capsys, experiment, name, value):
    out = tmp_path / "out"
    status = run_cli(experiment, "--config", str(CONFIGS / f"{experiment}.json"),
                     "--set", f"{name}={value!r}", "--out-dir", str(out), "--quiet")
    assert status in (EXIT_OK, EXIT_CONFIG, EXIT_GUARD, EXIT_IO)
    assert len(capsys.readouterr().err.splitlines()) <= 1
    if status in (EXIT_CONFIG, EXIT_GUARD):
        assert not out.exists()


# in a real process, which would print a numpy RuntimeWarning that pytest raises in process
@pytest.mark.parametrize("experiment, overrides, status, named", [
    ("decompose", ["hbar=1e154"], EXIT_GUARD, "FloatingPointError"),
    ("universes", ['boundary="dirichlet"', "dt=1.7e308"], EXIT_GUARD, "FloatingPointError"),
    ("evolve", ['potential="harmonic"', "omega=1.0", "mass=1.7e308"], EXIT_CONFIG, "mass=1.7e+308"),
    ("evolve", ['boundary="dirichlet"', "hbar=1e-150", "dt=1e200"], EXIT_CONFIG, "dt=1e+200, hbar=1e-150"),
], ids=["decompose-hbar", "universes-dirichlet-dt", "evolve-harmonic-mass", "evolve-dirichlet-dt-hbar"])
def test_overflow_in_a_cli_process_exits_with_one_line(tmp_path, experiment, overrides, status, named):
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "mvlab.cli", experiment, "--config", str(CONFIGS / f"{experiment}.json"),
            "--out-dir", str(out)]
    for override in overrides:
        argv += ["--set", override]
    proc = subprocess.run(argv, env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == status
    assert len(proc.stderr.splitlines()) == 1 and named in proc.stderr, proc.stderr
    assert not out.exists()


class TestRuns:
    def test_spin_split_right_angle_four_quarter_weights(self, tmp_path):
        out = tmp_path / "out"
        status = run_cli("spin_split", "--config", str(CONFIGS / "spin_split.json"),
                         "--out-dir", str(out), "--quiet")
        assert status == EXIT_OK
        branches = json.loads((out / "branches.json").read_text())
        assert len(branches) == 4
        for entry in branches:
            assert abs(entry["weight"] - 0.25) < 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert set(manifest["outputs"]) == {"branches.json"}

    def test_spin_split_zero_angle_two_branches(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"theta": 0.0}))
        out = tmp_path / "out"
        assert run_cli("spin_split", "--config", str(config), "--out-dir", str(out),
                       "--quiet") == EXIT_OK
        branches = json.loads((out / "branches.json").read_text())
        assert len(branches) == 2
        assert all(abs(b["weight"] - 0.5) < 1e-15 for b in branches)

    def test_convergence_matches_library_byte_for_byte(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("convergence", "--config", str(CONFIGS / "convergence.json"),
                       "--out-dir", str(out), "--quiet") == EXIT_OK
        expected = tmp_path / "expected.csv"
        convergence_to_csv(convergence_demo([100, 1000, 10000], 0.5, 20240811), expected)
        assert (out / "convergence.csv").read_bytes() == expected.read_bytes()

    def test_summary_line_without_quiet(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("bell", "--config", str(CONFIGS / "bell.json"), "--out-dir", str(out)) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"bell: wrote correlation.csv, bell.json, manifest.json to {out}\n"
        assert captured.err == ""

    def test_set_override(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("branch_stats", "--config", str(CONFIGS / "branch_stats.json"),
                       "--set", "N=4", "--out-dir", str(out), "--quiet") == EXIT_OK
        tree = (out / "branch_tree.csv").read_text().strip().split("\n")
        assert len(tree) == 17  # header + 2^4 rows

    def test_seed_override_changes_sample(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, seed in ((out1, "1"), (out2, "2")):
            assert run_cli("convergence", "--config", str(CONFIGS / "convergence.json"),
                           "--seed", seed, "--out-dir", str(out), "--quiet") == EXIT_OK
        assert (out1 / "convergence.csv").read_text() != (out2 / "convergence.csv").read_text()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 1

    def test_bell_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("bell", "--config", str(CONFIGS / "bell.json"),
                       "--out-dir", str(out), "--quiet") == EXIT_OK
        payload = json.loads((out / "bell.json").read_text())
        assert abs(payload["abs_chsh"] - 2.0 * math.sqrt(2.0)) < 1e-12
        assert payload["classical_max"] == 2.0
        rows = (out / "correlation.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 32
        for row in rows:
            theta, closed, branch = (float(v) for v in row.split(","))
            assert abs(closed - branch) < 1e-12
            assert abs(closed - (-math.cos(theta))) < 1e-12

    def test_caustic_crossings_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("caustic", "--config", str(CONFIGS / "caustic.json"),
                       "--out-dir", str(out), "--quiet") == EXIT_OK
        payload = json.loads((out / "caustic.json").read_text())
        assert payload["crossing_count"] >= payload["n_trajectories"] - 1


class TestFailureModes:
    def test_harmonic_requires_omega(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "evolve.json").read_text())
        raw.pop("experiment")
        raw["potential"] = "harmonic"
        config = tmp_path / "c.json"
        config.write_text(json.dumps(raw))
        status = run_cli("evolve", "--config", str(config), "--out-dir", str(tmp_path / "o"))
        assert status == EXIT_CONFIG
        assert "omega" in capsys.readouterr().err

    def test_io_failure_when_out_dir_is_a_file(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        status = run_cli("spin_split", "--config", str(CONFIGS / "spin_split.json"),
                         "--out-dir", str(blocker), "--quiet")
        assert status == 4
        assert blocker.read_text() == "not a directory"  # nothing clobbered

    def test_failed_csv_worker_exits_4_with_a_failed_manifest(self, tmp_path, capsys, monkeypatch):
        class Exploding(list):  # a string column that raises while it is formatted
            def __iter__(self):
                raise RuntimeError("boom")

        blocks = [(np.arange(4.0),), (np.arange(4.0),), (Exploding(["x"] * 4),)]
        monkeypatch.setattr(mvlab.fields, "MIN_FIELDS_PER_RANGE", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        splitting = EXPERIMENTS["spin_split"]._replace(run=lambda p: {
            "split.csv": lambda path: write_csv(path, "a", blocks),
        })
        monkeypatch.setitem(EXPERIMENTS, "spin_split", splitting)
        out = tmp_path / "out"
        status = run_cli("spin_split", "--config", str(CONFIGS / "spin_split.json"),
                         "--out-dir", str(out), "--quiet")
        assert status == 4
        err = capsys.readouterr().err
        assert "split.csv.part1 failed: RuntimeError: boom" in err and len(err.strip().splitlines()) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and "RuntimeError: boom" in manifest["error"]
        assert not list(out.glob("*.part*"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_rerun_leaves_no_stale_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        args = ("bell", "--config", str(CONFIGS / "bell.json"), "--out-dir", str(out), "--quiet")
        assert run_cli(*args) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["status"] == "ok"

        def interrupted(path, payload):  # bell.json, after correlation.csv is rewritten
            raise KeyboardInterrupt

        monkeypatch.setattr("mvlab.cli.write_json", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*args)
        assert (out / "correlation.csv").exists()
        assert not (out / "manifest.json").exists()

    # what the JSON reader cannot take: bytes that are not UTF-8, nesting past the recursion limit
    @pytest.mark.parametrize("config_bytes, override, named", [
        (b"\xff\xfe{", None, "config is not valid JSON"),
        (b"[" * 100_000, None, "config nests JSON"),
        (None, "angles=" + "[" * 100_000, "--set angles nests JSON"),
    ], ids=["config-not-utf8", "config-nested", "set-nested"])
    def test_unreadable_json_exits_2_with_one_line(self, tmp_path, capsys, config_bytes, override, named):
        config, out = CONFIGS / "bell.json", tmp_path / "out"
        if config_bytes is not None:
            config = tmp_path / "c.json"
            config.write_bytes(config_bytes)
        args = ["bell", "--config", str(config), "--out-dir", str(out)] + (["--set", override] if override else [])
        assert run_cli(*args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1, err
        proc = subprocess.run([sys.executable, "-m", "mvlab.cli", *args], env=fresh_env(), capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, err)
        assert not out.exists()

    # a rejected value is shown cut to 200 characters and "...", by the CLI's validators and the
    # library's refusals alike: one short line, however long it is
    @pytest.mark.parametrize("experiment, override, named", [
        ("evolve", "boundary=" + json.dumps(list(range(10_000))), "parameter 'boundary' must be a string"),
        ("evolve", "x0=" + "x" * 10_000, "parameter 'x0' takes numbers"),
        ("bell", "angles=" + json.dumps([0.0] * 10_000), "parameter 'angles' out of range"),
        ("bell", "k" * 10_000 + "=1", "unknown parameter 'kkk"),
        ("evolve", "boundary=" + "a" * 50_000, "boundary must be one of"),  # refused by SpatialGrid
    ], ids=["coerce-str", "number", "out-of-range", "unknown-key", "library-boundary"])
    def test_long_rejected_value_exits_2_with_one_short_line(self, tmp_path, capsys, experiment, override, named):
        out = tmp_path / "out"
        args = [experiment, "--config", str(CONFIGS / f"{experiment}.json"), "--out-dir", str(out), "--set", override]
        assert run_cli(*args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1 and len(err) < 400, err
        assert "..." in err
        proc = subprocess.run([sys.executable, "-m", "mvlab.cli", *args], env=fresh_env(), capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, err)
        assert not out.exists()

    # an unknown experiment is shown through the same cut, by main and by run
    def test_long_unknown_experiment_exits_2_with_one_short_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["a" * 50_000, "--config", str(CONFIGS / "evolve.json"), "--out-dir", str(out)]
        assert run_cli(*args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'aaa") and err.endswith("...\n") and len(err) < 400, err
        proc = subprocess.run([sys.executable, "-m", "mvlab.cli", *args], env=fresh_env(), capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (EXIT_CONFIG, err)
        assert run(args[0], {}, out_dir=out) == EXIT_CONFIG
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("build", [
        lambda s: SpatialGrid(-1.0, 1.0, 8, s),
        lambda s: PointerLabel(1, s),
        lambda s: TrajectoryEnsemble(np.arange(2.0), np.zeros((2, 1)), s, np.full(1, np.nan)),
    ], ids=["boundary", "reading", "kind"])
    def test_library_message_cuts_a_long_string(self, build):
        with pytest.raises(DomainError) as refused:
            build("a" * 50_000)
        assert str(refused.value).endswith("a...") and len(str(refused.value)) < 400

    # refusals of the config file and of a list override: one stderr line, no output directory
    @pytest.mark.parametrize("config_text, override, status, named", [
        ("[1, 2]", None, EXIT_CONFIG, "error: config must be a JSON object"),
        (None, None, EXIT_IO, "error: cannot read config: "),
        (None, "angles=[]", EXIT_CONFIG, "error: parameter 'angles' must be a nonempty list, got []"),
    ], ids=["config-not-an-object", "config-missing", "empty-list"])
    def test_refused_config_writes_nothing(self, tmp_path, capsys, config_text, override, status, named):
        config, out = CONFIGS / "bell.json", tmp_path / "out"
        if config_text is not None:
            config = tmp_path / "c.json"
            config.write_text(config_text)
        elif override is None:
            config = tmp_path / "missing.json"
        args = ["bell", "--config", str(config), "--out-dir", str(out)] + (["--set", override] if override else [])
        assert run_cli(*args) == status
        captured = capsys.readouterr()
        assert captured.err.startswith(named) and len(captured.err.splitlines()) == 1, captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_malformed_set_entry(self, tmp_path, capsys):
        status = run_cli("spin_split", "--config", str(CONFIGS / "spin_split.json"),
                         "--set", "thetapi", "--out-dir", str(tmp_path / "o"))
        assert status == EXIT_CONFIG
        assert "key=value" in capsys.readouterr().err


def fresh_env(**overrides):
    """This environment with src on PYTHONPATH and overrides set over it (None unsets)."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for name, value in overrides.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


def imported_modules(tmp_path, *args):
    """Exit status and every module a fresh interpreter imports, read from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=tmp_path, env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }


def fresh_python(code, **env):
    """stdout of a fresh interpreter running code, in fresh_env(**env)."""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(**env), capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout


# the package's public names, as its eager imports bound them before it loaded lazily
PUBLIC_NAMES = {
    "branchstats": "BranchSequence BranchTree central_moment central_moment_exact convergence_demo "
                   "enumerate_branch_tree expected_frequency moment_scaling_report prob_r_given_N "
                   "sample_observer_branch sequence_weight",
    "errors": "CapacityError CommensurabilityError DomainError GuardError MvLabError ProtocolError "
              "ResolutionError StabilityError",
    "evolution": "EvolutionRecord evolve_schrodinger",
    "fields": "GridWavefunction PhysicalParams PotentialField SpatialGrid free_potential "
              "harmonic_potential make_gaussian_packet make_plane_wave norm_squared normalize",
    "madelung": "PolarField QuantumPotentialField continuity_residual decompose "
                "hamilton_jacobi_residual quantum_potential recompose universe_density",
    "spins": "Branch Direction PointerLabel TwoSpinState aligned_probability apply_measurement chsh "
             "classical_chsh_bound correlation four_world_split rotate_second_basis singlet "
             "unset_pointers",
    "universes": "ClassicalEnsembleRecord TrajectoryEnsemble classical_ensemble_evolve crossing_count "
                 "density_transport_check integrate_universes stratified_positions transport_interval "
                 "velocity_field",
}
EXPORTED = {name for names in PUBLIC_NAMES.values() for name in names.split()}
SUBMODULES = {"branchstats", "cli", "errors", "evolution", "fields", "madelung", "spins", "universes"}


class TestStartupImports:
    """`import mvlab` loads nothing; no run imports scipy.linalg or scipy.fft: a dirichlet
    evolution loads only LAPACK's compiled module, a periodic one only pocketfft's; the CLI
    runs with one OpenBLAS thread."""

    def test_import_mvlab_loads_no_module(self, tmp_path):
        status, modules = imported_modules(tmp_path, "-c", "import mvlab")
        assert status == 0
        assert "mvlab" in modules
        assert "numpy" not in modules
        assert not [name for name in modules if name.startswith("mvlab.")]

    def test_every_public_name_is_its_modules_object(self):
        assert set(mvlab.__all__) == EXPORTED
        assert len(mvlab.__all__) == len(EXPORTED)
        for module, names in PUBLIC_NAMES.items():
            for name in names.split():
                assert getattr(mvlab, name) is getattr(importlib.import_module(f"mvlab.{module}"), name)

    def test_star_import_and_dir_list_the_public_names(self):
        namespace = {}
        exec("from mvlab import *", namespace)
        assert set(namespace) - {"__builtins__"} == EXPORTED
        listed = {name for name in dir(mvlab) if not name.startswith("_")}
        assert listed - SUBMODULES == EXPORTED

    def test_evolution_loads_no_trajectory_module(self):
        code = "import sys, mvlab.evolution; print(*sorted(m for m in sys.modules if m.startswith('mvlab.')))"
        assert fresh_python(code).split() == ["mvlab.errors", "mvlab.evolution", "mvlab.fields"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            mvlab.no_such_name
        with pytest.raises(ImportError):
            exec("from mvlab import no_such_name", {})

    @pytest.mark.parametrize("given, kept", [(None, "1"), ("3", "3")])
    def test_cli_sets_one_openblas_thread_unless_set(self, given, kept):
        code = "import os, mvlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh_python(code, OPENBLAS_NUM_THREADS=given).split() == [kept]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task")
    def test_cli_process_runs_one_thread(self):
        code = "import os, mvlab.cli; print(len(os.listdir('/proc/self/task')))"
        assert fresh_python(code, OPENBLAS_NUM_THREADS=None).split() == ["1"]

    # the extension is executed on its own, so -X importtime does not list it: read sys.modules
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task")
    def test_periodic_evolve_loads_pocketfft_alone_on_one_thread(self, tmp_path):
        code = textwrap.dedent(f"""
            import os, sys
            from mvlab.cli import main
            status = main(["evolve", "--config", {str(CONFIGS / "evolve.json")!r},
                           "--out-dir", {str(tmp_path / "out")!r}, "--quiet"])
            print(status, len(os.listdir("/proc/self/task")))
            print(*sorted(name for name in sys.modules if name.startswith("scipy.")))
        """)
        status_threads, modules = fresh_python(code, OPENBLAS_NUM_THREADS=None).splitlines()
        assert status_threads.split() == [str(EXIT_OK), "1"]
        assert (tmp_path / "out" / "evolution.csv").exists()
        assert "scipy.fft._pocketfft.pypocketfft" in modules.split()
        assert not {"scipy.fft", "scipy.linalg"} & set(modules.split())

    @pytest.mark.parametrize("module", ["mvlab", "mvlab.cli"])
    def test_import_leaves_out_scipy_linalg(self, tmp_path, module):
        status, modules = imported_modules(tmp_path, "-c", f"import {module}")
        assert status == 0
        assert module in modules
        assert "scipy.linalg" not in modules

    def test_cli_and_a_bell_run_load_no_scipy(self, tmp_path):
        def scipy_modules(modules):
            return {name for name in modules if name == "scipy" or name.startswith("scipy.")}

        status, modules = imported_modules(tmp_path, "-c", "import mvlab.cli")
        assert status == 0 and "mvlab.cli" in modules
        assert not scipy_modules(modules)
        status, modules = imported_modules(tmp_path, "-m", "mvlab.cli", "bell", "--config",
                                           str(CONFIGS / "bell.json"), "--out-dir", "out", "--quiet")
        assert status == EXIT_OK
        assert not scipy_modules(modules)
        # the stamp is read from scipy's version.py, and is the version scipy reports
        import scipy

        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__

    def test_periodic_evolve_leaves_out_scipy_linalg(self, tmp_path):
        status, modules = imported_modules(tmp_path, "-m", "mvlab.cli", "evolve", "--config",
                                           str(CONFIGS / "evolve.json"), "--out-dir", "out", "--quiet")
        assert status == EXIT_OK
        assert (tmp_path / "out" / "evolution.csv").exists()
        assert "scipy.linalg" not in modules

    def test_dirichlet_evolve_loads_it_and_reproduces(self, tmp_path):
        for label in ("run1", "run2"):
            status, modules = imported_modules(
                tmp_path, "-m", "mvlab.cli", "evolve", "--config", str(CONFIGS / "evolve.json"),
                "--set", "boundary=dirichlet", "--out-dir", label, "--quiet",
            )
            assert status == EXIT_OK
            assert "scipy.linalg" not in modules
        runs = [tmp_path / label for label in ("run1", "run2")]
        assert (runs[0] / "evolution.csv").read_bytes() == (runs[1] / "evolution.csv").read_bytes()
        assert manifest_core(runs[0] / "manifest.json") == manifest_core(runs[1] / "manifest.json")


class TestReproducibility:
    @pytest.mark.parametrize("size", [0, (1 << 20) + 12345])
    def test_manifest_digest_streams_the_file(self, tmp_path, size):
        # an empty file, and one longer than the 1 MiB read chunk
        path = tmp_path / "out.bin"
        path.write_bytes((bytes(range(256)) * 5000)[:size])
        assert path.stat().st_size == size
        assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_rerun_overwrites_with_identical_content(self, tmp_path):
        out = tmp_path / "out"
        checks = []
        for _ in range(2):
            assert run_cli("branch_stats", "--config", str(CONFIGS / "branch_stats.json"),
                           "--out-dir", str(out), "--quiet") == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            checks.append(manifest["outputs"])
        assert checks[0] == checks[1]

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_two_runs_byte_identical(self, tmp_path, name):
        outs = []
        for label in ("run1", "run2"):
            out = tmp_path / label
            assert run_cli(name, "--config", str(CONFIGS / f"{name}.json"),
                           "--out-dir", str(out), "--quiet") == EXIT_OK
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert sorted(p.name for p in outs[1].iterdir()) == files
        for fname in files:
            if fname == "manifest.json":
                assert manifest_core(outs[0] / fname) == manifest_core(outs[1] / fname)
            else:
                assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_matches_committed_golden(self, tmp_path, monkeypatch, name):
        def no_fork():  # the largest golden CSV has 7680 fields, under MIN_FIELDS_PER_RANGE
            raise AssertionError("a golden CSV forked a writer")

        monkeypatch.setattr(os, "fork", no_fork)
        golden = REPO / "golden" / name
        out = tmp_path / "out"
        assert run_cli(name, "--config", str(CONFIGS / f"{name}.json"),
                       "--out-dir", str(out), "--quiet") == EXIT_OK
        for path in sorted(golden.iterdir()):
            if path.name == "manifest.json":
                fresh = manifest_core(out / path.name)
                committed = manifest_core(path)
                # version stamps may legitimately differ between environments;
                # the checksums pin the output bytes
                assert fresh["experiment"] == committed["experiment"]
                assert fresh["parameters"] == committed["parameters"]
                assert fresh["outputs"] == committed["outputs"]
            else:
                assert (out / path.name).read_bytes() == path.read_bytes()
