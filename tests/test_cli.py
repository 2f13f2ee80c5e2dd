import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvlab.branchstats import convergence_demo, convergence_to_csv
from mvlab.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    EXPERIMENTS,
    MAX_RUN_BYTES,
    _estimated_bytes,
    _sha256,
    _validate,
    main,
)

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

    def test_out_of_range_value(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"theta": 9.0}))
        status = run_cli("spin_split", "--config", str(config), "--out-dir", str(tmp_path / "o"))
        assert status == EXIT_CONFIG
        assert "theta" in capsys.readouterr().err

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
        ("caustic", "t_total=Infinity"),
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
            p = _validate(EXPERIMENTS[name][0], raw, name)
            assert (name, _estimated_bytes(name, p)) == (name, expected[name])
            assert expected[name] < MAX_RUN_BYTES

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

    def test_malformed_set_entry(self, tmp_path, capsys):
        status = run_cli("spin_split", "--config", str(CONFIGS / "spin_split.json"),
                         "--set", "thetapi", "--out-dir", str(tmp_path / "o"))
        assert status == EXIT_CONFIG
        assert "key=value" in capsys.readouterr().err


def imported_modules(tmp_path, *args):
    """Exit status and every module a fresh interpreter imports, read from -X importtime."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }


class TestStartupImports:
    """scipy.linalg loads only when a dirichlet evolution needs LAPACK."""

    @pytest.mark.parametrize("module", ["mvlab", "mvlab.cli"])
    def test_import_leaves_out_scipy_linalg(self, tmp_path, module):
        status, modules = imported_modules(tmp_path, "-c", f"import {module}")
        assert status == 0
        assert module in modules
        assert "scipy.linalg" not in modules

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
            assert "scipy.linalg" in modules
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
    def test_matches_committed_golden(self, tmp_path, name):
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
