"""Tests of the benchmark itself: output checks, failure accounting, tracing.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
They start no mvlab process; the runner is replaced by a stub that plays
back golden or hand-made outputs.
"""

import json
import math
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracer import TracedModule, Tracer, self_times

GOLDEN = run.ROOT / "golden"


def write_universes(out_dir: Path, x: np.ndarray, fractions, expected=0.5):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["t,trajectory_id,x,kind,flags"]
    for t in range(x.shape[0]):
        lines += [f"{float(t)!r},{m},{float(x[t, m])!r},bohmian," for m in range(x.shape[1])]
    (out_dir / "trajectories.csv").write_text("\n".join(lines) + "\n")
    rows = ["t,fraction,expected,deviation"]
    rows += [f"{float(t)!r},{f!r},{expected!r},{abs(f - expected)!r}" for t, f in enumerate(fractions)]
    (out_dir / "transport.csv").write_text("\n".join(rows) + "\n")


class StubRunner:
    """Stands in for run.Runner: each 'child' copies golden outputs, or reports a result."""

    def __init__(self, tmp_path, corrupt=None, library_result=None):
        self.tmp_path = tmp_path
        self.corrupt = corrupt
        self.library_result = library_result

    def spec(self, **fields):
        path = self.tmp_path / "spec.json"
        path.write_text(json.dumps(fields))
        return ["child.py", str(path)]

    def child(self, command):
        if "-c" in command:  # a set-up probe
            return 0, 0.3, 0.3, 20.0
        if "--out-dir" in command:
            name = command[command.index("-m") + 2]
            out_dir = Path(command[command.index("--out-dir") + 1])
            shutil.copytree(GOLDEN / name, out_dir)
            if name == self.corrupt:
                target = next(p for p in sorted(out_dir.iterdir()) if p.name != "manifest.json")
                data = bytearray(target.read_bytes())
                data[-2] ^= 1
                target.write_bytes(bytes(data))
        else:
            Path(command[-1]).with_suffix(".result.json").write_text(json.dumps(self.library_result))
        return 0, 0.5, 0.6, 50.0

    @staticmethod
    def reference(rounds):
        return 0.25, 0.3

    @staticmethod
    def result(command):
        return run.Runner.result(command)


# --- checks -----------------------------------------------------------------

def test_golden_check_passes_golden_and_ignores_wall_time_and_versions(tmp_path):
    out = tmp_path / "evolve"
    shutil.copytree(GOLDEN / "evolve", out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["wall_time_s"] = 123.0
    manifest["versions"]["numpy"] = "0.0"
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert checks.golden_problems(out, GOLDEN / "evolve") == []


@pytest.mark.parametrize("damage", ["flip_byte", "drop_file", "manifest_checksum"])
def test_golden_check_flags_corruption(tmp_path, damage):
    out = tmp_path / "universes"
    shutil.copytree(GOLDEN / "universes", out)
    if damage == "flip_byte":
        data = bytearray((out / "transport.csv").read_bytes())
        data[40] ^= 1
        (out / "transport.csv").write_bytes(bytes(data))
    elif damage == "drop_file":
        (out / "trajectories.csv").unlink()
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["outputs"]["transport.csv"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
    assert checks.golden_problems(out, GOLDEN / "universes")


def test_universes_check_accepts_ordered_flow_and_flags_crossing(tmp_path):
    x = np.cumsum(np.ones((5, 4)), axis=1) + np.arange(5)[:, None] * 0.1
    write_universes(tmp_path / "ok", x, [0.5] * 5)
    assert checks.universes_problems(tmp_path / "ok", 4, 5) == []
    x[3, [1, 2]] = x[3, [2, 1]]
    write_universes(tmp_path / "crossed", x, [0.5] * 5)
    assert any("crossed" in p for p in checks.universes_problems(tmp_path / "crossed", 4, 5))


def test_universes_check_flags_transport_deviation_and_truncation(tmp_path):
    x = np.cumsum(np.ones((5, 4)), axis=1)
    bound = 3.0 / math.sqrt(4)
    write_universes(tmp_path / "dev", x, [0.5, 0.5, 0.5 + bound + 0.01, 0.5, 0.5], expected=0.5)
    assert any("deviation" in p for p in checks.universes_problems(tmp_path / "dev", 4, 5))
    write_universes(tmp_path / "short", x[:4], [0.5] * 4)
    assert checks.universes_problems(tmp_path / "short", 4, 5)


def test_residual_check_uses_criterion_one_thresholds():
    assert checks.residual_problems({"continuity": 1.0e-4, "hamilton_jacobi": 3.0e-4}) == []
    assert checks.residual_problems({"continuity": 1.6e-4, "hamilton_jacobi": 3.0e-4})
    assert checks.residual_problems({"continuity": 1.0e-4, "hamilton_jacobi": float("nan")})


def test_branch_tree_check_flags_a_wrong_weight(tmp_path):
    p, n = 0.3, 4
    lines = ["sequence_bits,r,weight"]
    for k in range(2**n):
        bits = "".join("1" if (k >> i) & 1 else "0" for i in range(n))
        r = bits.count("1")
        lines.append(f"{bits},{r},{p**r * (1 - p) ** (n - r)!r}")
    path = tmp_path / "tree.csv"
    path.write_text("\n".join(lines) + "\n")
    assert checks.branch_tree_problems(path, n, p) == []
    lines[5] = lines[5].rsplit(",", 1)[0] + ",0.5"
    path.write_text("\n".join(lines) + "\n")
    assert checks.branch_tree_problems(path, n, p)


def test_moment_convergence_and_repeat_checks():
    assert checks.moment_problems({"report.satisfied": True, "identity": True}) == []
    assert checks.moment_problems({"report.satisfied": True, "identity": False})
    p = 0.3
    rows = [[100, 0.31, abs(0.31 - p), p * (1.0 - p) / 100]]
    assert checks.convergence_problems(rows, [100], p) == []
    rows[0][3] *= 2
    assert checks.convergence_problems(rows, [100], p)
    digests = checks.RepeatDigests()
    assert digests.problems({"a.csv": "x"}) == []
    assert digests.problems({"a.csv": "x"}) == []
    assert digests.problems({"a.csv": "y"})


# --- failure accounting -------------------------------------------------------

def test_corrupted_cli_output_counts_as_one_failed_operation(tmp_path):
    inputs = run.make_inputs("cli_configs", 0)
    clean = run.cli_iteration(StubRunner(tmp_path), "cli_configs", inputs, tmp_path / "a",
                              checks.RepeatDigests())
    assert (clean["ops"], clean["failed"]) == (8, 0)
    bad = run.cli_iteration(StubRunner(tmp_path, corrupt="bell"), "cli_configs", inputs, tmp_path / "b",
                            checks.RepeatDigests())
    assert (bad["ops"], bad["failed"]) == (8, 1)
    assert any("bell" in p for p in bad["problems"])


def test_library_leg_over_threshold_or_raising_counts_as_failed(tmp_path):
    inputs = run.make_inputs("hydro_residuals", 0)
    result = {"wall_s": 1.0, "cpu_s": 1.0, "legs": {
        "periodic": {"values": {"continuity": 1e-4, "hamilton_jacobi": 2e-4}},
        "dirichlet": {"values": {"continuity": 2e-4, "hamilton_jacobi": 2e-4}},
    }}
    it = run.library_iteration(StubRunner(tmp_path, library_result=result), "hydro_residuals", inputs,
                               tmp_path / "lib", checks.RepeatDigests())
    assert (it["ops"], it["failed"]) == (2, 1)
    result["legs"]["dirichlet"] = {"error": "StabilityError: dt too large"}
    it = run.library_iteration(StubRunner(tmp_path, library_result=result), "hydro_residuals", inputs,
                               tmp_path / "lib2", checks.RepeatDigests())
    assert it["failed"] == 1 and "StabilityError" in it["problems"][0]


def test_end_to_end_times_are_relative_to_the_reference(tmp_path):
    inputs = run.make_inputs("cli_configs", 0)
    metrics, raw, iterations = run.untraced(StubRunner(tmp_path), "cli_configs", inputs, tmp_path, 0)
    assert list(metrics) == ["setup_s", "wall_rel", "cpu_rel", "peak_rss_mb"]
    assert len(iterations) == run.MIN_ITERS
    # eight processes of 0.5 s wall and 0.6 s CPU, and five reference
    # children of 0.25 s wall and 0.3 s CPU, per iteration
    assert raw["wall_s"][0] == pytest.approx(4.0) and raw["cpu_s"][0] == pytest.approx(4.8)
    assert raw["reference_wall_s"][0] == pytest.approx(1.25) and raw["reference_cpu_s"][0] == pytest.approx(1.5)
    assert metrics["wall_rel"][0] == pytest.approx(3.2)
    assert metrics["cpu_rel"][0] == pytest.approx(3.2)


# --- inputs and tracing ---------------------------------------------------------

def test_inputs_are_seeded_and_in_range():
    assert run.make_inputs("hydro_residuals", 7) == run.make_inputs("hydro_residuals", 7)
    assert run.make_inputs("hydro_residuals", 7) != run.make_inputs("hydro_residuals", 8)
    for seed in range(50):
        u = run.make_inputs("universes_scaled", seed)
        assert -1 <= u["x0"] <= 1 and 0 <= u["k0"] <= 0.5
        assert (u["interval_a"], u["interval_b"]) == (u["x0"] - 1, u["x0"] + 1)
        b = run.make_inputs("branch_exact", seed)
        assert 0.05 <= b["p"] <= 0.95
        # full mantissa: the denominator is 2^52 over the binary exponent, never shorter
        assert Fraction(b["p"]).denominator.bit_length() == b["p_denominator_bits"] >= 54


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "d", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_traced_module_records_only_calls_through_the_view():
    import math as module

    tracer = Tracer("t")
    view = TracedModule(tracer, module, "math")
    with tracer.span("outer"):
        assert view.sqrt(4.0) == 2.0
    module.sqrt(9.0)
    assert [s["name"] for s in tracer.spans] == ["outer", "math.sqrt"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[1]["run"] == "t"
    assert view.pi == module.pi
