"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output is
correct. The checks recompute what they verify from the files the program
wrote (or from values a child process reports) and use no mvlab code, so a
defect in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


# criterion-1 thresholds from the repository's acceptance suite
CONTINUITY_THRESHOLD = 1.5e-4
HAMILTON_JACOBI_THRESHOLD = 4.0e-4


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest_core(path) -> dict:
    """The manifest fields that must match golden: not wall time or versions."""
    data = json.loads(Path(path).read_text())
    return {key: data.get(key) for key in ("experiment", "parameters", "status", "outputs")}


def golden_problems(out_dir, golden_dir) -> list[str]:
    """Byte-compare a CLI output directory against its golden directory."""
    out_dir, golden_dir = Path(out_dir), Path(golden_dir)
    expected = sorted(p.name for p in golden_dir.iterdir())
    found = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if found != expected:
        return [f"{out_dir.name}: files {found} != golden {expected}"]
    problems = []
    for name in expected:
        if name == "manifest.json":
            if _manifest_core(out_dir / name) != _manifest_core(golden_dir / name):
                problems.append(f"{out_dir.name}/manifest.json differs from golden")
        elif (out_dir / name).read_bytes() != (golden_dir / name).read_bytes():
            problems.append(f"{out_dir.name}/{name} differs from golden")
    return problems


def _csv_rows(path, header: str) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{Path(path).name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def universes_problems(out_dir, n_trajectories: int, n_snapshots: int) -> list[str]:
    """No crossings in trajectories.csv; transport deviation within 3/sqrt(M).

    trajectories.csv is streamed, so this process stays small: a child's peak
    RSS as wait4 reports it includes its parent's RSS at the time of the fork.
    """
    out_dir = Path(out_dir)
    header = "t,trajectory_id,x,kind,flags"
    x: list[float] = []
    try:
        with open(out_dir / "trajectories.csv") as fh:
            if fh.readline().rstrip("\n") != header:
                return [f"trajectories.csv: header is not {header!r}"]
            for i, line in enumerate(fh):
                _, trajectory_id, position, _ = line.split(",", 3)
                if int(trajectory_id) != i % n_trajectories:
                    return ["trajectories.csv rows are not ordered by time then trajectory id"]
                x.append(float(position))
        transport = _csv_rows(out_dir / "transport.csv", "t,fraction,expected,deviation")
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if len(x) != n_trajectories * n_snapshots:
        return [f"trajectories.csv has {len(x)} rows, expected {n_trajectories * n_snapshots}"]
    problems = []
    # in 1D two trajectories cross exactly when their sorted order changes
    crossings = 0
    for t in range(n_snapshots - 1):
        now = x[t * n_trajectories:(t + 1) * n_trajectories]
        later = x[(t + 1) * n_trajectories:(t + 2) * n_trajectories]
        following = [later[m] for m in sorted(range(n_trajectories), key=now.__getitem__)]
        crossings += sum(1 for a, b in zip(following, following[1:]) if b < a)
    if crossings:
        problems.append(f"quantum flow crossed {crossings} times")
    if len(transport) != n_snapshots:
        problems.append(f"transport.csv has {len(transport)} rows, expected {n_snapshots}")
    bound = 3.0 / math.sqrt(n_trajectories)
    worst = max((abs(float(r[1]) - float(r[2])) for r in transport), default=math.inf)
    if not worst <= bound:
        problems.append(f"transport deviation {worst:.3g} exceeds 3/sqrt(M) = {bound:.3g}")
    return problems


def residual_problems(values: dict) -> list[str]:
    """Relative residuals of one evolution against the criterion-1 thresholds."""
    problems = []
    for key, threshold in (("continuity", CONTINUITY_THRESHOLD),
                           ("hamilton_jacobi", HAMILTON_JACOBI_THRESHOLD)):
        value = values.get(key)
        if not (isinstance(value, float) and value < threshold):
            problems.append(f"{key} residual {value!r} is not below {threshold:g}")
    return problems


def branch_tree_problems(path, N: int, p: float) -> list[str]:
    """2^N rows, r = popcount of the bits, weight = p^r q^(N-r), weights sum to 1."""
    try:
        rows = _csv_rows(path, "sequence_bits,r,weight")
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if len(rows) != 2**N:
        return [f"branch_tree.csv has {len(rows)} rows, expected {2**N}"]
    q = 1.0 - p
    total = 0.0
    for bits, r, weight in rows:
        w = float(weight)
        if len(bits) != N or int(r) != bits.count("1") or not math.isclose(
            w, p ** int(r) * q ** (N - int(r)), rel_tol=1e-12
        ):
            return [f"branch_tree.csv row {bits},{r},{weight} is wrong"]
        total += w
    if not math.isclose(total, 1.0, rel_tol=1e-9):
        return [f"branch weights sum to {total!r}, not 1"]
    return []


def moment_problems(values: dict) -> list[str]:
    """Flags a child computed with exact rationals (see child.branch_exact)."""
    return [f"{key} does not hold" for key, ok in sorted(values.items()) if ok is not True]


class RepeatDigests:
    """Output sha256 per file name; a repeat of the same inputs must match the first."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def problems(self, files: dict) -> list[str]:
        out = []
        for name, digest in files.items():
            if self.first.setdefault(name, digest) != digest:
                out.append(f"{name} changed between repeats of one seed")
        return out


def convergence_problems(rows: list, N_values: list, p: float) -> list[str]:
    """Rows N, f, |f - p|, p*q/N for each requested N, f a frequency in [0, 1]."""
    if [row[0] for row in rows] != list(N_values):
        return [f"convergence rows cover N={[row[0] for row in rows]}, expected {N_values}"]
    for n, f, abs_err, variance in rows:
        if not (0.0 <= f <= 1.0 and abs_err == abs(f - p) and variance == p * (1.0 - p) / n):
            return [f"convergence row for N={n} is inconsistent: f={f!r}, variance={variance!r}"]
    return []
