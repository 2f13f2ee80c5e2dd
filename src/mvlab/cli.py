"""Command-line front end: validated experiment configs in, CSV/JSON out.

Every run writes its declared outputs plus a manifest.json recording the
resolved configuration, library versions, wall time, and a sha256 checksum
per output file. All randomness flows through the single `seed` parameter;
reruns of an identical config reproduce every output byte for byte (the
manifest's wall-time field is the one legitimately volatile value).
Each pipeline computes all of its results before any file is opened; its
writers only format them, through the shared write_csv and write_json.

Exit codes: 0 success, 2 config validation failure, 3 numerical guard
(stability, capacity, or an arithmetic overflow that escaped validation),
4 I/O failure. A run whose arrays are estimated from its parameters to
exceed MAX_RUN_BYTES is refused with exit 3 before any of them is allocated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .branchstats import (
    branch_tree_to_csv,
    central_moment,
    convergence_demo,
    convergence_to_csv,
    enumerate_branch_tree,
    expected_frequency,
)
from .errors import CapacityError, DomainError, GuardError, MvLabError, ProtocolError
from .evolution import (
    MAX_DEFAULT_SNAPSHOTS,
    classical_ensemble_evolve,
    classical_to_csv,
    evolution_to_csv,
    evolve_schrodinger,
)
from .fields import (
    PhysicalParams,
    SpatialGrid,
    free_potential,
    harmonic_potential,
    make_gaussian_packet,
    write_csv,
    write_json,
)
from .madelung import (
    decompose, polar_to_csv, quantum_potential, quantum_potential_to_csv, record_polars
)
from .spins import (
    branch_correlation,
    branches_to_json,
    chsh,
    classical_chsh_bound,
    correlation,
    singlet_branches,
)
from .universes import (
    TrajectoryEnsemble,
    crossing_count,
    density_transport_check,
    integrate_universes,
    stratified_positions,
    trajectories_to_csv,
    transport_interval,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4

MAX_RUN_BYTES = 1 << 30  # a run whose _estimated_bytes exceed this exits 3


class ConfigError(MvLabError):
    """Configuration rejected before any computation ran."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict


class Param:
    """One schema entry: name, JSON kind, optional range check."""

    def __init__(self, name, kind, required=True, default=None, check=None, note=""):
        self.name = name
        self.kind = kind  # int | float | str | int_list | float_list
        self.required = required
        self.default = default
        self.check = check
        self.note = note


def _coerce(param: Param, value):
    kind = param.kind
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"parameter {param.name!r} must be an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"parameter {param.name!r} must be a number, got {value!r}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"parameter {param.name!r} must be a string, got {value!r}")
        return value
    if kind in ("int_list", "float_list"):
        if not isinstance(value, (list, tuple)) or len(value) == 0:
            raise ConfigError(f"parameter {param.name!r} must be a nonempty list, got {value!r}")
        out = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"parameter {param.name!r} must contain numbers, got {item!r}")
            if kind == "int_list":
                if not isinstance(item, int):
                    raise ConfigError(f"parameter {param.name!r} must contain integers, got {item!r}")
                out.append(item)
            else:
                out.append(float(item))
        return out
    raise AssertionError(f"unhandled parameter kind {kind}")


def _validate(schema: list[Param], raw: dict, experiment: str) -> dict:
    by_name = {p.name: p for p in schema}
    for key in raw:
        if key not in by_name:
            raise ConfigError(f"unknown parameter {key!r} for experiment {experiment!r}")
    out = {}
    for param in schema:
        if param.name in raw:
            value = _coerce(param, raw[param.name])
        elif param.required:
            raise ConfigError(f"missing required parameter {param.name!r} for {experiment!r}")
        else:
            value = param.default
        if value is not None and param.check is not None and not param.check(value):
            raise ConfigError(
                f"parameter {param.name!r} out of range: {value!r} (expected {param.note})"
            )
        out[param.name] = value
    return out


_GRID = [
    Param("x_min", "float"),
    Param("x_max", "float"),
    Param("n_points", "int", check=lambda v: v >= 8, note="n_points >= 8"),
    Param("boundary", "str", check=lambda v: v in ("periodic", "dirichlet"),
          note="'periodic' or 'dirichlet'"),
]
_PHYSICS = [
    Param("hbar", "float", check=lambda v: v > 0, note="hbar > 0"),
    Param("mass", "float", check=lambda v: v > 0, note="mass > 0"),
]
_PACKET = [
    Param("x0", "float"),
    Param("sigma", "float", check=lambda v: v > 0, note="sigma > 0"),
    Param("k0", "float"),
]
_NODE_EPS = Param(
    "node_epsilon", "float", required=False, default=1e-6,
    check=lambda v: 0 < v <= 0.1, note="0 < node_epsilon <= 0.1",
)


def _build_grid(p):
    return SpatialGrid(p["x_min"], p["x_max"], p["n_points"], p["boundary"])


def _build_packet(p, grid, params):
    return make_gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], params)


def _build_potential(p, grid, params):
    if p["potential"] == "harmonic":
        if p.get("omega") is None:
            raise ConfigError("parameter 'omega' is required when potential='harmonic'")
        return harmonic_potential(grid, p["omega"], params)
    return free_potential(grid)


def _run_evolve(p):
    params = PhysicalParams(p["hbar"], p["mass"])
    grid = _build_grid(p)
    wf0 = _build_packet(p, grid, params)
    potential = _build_potential(p, grid, params)
    record = evolve_schrodinger(wf0, potential, params, p["dt"], p["n_steps"], p["snapshot_stride"])
    return {"evolution.csv": lambda path: evolution_to_csv(record, path)}


def _run_decompose(p):
    params = PhysicalParams(p["hbar"], p["mass"])
    grid = _build_grid(p)
    wf = _build_packet(p, grid, params)
    polar = decompose(wf, params, p["node_epsilon"])
    qp = quantum_potential(polar, params)
    return {
        "polar.csv": lambda path: polar_to_csv(polar, path),
        "quantum_potential.csv": lambda path: quantum_potential_to_csv(qp, path),
    }


def _run_universes(p):
    params = PhysicalParams(p["hbar"], p["mass"])
    grid = _build_grid(p)
    wf0 = _build_packet(p, grid, params)
    record = evolve_schrodinger(
        wf0, free_potential(grid), params, p["dt"], p["n_steps"], p["snapshot_stride"]
    )
    polar0 = record_polars(record, params, p["node_epsilon"])[0]
    m = p["n_trajectories"]
    starts = stratified_positions(polar0, m)
    ends = transport_interval(grid, (p["interval_a"], p["interval_b"]))
    # one integration for the ensemble and the interval's endpoints; the rows are views
    run = integrate_universes(record, np.concatenate((starts, ends)), params, p["node_epsilon"])
    ensemble = TrajectoryEnsemble(run.times, run.positions[:m], run.kind, frozen_at=run.frozen_at[:m])
    report = density_transport_check(record, ensemble, run.positions[m:], params, p["node_epsilon"])
    expected = np.full(report.times.size, report.expected)
    transport = (report.times, report.fractions, expected, report.deviations)
    return {
        "trajectories.csv": lambda path: trajectories_to_csv(ensemble, path),
        "transport.csv": lambda path: write_csv(path, "t,fraction,expected,deviation", [transport]),
    }


def _run_caustic(p):
    params = PhysicalParams(p["hbar"], p["mass"])
    grid = _build_grid(p)
    if not (p["span"] < min(abs(grid.x_min), abs(grid.x_max))):
        raise ConfigError("parameter 'span' must fit inside the grid")
    positions = np.linspace(-p["span"], p["span"], p["n_trajectories"])
    velocities = -positions / p["focus_time"]
    n_steps = int(round(p["t_total"] / p["dt"]))
    record = classical_ensemble_evolve(
        positions, velocities, free_potential(grid), params, p["dt"], n_steps
    )
    payload = {
        "crossing_count": crossing_count(record.ensemble),
        "n_trajectories": p["n_trajectories"],
        "focus_time": p["focus_time"],
        "t_total": n_steps * p["dt"],
    }
    return {
        "classical.csv": lambda path: classical_to_csv(record, path),
        "caustic.json": lambda path: write_json(path, payload),
    }


def _run_spin_split(p):
    branches = singlet_branches(p["theta"])
    return {"branches.json": lambda path: branches_to_json(branches, path)}


def _run_branch_stats(p):
    tree = enumerate_branch_tree(p["N"], p["p"])
    payload = {
        "N": p["N"],
        "p": p["p"],
        "expected_frequency": expected_frequency(p["N"], p["p"]),
        "central_moments": {str(m): central_moment(m, p["N"], p["p"]) for m in (2, 3, 4)},
        "tree_frequency_mean": tree.frequency_mean(),
        "tree_variance": tree.frequency_central_moment(2),
    }
    return {
        "branch_tree.csv": lambda path: branch_tree_to_csv(tree, path),
        "moments.json": lambda path: write_json(path, payload),
    }


def _run_bell(p):
    thetas = np.linspace(0.0, math.pi, p["n_theta"])
    columns = (
        thetas,
        np.array([correlation(t) for t in thetas.tolist()]),
        np.array([branch_correlation(t) for t in thetas.tolist()]),
    )

    a, ap, b, bp = p["angles"]
    s = chsh(a, ap, b, bp)
    payload = {
        "angles": {"a": a, "a_prime": ap, "b": b, "b_prime": bp},
        "chsh": s,
        "abs_chsh": abs(s),
        "classical_max": classical_chsh_bound(),
    }
    return {
        "correlation.csv": lambda path: write_csv(path, "theta,closed_form,branch_sum", [columns]),
        "bell.json": lambda path: write_json(path, payload),
    }


def _run_convergence(p):
    rows = convergence_demo(p["N_values"], p["p"], p["seed"])
    return {"convergence.csv": lambda path: convergence_to_csv(rows, path)}


EXPERIMENTS = {
    "evolve": (
        _GRID + _PHYSICS + _PACKET + [
            Param("potential", "str", check=lambda v: v in ("free", "harmonic"),
                  note="'free' or 'harmonic'"),
            Param("omega", "float", required=False, check=lambda v: v > 0, note="omega > 0"),
            Param("dt", "float", check=lambda v: v > 0, note="dt > 0"),
            Param("n_steps", "int", check=lambda v: v >= 0, note="n_steps >= 0"),
            Param("snapshot_stride", "int", required=False,
                  check=lambda v: v >= 1, note="snapshot_stride >= 1"),
        ],
        _run_evolve,
    ),
    "decompose": (_GRID + _PHYSICS + _PACKET + [_NODE_EPS], _run_decompose),
    "universes": (
        _GRID + _PHYSICS + _PACKET + [
            Param("dt", "float", check=lambda v: v > 0, note="dt > 0"),
            Param("n_steps", "int", check=lambda v: v >= 1, note="n_steps >= 1"),
            Param("snapshot_stride", "int", required=False,
                  check=lambda v: v >= 1, note="snapshot_stride >= 1"),
            Param("n_trajectories", "int", check=lambda v: v >= 1, note="n_trajectories >= 1"),
            Param("interval_a", "float"),
            Param("interval_b", "float"),
            _NODE_EPS,
        ],
        _run_universes,
    ),
    "caustic": (
        _GRID + _PHYSICS + [
            Param("n_trajectories", "int", check=lambda v: v >= 2, note="n_trajectories >= 2"),
            Param("span", "float", check=lambda v: v > 0, note="span > 0"),
            Param("focus_time", "float", check=lambda v: v > 0, note="focus_time > 0"),
            Param("t_total", "float", check=lambda v: v > 0, note="t_total > 0"),
            Param("dt", "float", check=lambda v: v > 0, note="dt > 0"),
        ],
        _run_caustic,
    ),
    "spin_split": (
        [Param("theta", "float", check=lambda v: 0 <= v <= math.pi, note="0 <= theta <= pi")],
        _run_spin_split,
    ),
    "branch_stats": (
        [
            Param("N", "int", check=lambda v: v >= 1, note="N >= 1"),
            Param("p", "float", check=lambda v: 0 <= v <= 1, note="0 <= p <= 1"),
        ],
        _run_branch_stats,
    ),
    "bell": (
        [
            Param("angles", "float_list", check=lambda v: len(v) == 4,
                  note="exactly 4 analyzer angles"),
            Param("n_theta", "int", check=lambda v: v >= 2, note="n_theta >= 2"),
        ],
        _run_bell,
    ),
    "convergence": (
        [
            Param("N_values", "int_list",
                  check=lambda v: all(n >= 1 for n in v) and all(b > a for a, b in zip(v, v[1:])),
                  note="increasing integers >= 1"),
            Param("p", "float", check=lambda v: 0 <= v <= 1, note="0 <= p <= 1"),
            Param("seed", "int", check=lambda v: v >= 0, note="seed >= 0"),
        ],
        _run_convergence,
    ),
}


def _estimated_bytes(experiment: str, p: dict) -> int:
    """The bytes of a run's largest arrays, from its validated parameters alone.

    A wave snapshot is 16 B per grid point (decompose and caustic hold one
    grid's worth), a trajectory table 8 B per trajectory per recorded time
    (caustic records positions and velocities at every step), a sampled
    column 8 B per value.
    """
    n_bytes = 0
    if "n_points" in p:
        snapshots = 1
        if "n_steps" in p:  # evolve, universes: one per stride, else the default cap
            n_steps, stride = p["n_steps"], p["snapshot_stride"]
            snapshots = (n_steps // stride if stride else min(n_steps, MAX_DEFAULT_SNAPSHOTS)) + 1
        n_bytes += 16 * p["n_points"] * snapshots
        if experiment == "universes":
            n_bytes += 8 * p["n_trajectories"] * snapshots
    if experiment == "caustic":
        steps = p["t_total"] / p["dt"]
        times = round(steps) + 1 if steps < MAX_RUN_BYTES else MAX_RUN_BYTES  # inf and nan too
        n_bytes += 2 * 8 * p["n_trajectories"] * times
    elif experiment == "bell":
        n_bytes += 3 * 8 * p["n_theta"]
    elif experiment == "convergence":
        n_bytes += 8 * max(p["N_values"])
    return n_bytes


def _sha256(path: Path) -> str:
    """Hex digest of a file, read in 1 MiB chunks so no output is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _versions() -> dict:
    return {
        "mvlab": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "scipy": scipy.__version__,
    }


def run(config: ExperimentConfig, out_dir=".", quiet: bool = False) -> int:
    """Execute one experiment; returns the process exit status."""
    if config.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {config.experiment!r}", file=sys.stderr)
        return EXIT_CONFIG
    schema, pipeline = EXPERIMENTS[config.experiment]
    started = time.perf_counter()
    try:
        parameters = _validate(schema, config.parameters, config.experiment)
        n_bytes = _estimated_bytes(config.experiment, parameters)
        if n_bytes > MAX_RUN_BYTES:
            raise CapacityError(
                f"the run needs about {n_bytes >> 20} MiB of arrays, "
                f"over the {MAX_RUN_BYTES >> 20} MiB cap; reduce its size parameters"
            )
        outputs = pipeline(parameters)
    except (ConfigError, DomainError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"error: numerical guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as exc:  # an overflow no validator anticipated
        print(f"error: arithmetic failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GUARD

    out_path = Path(out_dir)
    manifest = {
        "experiment": config.experiment,
        "parameters": parameters,
        "status": "ok",
        "versions": _versions(),
        "outputs": {},
    }
    try:
        out_path.mkdir(parents=True, exist_ok=True)
        for name, writer in outputs.items():
            writer(out_path / name)
            manifest["outputs"][name] = _sha256(out_path / name)
        manifest["wall_time_s"] = time.perf_counter() - started
        write_json(out_path / "manifest.json", manifest)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        manifest["status"] = "failed"
        manifest["error"] = str(exc)
        manifest["wall_time_s"] = time.perf_counter() - started
        try:
            write_json(out_path / "manifest.json", manifest)
        except OSError:
            pass
        return EXIT_IO
    if not quiet:
        names = ", ".join(list(outputs) + ["manifest.json"])
        print(f"{config.experiment}: wrote {names} to {out_path}")
    return EXIT_OK


def _parse_set(entries) -> dict:
    overrides = {}
    for entry in entries or []:
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {entry!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvlab",
        description="Run one experiment from a JSON config and emit CSV/JSON artifacts.",
    )
    parser.add_argument("experiment", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    parser.add_argument("--config", required=True, help="path to a JSON parameter file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config parameter (value parsed as JSON)")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    if args.experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {args.experiment!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(raw, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG

    parameters = dict(raw)
    declared = parameters.pop("experiment", None)
    if declared is not None and declared != args.experiment:
        print(
            f"error: config declares experiment {declared!r} but {args.experiment!r} was requested",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    try:
        parameters.update(_parse_set(args.set))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        schema, _ = EXPERIMENTS[args.experiment]
        if not any(p.name == "seed" for p in schema):
            print(
                f"error: experiment {args.experiment!r} does not accept parameter 'seed'",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        parameters["seed"] = args.seed

    config = ExperimentConfig(args.experiment, parameters)
    return run(config, out_dir=args.out_dir, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
