"""Command-line front end: validated experiment configs in, CSV/JSON out.

Each EXPERIMENTS entry holds one experiment's schema, size rule and pipeline.
Every run writes its declared outputs plus a manifest.json recording the
resolved configuration, library versions, wall time, and a sha256 checksum
per output file. All randomness flows through the single `seed` parameter;
reruns of an identical config reproduce every output byte for byte (the
manifest's wall-time field is the one legitimately volatile value).
Each pipeline computes all of its results before any file is opened; its
writers only format them, through the shared write_csv and write_json.

Exit codes: 0 success, 2 config validation failure, 3 numerical guard
(stability, capacity, or an arithmetic overflow that escaped validation: a
pipeline runs with numpy's floating-point errors raised), 4 I/O failure. A
run whose size rule puts its arrays over MAX_RUN_BYTES is refused with
exit 3 before any of them is allocated.

No run calls a threaded BLAS routine, so this module sets
OPENBLAS_NUM_THREADS to 1, unless it is already set, before numpy loads:
a CLI process starts no BLAS thread pool. `import mvlab` loads no module
(each public name is imported on first use), so `python -m mvlab.cli`
reaches that line first.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

# OpenBLAS reads this once, as numpy loads: here, not in main(), or the pool already exists
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

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
from .evolution import MAX_DEFAULT_SNAPSHOTS, evolution_to_csv, evolve_schrodinger
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
    DEFAULT_NODE_EPSILON, decompose, polar_to_csv, quantum_potential, quantum_potential_to_csv,
    record_polars,
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
    classical_ensemble_evolve,
    classical_to_csv,
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

MAX_RUN_BYTES = 1 << 30  # a run whose Experiment.size exceeds this exits 3


class ConfigError(MvLabError):
    """Configuration rejected before any computation ran."""


class Param:
    """One schema entry: name, JSON kind, optional range check."""

    def __init__(self, name, kind, required=True, default=None, check=None, note=""):
        self.name = name
        self.kind = kind  # int | float | str | int_list | float_list
        self.required = required
        self.default = default
        self.check = check
        self.note = note


class _LongInteger:
    """An integer literal too long for int(), kept by _read_json so _coerce refuses it by name."""

    def __init__(self, literal: str):
        self.digits = len(literal.lstrip("-"))

    def __repr__(self):
        return f"an integer literal of {self.digits} digits"


def _read_json(text: str, source: str):
    """json.loads, with each integer literal too long for int() kept as a _LongInteger.

    Nesting past the parser's recursion limit is refused as a ConfigError naming source.
    """

    def parse_int(literal: str):
        try:
            return int(literal)
        except ValueError:  # past sys.get_int_max_str_digits()
            return _LongInteger(literal)

    try:
        return json.loads(text, parse_int=parse_int)
    except RecursionError:
        raise ConfigError(f"{source} nests JSON past the parser's recursion limit") from None


def _shown(value) -> str:
    """repr(value) for an error line, cut to 200 characters plus '...': the line stays short."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _number(param: Param, value, integer: bool):
    """One value of an int or float parameter (or list entry); a float must be finite."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        noun = "integers" if integer else "numbers"
        raise ConfigError(f"parameter {param.name!r} takes {noun}, got {_shown(value)}")
    if integer:
        return value
    try:
        number = float(value)
    except OverflowError:  # an int past float range
        raise ConfigError(f"parameter {param.name!r} is past float range (about 1.8e308)") from None
    if not math.isfinite(number):  # JSON's NaN, Infinity and literals such as 1e400
        raise ConfigError(f"parameter {param.name!r} is not finite, got {number!r}")
    return number


def _coerce(param: Param, value):
    kind = param.kind
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"parameter {param.name!r} must be a string, got {_shown(value)}")
        return value
    if kind in ("int_list", "float_list"):
        if not isinstance(value, (list, tuple)) or len(value) == 0:
            raise ConfigError(f"parameter {param.name!r} must be a nonempty list, got {_shown(value)}")
        return [_number(param, item, kind == "int_list") for item in value]
    return _number(param, value, kind == "int")


def _validate(schema: list[Param], raw: dict, experiment: str) -> dict:
    by_name = {p.name: p for p in schema}
    for key in raw:
        if key not in by_name:
            raise ConfigError(f"unknown parameter {_shown(key)} for experiment {experiment!r}")
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
                f"parameter {param.name!r} out of range: {_shown(value)} (expected {param.note})"
            )
        out[param.name] = value
    return out


# A range rule lives in the library object that owns the number; a `check` here covers only
# a value that no library call refuses, or refuses only after the costly part of the run.
_GRID = [Param("x_min", "float"), Param("x_max", "float"), Param("n_points", "int"),
         Param("boundary", "str")]
_PHYSICS = [Param("hbar", "float"), Param("mass", "float")]
_PACKET = [Param("x0", "float"), Param("sigma", "float"), Param("k0", "float")]
_NODE_EPS = Param(  # a universes run decomposes, so refuses it, only after the whole evolution
    "node_epsilon", "float", required=False, default=DEFAULT_NODE_EPSILON,
    check=lambda v: 0 < v <= 0.1, note="0 < node_epsilon <= 0.1",
)


def _wave_setup(p):
    """A wave run's constants and grid, validated in that order."""
    params = PhysicalParams(p["hbar"], p["mass"])
    return params, SpatialGrid(p["x_min"], p["x_max"], p["n_points"], p["boundary"])


def _build_potential(p, grid, params):
    if p["potential"] == "harmonic":
        if p.get("omega") is None:
            raise ConfigError("parameter 'omega' is required when potential='harmonic'")
        return harmonic_potential(grid, p["omega"], params)
    return free_potential(grid)


def _run_evolve(p):
    params, grid = _wave_setup(p)
    wf0 = make_gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], params)
    potential = _build_potential(p, grid, params)
    record = evolve_schrodinger(wf0, potential, params, p["dt"], p["n_steps"], p["snapshot_stride"])
    return {"evolution.csv": lambda path: evolution_to_csv(record, path)}


def _run_decompose(p):
    params, grid = _wave_setup(p)
    wf = make_gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], params)
    polar = decompose(wf, params, p["node_epsilon"])
    qp = quantum_potential(polar, params)
    return {
        "polar.csv": lambda path: polar_to_csv(polar, path),
        "quantum_potential.csv": lambda path: quantum_potential_to_csv(qp, path),
    }


def _run_universes(p):
    params, grid = _wave_setup(p)
    ends = transport_interval(grid, (p["interval_a"], p["interval_b"]))
    wf0 = make_gaussian_packet(grid, p["x0"], p["sigma"], p["k0"], params)
    record = evolve_schrodinger(
        wf0, free_potential(grid), params, p["dt"], p["n_steps"], p["snapshot_stride"]
    )
    polar0 = record_polars(record, params, p["node_epsilon"])[0]
    m = p["n_trajectories"]
    starts = stratified_positions(polar0, m)
    # one integration for the ensemble and the interval's endpoints; the columns are views
    run = integrate_universes(record, np.concatenate((starts, ends)), params, p["node_epsilon"])
    ensemble = TrajectoryEnsemble(run.times, run.positions[:, :m], run.kind, run.stopped_at[:m])
    report = density_transport_check(record, ensemble, run.positions[:, m:], params, p["node_epsilon"])
    expected = np.full(report.times.size, report.expected)
    transport = (report.times, report.fractions, expected, report.deviations)
    return {
        "trajectories.csv": lambda path: trajectories_to_csv(ensemble, path),
        "transport.csv": lambda path: write_csv(path, "t,fraction,expected,deviation", [transport]),
    }


def _run_caustic(p):
    params, grid = _wave_setup(p)
    if not (p["span"] < min(abs(grid.x_min), abs(grid.x_max))):
        raise ConfigError("parameter 'span' must fit inside the grid")
    # checked in Python floats, which overflow to inf with no numpy warning; RK4 sums 6 velocities
    v_max = p["span"] / p["focus_time"]
    if not (math.isfinite(6.0 * v_max) and math.isfinite(p["span"] + v_max * p["t_total"])):
        raise ConfigError("parameters 'span', 'focus_time' and 't_total' take paths past float range")
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


class Experiment(NamedTuple):
    """One CLI experiment: its schema, its size rule and its pipeline.

    `size(p)` is the bytes of the run's largest arrays, from its validated parameters alone:
    a wave snapshot is 16 B per grid point and its polar decomposition 17 B (R, phi, node mask),
    a trajectory table 8 B per trajectory per recorded time, a sampled column 8 B per value.
    """
    schema: list[Param]
    size: Callable[[dict], int]
    run: Callable[[dict], dict]


def _snapshots(p):
    """An evolve or universes run's snapshots: one per stride, else the default cap."""
    n_steps, stride = p["n_steps"], p["snapshot_stride"]
    return (n_steps // stride if stride else min(n_steps, MAX_DEFAULT_SNAPSHOTS)) + 1


def _caustic_size(p):  # one grid, plus positions and velocities at every step
    steps = p["t_total"] / p["dt"]
    times = round(steps) + 1 if steps < MAX_RUN_BYTES else MAX_RUN_BYTES  # an inf ratio too
    return 16 * p["n_points"] + 2 * 8 * p["n_trajectories"] * times


EXPERIMENTS = {
    "evolve": Experiment(
        _GRID + _PHYSICS + _PACKET + [
            # _build_potential runs any other potential as free, and a free run never reads omega
            Param("potential", "str", check=lambda v: v in ("free", "harmonic"),
                  note="'free' or 'harmonic'"),
            Param("omega", "float", required=False, check=lambda v: v > 0, note="omega > 0"),
            Param("dt", "float"),
            Param("n_steps", "int"),
            Param("snapshot_stride", "int", required=False),
        ],
        lambda p: 16 * p["n_points"] * _snapshots(p), _run_evolve,
    ),
    "decompose": Experiment(
        _GRID + _PHYSICS + _PACKET + [_NODE_EPS], lambda p: 16 * p["n_points"], _run_decompose
    ),
    "universes": Experiment(
        _GRID + _PHYSICS + _PACKET + [
            Param("dt", "float"),
            # 0 steps would write a one-snapshot run; n_trajectories is refused after the evolution
            Param("n_steps", "int", check=lambda v: v >= 1, note="n_steps >= 1"),
            Param("snapshot_stride", "int", required=False),
            Param("n_trajectories", "int", check=lambda v: v >= 1, note="n_trajectories >= 1"),
            Param("interval_a", "float"),
            Param("interval_b", "float"),
            _NODE_EPS,
        ],
        lambda p: (33 * p["n_points"] + 8 * p["n_trajectories"]) * _snapshots(p), _run_universes,
    ),
    "caustic": Experiment(
        # _run_caustic makes arrays of these before any library rule; the size rule divides by dt
        _GRID + _PHYSICS + [
            Param("n_trajectories", "int", check=lambda v: v >= 2, note="n_trajectories >= 2"),
            Param("span", "float", check=lambda v: v > 0, note="span > 0"),
            Param("focus_time", "float", check=lambda v: v > 0, note="focus_time > 0"),
            Param("t_total", "float", check=lambda v: v > 0, note="t_total > 0"),
            Param("dt", "float", check=lambda v: v > 0, note="dt > 0"),
        ],
        _caustic_size, _run_caustic,
    ),
    "spin_split": Experiment([Param("theta", "float")], lambda p: 0, _run_spin_split),
    "branch_stats": Experiment([Param("N", "int"), Param("p", "float")], lambda p: 0,
                               _run_branch_stats),
    "bell": Experiment(
        # _run_bell itself unpacks four angles and spaces n_theta points
        [
            Param("angles", "float_list", check=lambda v: len(v) == 4,
                  note="exactly 4 analyzer angles"),
            Param("n_theta", "int", check=lambda v: v >= 2, note="n_theta >= 2"),
        ],
        lambda p: 3 * 8 * p["n_theta"], _run_bell,
    ),
    "convergence": Experiment(
        [
            Param("N_values", "int_list"),
            Param("p", "float"),
            # where --seed lands (main sets it): refused by its key before the run
            Param("seed", "int", check=lambda v: v >= 0, note="seed >= 0"),
        ],
        lambda p: 8 * max(p["N_values"]), _run_convergence,
    ),
}


def _sha256(path: Path) -> str:
    """Hex digest of a file, read in 1 MiB chunks so no output is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _scipy_version() -> str:
    """scipy's __version__, read from its version.py without importing scipy.

    Six of the eight experiments run no scipy code; importing scipy for this
    stamp alone cost each of their runs about 16 ms.
    """
    namespace = {}
    exec(Path(importlib.util.find_spec("scipy").origin).with_name("version.py").read_text(), namespace)
    return namespace["version"]


def _versions() -> dict:
    return {
        "mvlab": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "scipy": _scipy_version(),
    }


def run(experiment: str, parameters: dict, out_dir=".", quiet: bool = False) -> int:
    """Execute one experiment on its raw parameters; returns the process exit status."""
    if experiment not in EXPERIMENTS:
        print(f"error: unknown experiment {experiment!r}", file=sys.stderr)
        return EXIT_CONFIG
    entry = EXPERIMENTS[experiment]
    started = time.perf_counter()
    try:
        parameters = _validate(entry.schema, parameters, experiment)
        n_bytes = entry.size(parameters)
        if n_bytes > MAX_RUN_BYTES:
            raise CapacityError(
                f"the run needs about {n_bytes >> 20} MiB of arrays, "
                f"over the {MAX_RUN_BYTES >> 20} MiB cap; reduce its size parameters"
            )
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            outputs = entry.run(parameters)
    except (ConfigError, DomainError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"error: numerical guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as exc:  # an overflow no validator anticipated: numpy's raise here too
        print(f"error: arithmetic failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GUARD

    out_path = Path(out_dir)
    manifest = {
        "experiment": experiment,
        "parameters": parameters,
        "status": "ok",
        "versions": _versions(),
        "outputs": {},
    }
    try:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "manifest.json").unlink(missing_ok=True)  # never "ok" beside half-written outputs
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
        print(f"{experiment}: wrote {names} to {out_path}")
    return EXIT_OK


def _parse_set(entries) -> dict:
    overrides = {}
    for entry in entries or []:
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {_shown(entry)}")
        try:
            overrides[key] = _read_json(raw, f"--set {key}")
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
        parameters = _read_json(Path(args.config).read_text(encoding="utf-8"), "config")
        if not isinstance(parameters, dict):
            raise ConfigError("config must be a JSON object")
        declared = parameters.pop("experiment", None)
        if declared is not None and declared != args.experiment:
            raise ConfigError(
                f"config declares experiment {_shown(declared)} but {args.experiment!r} was requested")
        parameters.update(_parse_set(args.set))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:  # the same as --set seed=, validated with the rest
        parameters["seed"] = args.seed

    return run(args.experiment, parameters, out_dir=args.out_dir, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
