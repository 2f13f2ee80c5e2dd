"""mvlab benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
    cli_configs       the eight configs/*.json through `python -m mvlab.cli`,
                      outputs byte-compared with golden/
    universes_scaled  the universes CLI at n_points=2048, 2000 steps,
                      501 snapshots, 1000 trajectories
    hydro_residuals   criterion-1 evolution plus residual pair, periodic
                      (split-step) and dirichlet (Crank-Nicolson)
    branch_exact      exact moment scaling, 2^16-branch tree CSV, sampled
                      convergence

--trace 0 runs the workload untraced in fresh child processes, one at a time
(a closed loop with one client), for about S seconds, and reports setup_s,
wall_rel, cpu_rel and peak_rss_mb. wall_rel and cpu_rel are the median
iteration time over the median time of the reference work (reference.py)
timed alongside each iteration, so the host's drift in speed cancels; the
raw wall_s and cpu_s are printed above the JSON line. --trace 1 runs every
workload once with spans around each call into an mvlab module and reports
the per-layer metrics, plus the tracing overhead of the named workload
(traced minus untraced wall time). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Outputs, child
logs, spans (JSON lines) and a full result record go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import checks
from tracer import read_jsonl, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli_configs", "universes_scaled", "hydro_residuals", "branch_exact")
CLI_WORKLOADS = ("cli_configs", "universes_scaled")
LAYERS = ("startup", "cli", "fields", "evolution", "madelung", "universes", "spins", "branchstats")
SETUP_PROBES = 5
REFERENCE_ROUNDS = 4  # rounds of reference work per iteration (see reference.py)
MIN_ITERS = 3
RUN_LIMIT_S = 170  # every child is killed by then, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure: nothing to report."""


def _full_mantissa(x: float) -> float:
    """x with its last mantissa bit set, so Fraction(x) has the full denominator."""
    return struct.unpack("<d", struct.pack("<q", struct.unpack("<q", struct.pack("<d", x))[0] | 1))[0]


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_configs":  # goldens pin these inputs, so the seed is unused
        return {"configs": sorted(p.stem for p in (ROOT / "configs").glob("*.json"))}
    if workload == "universes_scaled":
        x0, k0 = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 0.5)
        return {
            "x_min": -20.0, "x_max": 20.0, "n_points": 2048, "boundary": "periodic",
            "hbar": 1.0, "mass": 1.0, "x0": x0, "sigma": 1.0, "k0": k0,
            "dt": 0.001, "n_steps": 2000, "snapshot_stride": 4, "n_trajectories": 1000,
            "interval_a": x0 - 1.0, "interval_b": x0 + 1.0,
        }
    if workload == "hydro_residuals":
        return {
            "x_min": -16.0, "x_max": 16.0, "n_points": 2048, "boundaries": ["periodic", "dirichlet"],
            "x0": rng.uniform(-1.0, 1.0), "sigma": 1.0, "k0": rng.uniform(0.0, 0.5),
            "dt": 1e-4, "n_steps": 10000, "snapshot_stride": 25,
        }
    if workload == "branch_exact":
        # the exact engine's cost grows with the bit length of p's denominator:
        # a dyadic p such as 0.5 would make the moment leg ~50x cheaper
        p = _full_mantissa(rng.uniform(0.05, 0.95))
        return {
            "p": p, "p_denominator_bits": Fraction(p).denominator.bit_length(),
            "m_max": 4, "N_values": [25, 50, 100, 200, 300], "identity_N": 25, "tree_N": 16,
            "convergence_N": [1000, 10000, 100000, 1000000], "convergence_seed": rng.randrange(2**32),
        }
    raise ValueError(workload)


def environment() -> dict:
    cpu_model, caches = "unknown", {}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu_model = models[0] if models else cpu_model
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # the stamp is informational; a host without these files still gets measured
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "roofline": "none: the largest working array is one n=2048 complex128 snapshot (32 KiB), "
                    "far inside L2, so no kernel here is memory-bound",
    }


class Runner:
    """Starts children one at a time and reads each one's own resource usage."""

    def __init__(self, out: Path):
        self.out = out
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        self.serial = 0

    def child(self, args: list[str]) -> tuple[int, float, float, float]:
        """Run args to completion: (exit code, wall s, user+sys cpu s, peak RSS MiB)."""
        self.serial += 1
        with open(self.out / f"child{self.serial:03d}.log", "wb") as log:
            started = time.perf_counter()
            if started >= self.deadline:
                raise BenchError(f"the run exceeded its {RUN_LIMIT_S} s limit")
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(self.deadline - started, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.perf_counter() >= self.deadline:
            raise BenchError(f"a child was still running at the {RUN_LIMIT_S} s limit")
        # ru_maxrss is in KiB on Linux and covers this child alone, plus its
        # parent's RSS at the fork: keep this process small
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def reference(self, rounds: int) -> tuple[float, float]:
        """A reference child (reference.py), timed like a CLI process: (wall s, cpu s)."""
        code, wall, cpu, _ = self.child([sys.executable, str(BENCH / "reference.py"), str(rounds)])
        if code:
            raise BenchError(f"the reference child exited with code {code}; see the child logs")
        return wall, cpu

    def spec(self, **fields) -> list[str]:
        """Write a child spec and return the command that runs it."""
        self.serial += 1
        path = self.out / f"spec{self.serial:03d}.json"
        fields.update(root=str(ROOT), result=str(path.with_suffix(".result.json")))
        path.write_text(json.dumps(fields))
        return [sys.executable, str(BENCH / "child.py"), str(path)]

    @staticmethod
    def result(command: list[str]) -> dict:
        path = Path(command[-1]).with_suffix(".result.json")
        if not path.is_file():
            raise BenchError(f"child wrote no result ({path.name}); see the child logs")
        return json.loads(path.read_text())


def cli_commands(workload: str, inputs: dict, out: Path) -> list[tuple[str, list[str], Path]]:
    """(name, mvlab argv, output dir) for each CLI process of one iteration."""
    if workload == "cli_configs":
        return [
            (name, [name, "--config", str(ROOT / "configs" / f"{name}.json")], out / name)
            for name in inputs["configs"]
        ]
    config = out / "universes_scaled.json"
    config.write_text(json.dumps({"experiment": "universes", **inputs}, indent=2))
    return [("universes", ["universes", "--config", str(config)], out / "universes")]


def cli_problems(workload: str, inputs: dict, name: str, out_dir: Path, digests) -> list[str]:
    if workload == "cli_configs":
        return checks.golden_problems(out_dir, ROOT / "golden" / name)
    snapshots = inputs["n_steps"] // inputs["snapshot_stride"] + 1
    problems = checks.universes_problems(out_dir, inputs["n_trajectories"], snapshots)
    files = {n: checks.sha256(out_dir / n) for n in ("trajectories.csv", "transport.csv")
             if (out_dir / n).is_file()}
    return problems + digests.problems(files)


def cli_iteration(runner, workload, inputs, out, digests, traced=False) -> dict:
    """One pass of a CLI workload; each process is timed from spawn to reap.

    In an untraced pass, reference children bracket the processes: one before
    the first and one after every `every`-th process. That is 2 children of 2
    rounds around the one universes_scaled process, and 5 children of 1 round
    among the 8 cli_configs processes. A nonzero exit or a failed output check
    fails that process's operation.
    A traced pass runs child.py in cli mode in place of `python -m mvlab.cli`
    and subtracts the time it spends on probes after mvlab.cli.main returns.
    """
    it = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "ops": 0, "failed": 0,
          "problems": [], "spans": [], "counts": {}, "reference": []}
    out.mkdir(parents=True, exist_ok=True)
    commands = cli_commands(workload, inputs, out)
    every = -(-len(commands) // REFERENCE_ROUNDS)  # processes between reference children
    rounds = max(1, REFERENCE_ROUNDS // (1 + -(-len(commands) // every)))
    if not traced:
        it["reference"].append(runner.reference(rounds))
    for index, (name, argv, out_dir) in enumerate(commands, 1):
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = argv + ["--out-dir", str(out_dir), "--quiet"]
        if traced:
            spans_path = out / f"{name}.spans.jsonl"
            command = runner.spec(mode="cli", argv=argv, spans=str(spans_path), run_id=f"{workload}/{name}")
        else:
            command = [sys.executable, "-m", "mvlab.cli"] + argv
        code, wall, cpu, rss = runner.child(command)
        found = [f"{name}: exit code {code}"] if code else []
        if traced and not code:
            extra = runner.result(command)
            wall -= extra["probe_s"]
            it["spans"].append(read_jsonl(spans_path))
            it["counts"] = extra["counts"]
            if extra["exit"]:
                found.append(f"{name}: mvlab exit code {extra['exit']}")
            if extra.get("crossing_count", 0):
                found.append(f"{name}: crossing_count {extra['crossing_count']}")
        if not found:
            found = cli_problems(workload, inputs, name, out_dir, digests)
        it["ops"] += 1
        it["failed"] += bool(found)
        it["problems"] += found
        it["wall_s"] += wall
        it["cpu_s"] += cpu
        it["rss_mb"] = max(it["rss_mb"], rss)
        if not traced and (index % every == 0 or index == len(commands)):
            it["reference"].append(runner.reference(rounds))
    return it


def leg_problems(workload: str, inputs: dict, name: str, leg: dict, digests) -> list[str]:
    if "error" in leg:
        return [f"{name}: {leg['error']}"]
    values = leg["values"]
    if workload == "hydro_residuals":
        return [f"{name}: {p}" for p in checks.residual_problems(values)]
    if name == "moment_scaling_report":
        return checks.moment_problems(values)
    if name == "branch_tree":
        return (checks.branch_tree_problems(values["file"], inputs["tree_N"], inputs["p"])
                + digests.problems({"branch_tree.csv": values["sha256"]}))
    return checks.convergence_problems(values["rows"], inputs["convergence_N"], inputs["p"])


def library_iteration(runner, workload, inputs, out, digests, traced=False) -> dict:
    """One iteration of a library workload in a fresh child, timed after its imports.

    Each leg is one operation; an exception or a failed output check fails it.
    """
    out.mkdir(parents=True, exist_ok=True)
    spans_path = out / "spans.jsonl"
    command = runner.spec(mode="library", workload=workload, inputs=inputs, out_dir=str(out),
                          reference_rounds=0 if traced else REFERENCE_ROUNDS,
                          trace=traced, spans=str(spans_path), run_id=workload)
    code, _, _, rss = runner.child(command)
    if code:
        raise BenchError(f"{workload} child exited with code {code}; see the child logs")
    it = runner.result(command)
    found = [leg_problems(workload, inputs, name, leg, digests) for name, leg in it["legs"].items()]
    it.update(rss_mb=rss, ops=len(found), failed=sum(1 for f in found if f),
              problems=[p for f in found for p in f], spans=[read_jsonl(spans_path)] if traced else [])
    return it


def untraced(runner, workload, inputs, out, seconds) -> tuple[dict, dict, list[dict]]:
    """End-to-end metrics: set-up probes, then iterations until about `seconds` passed.

    Returns the end-to-end metrics, the raw times behind them, and the iterations.
    """
    started = time.perf_counter()
    cli = workload in CLI_WORKLOADS
    module = "mvlab.cli" if cli else "mvlab"
    setups = []
    for _ in range(SETUP_PROBES + 1):  # the first, unrecorded, may compile bytecode
        code, wall, _, _ = runner.child([sys.executable, "-c", f"import {module}"])
        if code:
            raise BenchError(f"a fresh interpreter could not import {module} (exit code {code})")
        setups.append(wall)
    setups = setups[1:]
    iteration = cli_iteration if cli else library_iteration
    digests = checks.RepeatDigests()
    iterations, spent = [], []
    while len(iterations) < MIN_ITERS or time.perf_counter() - started + statistics.median(spent) <= seconds:
        began = time.perf_counter()
        iterations.append(iteration(runner, workload, inputs, out / "work", digests))
        spent.append(time.perf_counter() - began)
    n = len(iterations)
    # the reference of one iteration: its reference children, or its in-child rounds, summed
    refs = [[sum(r[0] for r in i["reference"]), sum(r[1] for r in i["reference"])] for i in iterations]
    where = "whole mvlab.cli processes" if cli else "timed in the child after imports"
    samples = {
        "setup_s": ("s", setups, f"median of {SETUP_PROBES} fresh interpreters running `import {module}`"),
        # each iteration over the reference timed around it, so the host's drift cancels
        "wall_rel": ("ref", [i["wall_s"] / r[0] for i, r in zip(iterations, refs)],
                     f"median of {n} iterations, wall_s over its reference_wall_s"),
        "cpu_rel": ("ref", [i["cpu_s"] / r[1] for i, r in zip(iterations, refs)],
                    f"median of {n} iterations, cpu_s over its reference_cpu_s"),
        "peak_rss_mb": ("MiB", [i["rss_mb"] for i in iterations], f"median of {n} iterations"),
        "wall_s": ("s", [i["wall_s"] for i in iterations], f"median of {n} iterations, {where}"),
        "cpu_s": ("s", [i["cpu_s"] for i in iterations], f"median of {n} iterations, user+sys"),
        "reference_wall_s": ("s", [r[0] for r in refs], f"median of {n} iterations' reference work"),
        "reference_cpu_s": ("s", [r[1] for r in refs], f"median of {n} iterations' reference work"),
    }
    measured = {name: (statistics.median(values), unit, note, values)
                for name, (unit, values, note) in samples.items()}
    metrics = {name: measured.pop(name) for name in ("setup_s", "wall_rel", "cpu_rel", "peak_rss_mb")}
    return metrics, measured, iterations


def _under_probe(spans: list[dict]) -> set[int]:
    """Ids of probe spans and their descendants (a parent precedes its children)."""
    marked: set[int] = set()
    for s in spans:
        if s["name"].startswith("probe.") or s["parent"] in marked:
            marked.add(s["id"])
    return marked


def _durations(span_sets: list[list[dict]], name: str, parent: str | None = None) -> list[float]:
    out = []
    for spans in span_sets:
        names = {s["id"]: s["name"] for s in spans}
        out += [s["end"] - s["start"] for s in spans
                if s["name"] == name and (parent is None or names.get(s["parent"]) == parent)]
    return out


def _layer_self(span_sets: list[list[dict]]) -> dict[str, float]:
    """Self time per layer, summed over children; probes are excluded."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for spans in span_sets:
        own = self_times(spans)
        skip = _under_probe(spans)
        for s in spans:
            layer = s["name"].split(".", 1)[0]
            if layer in totals and s["id"] not in skip:
                totals[layer] += own[s["id"]]
    return totals


# the layers each workload calls into, for the per-workload self-time metrics
SELF_LAYERS = {
    "cli_configs": ("startup", "cli", "fields", "evolution", "madelung", "universes", "spins", "branchstats"),
    "universes_scaled": ("startup", "cli", "fields", "evolution", "madelung", "universes"),
    "hydro_residuals": ("fields", "evolution", "madelung"),
    "branch_exact": ("branchstats",),
}


def layer_metrics(passes: dict, inputs: dict, out: Path) -> dict:
    """Per-layer metrics from the traced pass of every workload: name -> (value, unit, note)."""
    m = {}
    spans = {wl: passes[wl]["spans"] for wl in WORKLOADS}
    cli = spans["cli_configs"]
    for part in ("numpy", "scipy", "mvlab"):
        m[f"startup.{part}_s"] = (statistics.median(_durations(cli, f"startup.{part}")), "s",
                                  f"median of {len(cli)} cli processes, cumulative import order")
    runs = _durations(cli, "cli.run")
    m["cli.run_s"] = (sum(runs) / len(runs), "s", f"mean over {len(runs)} configs, imports warm")

    uni, ui = spans["universes_scaled"], inputs["universes_scaled"]
    snapshots = ui["n_steps"] // ui["snapshot_stride"] + 1
    for fn in ("integrate_universes", "density_transport_check", "crossing_count", "stratified_positions"):
        m[f"universes.{fn}_s"] = (sum(_durations(uni, f"universes.{fn}")), "s", "universes_scaled")
    csv_s = sum(_durations(uni, "universes.trajectories_to_csv"))
    rows = ui["n_trajectories"] * snapshots
    m["universes.trajectories_to_csv_s"] = (csv_s, "s", f"{rows} rows")
    m["universes.trajectories_to_csv.rows_per_s"] = (rows / csv_s, "1/s", f"{rows} rows")
    size = (out / "universes_scaled" / "universes" / "trajectories.csv").stat().st_size
    m["universes.trajectories_to_csv.bytes"] = (size, "B", "trajectories.csv")
    calls = passes["universes_scaled"]["counts"].get("madelung.decompose", 0)
    m["madelung.decompose.calls_per_snapshot"] = (calls / snapshots, "count", f"{calls} calls / {snapshots} snapshots")

    hyd, hi = spans["hydro_residuals"], inputs["hydro_residuals"]
    for boundary, scheme in (("periodic", "split_step"), ("dirichlet", "crank_nicolson")):
        evolve = sum(_durations(hyd, "evolution.evolve_schrodinger", parent=f"leg.{boundary}"))
        m[f"evolution.{scheme}.us_per_step"] = (evolve / hi["n_steps"] * 1e6, "us",
                                                f"{boundary} grid, n={hi['n_points']}, snapshot copies included")
    legs = len(hi["boundaries"])
    m["evolution.steps"] = (hi["n_steps"] * legs, "count", "hydro_residuals")
    m["evolution.snapshots"] = ((hi["n_steps"] // hi["snapshot_stride"] + 1) * legs, "count", "hydro_residuals")
    probe = _durations(hyd, "madelung.decompose", parent="probe.decompose")
    m["madelung.decompose.us_per_call"] = (sum(probe) / len(probe) * 1e6, "us",
                                           f"probe over the {len(probe)} snapshots of the periodic record")
    for fn in ("continuity_residual", "hamilton_jacobi_residual"):
        m[f"madelung.{fn}_s"] = (sum(_durations(hyd, f"madelung.{fn}")), "s", "both grids")

    br, bi = spans["branch_exact"], inputs["branch_exact"]
    for fn in ("moment_scaling_report", "enumerate_branch_tree", "convergence_demo", "branch_tree_to_csv"):
        m[f"branchstats.{fn}_s"] = (sum(_durations(br, f"branchstats.{fn}")), "s",
                                    f"p denominator {bi['p_denominator_bits']} bits")
    tree_rows = 2 ** bi["tree_N"]
    m["branchstats.branch_tree_to_csv.rows_per_s"] = (
        tree_rows / m["branchstats.branch_tree_to_csv_s"][0], "1/s", f"{tree_rows} rows")
    size = (out / "branch_exact" / "branch_tree.csv").stat().st_size
    m["branchstats.branch_tree_to_csv.bytes"] = (size, "B", "branch_tree.csv")

    for workload, layers in SELF_LAYERS.items():
        totals = _layer_self(spans[workload])
        for layer in layers:
            m[f"self.{workload}.{layer}_s"] = (totals[layer], "s", "span time minus child spans")
    return m


def traced(runner, workload, inputs_all, out) -> tuple[dict, list[dict]]:
    """Every workload once with spans (per-layer metrics are each defined on
    one workload), then the named workload once untraced for the overhead."""
    passes = {}
    for wl in WORKLOADS:
        iteration = cli_iteration if wl in CLI_WORKLOADS else library_iteration
        passes[wl] = iteration(runner, wl, inputs_all[wl], out / wl, checks.RepeatDigests(), traced=True)
    iteration = cli_iteration if workload in CLI_WORKLOADS else library_iteration
    base = iteration(runner, workload, inputs_all[workload], out / f"{workload}-untraced", checks.RepeatDigests())
    runs = list(passes.values()) + [base]
    if any(r["failed"] for r in runs):
        raise BenchError("output checks failed: " + "; ".join(q for r in runs for q in r["problems"][:3]))
    with open(out / "spans.jsonl", "w") as fh:
        for r in passes.values():
            for span_set in r["spans"]:
                for s in span_set:
                    fh.write(json.dumps(s) + "\n")
    metrics = layer_metrics(passes, inputs_all, out)
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics["fail_ratio"] = (failed / attempted, "ratio", f"{failed} of {attempted} operations")
    recorded = sum(len(span_set) for r in passes.values() for span_set in r["spans"])
    metrics["trace.spans"] = (recorded, "count", "spans recorded over the four workloads")
    metrics["wall_s"] = (base["wall_s"], "s", f"{workload}: one untraced iteration")
    metrics["cpu_s"] = (base["cpu_s"], "s", f"{workload}: one untraced iteration, user+sys")
    walls = passes[workload]["wall_s"], base["wall_s"]
    metrics["trace.overhead_s"] = (walls[0] - walls[1], "s", f"{workload}: traced {walls[0]:.4f} s minus "
                                                             f"untraced {walls[1]:.4f} s, one iteration each")
    return metrics, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "mvlab" / "__init__.py", ROOT / "configs", ROOT / "golden"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from an mvlab checkout", file=sys.stderr)
            return 2
    out = ROOT / ".bench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(out)
    try:
        if args.trace:
            inputs = {wl: make_inputs(wl, args.seed) for wl in WORKLOADS}
            metrics, passes = traced(runner, args.workload, inputs, out)
            extra = {}
        else:
            inputs = {args.workload: make_inputs(args.workload, args.seed)}
            metrics, extra, passes = untraced(runner, args.workload, inputs[args.workload], out, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": inputs, "environment": environment(),
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": [q for p in passes for q in p["problems"]],
        "metrics": {name: {"value": m[0], "unit": m[1], "note": m[2], **({"samples": m[3]} if len(m) > 3 else {})}
                    for name, m in {**metrics, **extra}.items()},
    }
    (out / "result.json").write_text(json.dumps(record, indent=2))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("inputs " + json.dumps(inputs))
    print("environment " + json.dumps(record["environment"]))
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, m in {**metrics, **extra}.items():
        print(f"{name:48s} {m[0]:>14.6g} {m[1]:6s} {m[2]}")
    if "fail_ratio" not in metrics:
        print(f"{'fail_ratio':48s} {failed / attempted:>14.6g} ratio  {failed} of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
