"""Benchmark child process: runs one workload in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC names the mode, workload, generated inputs, output directory and
whether to trace, plus the path where this process writes its result as
JSON. run.py starts one child at a time and reads its resource
usage with os.wait4.

Modes:
  library  run one iteration of a library workload (hydro_residuals,
           branch_exact), timed after the imports; a traced run records a
           span per call into an mvlab module. An untraced one also times
           rounds of the reference work (reference.py) just before and
           just after its timed body.
  cli      traced stand-in for `python -m mvlab.cli`: time the imports as
           start-up spans, then call mvlab.cli.main with every mvlab
           function bound in the cli namespace recorded as a span.

Only the standard library is imported at module level, so the import spans
of the cli mode see a cold interpreter.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

import reference
from tracer import NullTracer, TracedModule, Tracer, patched

LAYERS = ("fields", "evolution", "madelung", "universes", "spins", "branchstats")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _check_source(module, root: str) -> None:
    """Refuse to measure an mvlab that is not the one in this checkout."""
    src = Path(root, "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"mvlab imported from {module.__file__}, not from {src}")


class Api:
    """The mvlab modules as the workload code sees them: plain or traced."""

    def __init__(self, tracer):
        import mvlab.branchstats
        import mvlab.evolution
        import mvlab.fields
        import mvlab.madelung

        self.tracer = tracer
        for layer in ("fields", "evolution", "madelung", "branchstats"):
            module = getattr(mvlab, layer)
            view = TracedModule(tracer, module, layer) if isinstance(tracer, Tracer) else module
            setattr(self, layer, view)


def _attempt(fn) -> dict:
    """Run one leg; an exception is recorded as the leg's failure."""
    try:
        return {"values": fn()}
    except Exception as exc:  # a failing leg is a measured outcome, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}


def hydro_residuals(api: Api, inputs: dict, out_dir: Path, state: dict) -> dict:
    """Criterion-1 base case on a periodic and a dirichlet grid, no output files."""
    params = api.fields.PhysicalParams()
    legs = {}
    for boundary in inputs["boundaries"]:

        def leg():
            grid = api.fields.SpatialGrid(inputs["x_min"], inputs["x_max"], inputs["n_points"], boundary)
            wf0 = api.fields.make_gaussian_packet(grid, inputs["x0"], inputs["sigma"], inputs["k0"], params)
            potential = api.fields.free_potential(grid)
            record = api.evolution.evolve_schrodinger(
                wf0, potential, params, inputs["dt"], inputs["n_steps"], inputs["snapshot_stride"]
            )
            if isinstance(api.tracer, Tracer):
                state[boundary] = (record, params)  # kept for the decompose probe
            return {
                "continuity": api.madelung.continuity_residual(record, params).relative,
                "hamilton_jacobi": api.madelung.hamilton_jacobi_residual(record, potential, params).relative,
            }

        with api.tracer.span(f"leg.{boundary}"):
            legs[boundary] = _attempt(leg)
    return legs


def branch_exact(api: Api, inputs: dict, out_dir: Path, state: dict) -> dict:
    """Exact moment scaling, a 2^16-branch tree written as CSV, sampled convergence."""
    p = inputs["p"]
    bs = api.branchstats

    def report():
        state["satisfied"] = bs.moment_scaling_report(inputs["m_max"], inputs["N_values"], p).satisfied
        return {}

    def tree():
        path = out_dir / "branch_tree.csv"
        bs.branch_tree_to_csv(bs.enumerate_branch_tree(inputs["tree_N"], p), path)
        return {"file": str(path)}

    def convergence():
        rows = bs.convergence_demo(inputs["convergence_N"], p, inputs["convergence_seed"])
        return {"rows": [[r.N, r.f, r.abs_err, r.variance] for r in rows]}

    legs = {}
    for name, fn in (("moment_scaling_report", report), ("branch_tree", tree), ("convergence_demo", convergence)):
        with api.tracer.span(f"leg.{name}"):
            legs[name] = _attempt(fn)
    return legs


def _verify_branch(legs: dict, inputs: dict, state: dict) -> None:
    """Untimed: fold the exact identities into the moment leg, hash the tree CSV."""
    from fractions import Fraction

    from mvlab.branchstats import central_moment_exact

    if "values" in legs["moment_scaling_report"]:
        p = Fraction(inputs["p"])
        n = inputs["identity_N"]
        legs["moment_scaling_report"] = _attempt(lambda: {
            "report.satisfied": state.get("satisfied"),
            f"central_moment_exact(1, {n}, p) == 0": central_moment_exact(1, n, inputs["p"]) == 0,
            f"central_moment_exact(2, {n}, p) == p*q/N": (
                central_moment_exact(2, n, inputs["p"]) == p * (1 - p) / n
            ),
        })
    tree = legs["branch_tree"]
    if "values" in tree:
        tree["values"]["sha256"] = hashlib.sha256(Path(tree["values"]["file"]).read_bytes()).hexdigest()


BODIES = {"hydro_residuals": hydro_residuals, "branch_exact": branch_exact}


def run_library(spec: dict) -> dict:
    import mvlab

    _check_source(mvlab, spec["root"])
    tracer = Tracer(spec["run_id"]) if spec["trace"] else NullTracer()
    api = Api(tracer)
    inputs = spec["inputs"]
    state: dict = {}
    rounds = reference.rounds(spec["reference_rounds"] // 2)  # the host's speed just before the body
    cpu0, t0 = _cpu_s(), time.perf_counter()
    legs = BODIES[spec["workload"]](api, inputs, Path(spec["out_dir"]), state)
    t1, cpu1 = time.perf_counter(), _cpu_s()
    rounds += reference.rounds(spec["reference_rounds"] // 2)  # and just after it
    if spec["workload"] == "branch_exact":
        _verify_branch(legs, inputs, state)
    result = {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "legs": legs, "reference": rounds}
    if spec["trace"]:
        if "periodic" in state:
            # decompose probe: every snapshot of the periodic record, one span each
            record, params = state["periodic"]
            with tracer.span("probe.decompose"):
                for wf in record.snapshots:
                    api.madelung.decompose(wf, params)
        tracer.write_jsonl(spec["spans"])
    return result


def run_cli(spec: dict) -> dict:
    tracer = Tracer(spec["run_id"])
    with tracer.span("startup.numpy"):
        import numpy  # noqa: F401
    with tracer.span("startup.scipy"):
        import scipy  # noqa: F401
    with tracer.span("startup.mvlab"):
        import mvlab.cli
    _check_source(mvlab, spec["root"])
    import mvlab.madelung
    import mvlab.universes

    cli = mvlab.cli
    modules = {f"mvlab.{layer}": layer for layer in LAYERS}
    counted = tracer.counting("madelung.decompose", mvlab.madelung.decompose)
    captured = {}

    def keep_ensemble(*args, **kwargs):
        captured["ensemble"] = mvlab.universes.integrate_universes(*args, **kwargs)
        return captured["ensemble"]

    bindings = {"run": tracer.wrap("cli.run", cli.run)}
    for name, value in vars(cli).items():
        if name.startswith("_") or not inspect.isfunction(value) or value.__module__ not in modules:
            continue
        fn = {"decompose": counted, "integrate_universes": keep_ensemble}.get(name, value)
        bindings[name] = tracer.wrap(f"{modules[value.__module__]}.{name}", fn)

    with patched(mvlab.madelung, {"decompose": counted}), \
            patched(mvlab.universes, {"decompose": counted}), patched(cli, bindings):
        with tracer.span("cli.main"):
            status = cli.main(spec["argv"])

    result = {"exit": status, "counts": dict(tracer.counts)}
    probe_started = time.perf_counter()
    if "ensemble" in captured:
        with tracer.span("probe.crossing_count"):
            result["crossing_count"] = TracedModule(tracer, mvlab.universes, "universes").crossing_count(
                captured["ensemble"]
            )
    tracer.write_jsonl(spec["spans"])
    result["probe_s"] = time.perf_counter() - probe_started
    return result


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    runner = run_cli if spec["mode"] == "cli" else run_library
    result = runner(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
