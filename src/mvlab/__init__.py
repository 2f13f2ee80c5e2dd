"""mvlab: a numerical laboratory for wavefunction hydrodynamics,
trajectory-ensemble transport, and measurement-branching statistics.

Importing the package loads none of its modules: each public name below
imports its module on first use (PEP 562), so `python -m mvlab.cli` runs
the CLI's first lines before numpy is loaded.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "branchstats": (
        "BranchSequence",
        "BranchTree",
        "central_moment",
        "central_moment_exact",
        "convergence_demo",
        "enumerate_branch_tree",
        "expected_frequency",
        "moment_scaling_report",
        "prob_r_given_N",
        "sample_observer_branch",
        "sequence_weight",
    ),
    "errors": (
        "CapacityError",
        "CommensurabilityError",
        "DomainError",
        "GuardError",
        "MvLabError",
        "ProtocolError",
        "ResolutionError",
        "StabilityError",
    ),
    "evolution": ("EvolutionRecord", "evolve_schrodinger"),
    "fields": (
        "GridWavefunction",
        "PhysicalParams",
        "PotentialField",
        "SpatialGrid",
        "free_potential",
        "harmonic_potential",
        "make_gaussian_packet",
        "make_plane_wave",
        "norm_squared",
        "normalize",
    ),
    "madelung": (
        "PolarField",
        "QuantumPotentialField",
        "continuity_residual",
        "decompose",
        "hamilton_jacobi_residual",
        "quantum_potential",
        "recompose",
        "universe_density",
    ),
    "spins": (
        "Branch",
        "Direction",
        "PointerLabel",
        "TwoSpinState",
        "aligned_probability",
        "apply_measurement",
        "chsh",
        "classical_chsh_bound",
        "correlation",
        "four_world_split",
        "rotate_second_basis",
        "singlet",
        "unset_pointers",
    ),
    "universes": (
        "ClassicalEnsembleRecord",
        "TrajectoryEnsemble",
        "classical_ensemble_evolve",
        "crossing_count",
        "density_transport_check",
        "integrate_universes",
        "stratified_positions",
        "transport_interval",
        "velocity_field",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines a public name, then keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
