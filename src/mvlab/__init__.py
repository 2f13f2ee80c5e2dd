"""mvlab: a numerical laboratory for wavefunction hydrodynamics,
trajectory-ensemble transport, and measurement-branching statistics."""

__version__ = "0.1.0"

from .branchstats import (
    BranchSequence,
    BranchTree,
    FrequencyMoments,
    central_moment,
    central_moment_exact,
    convergence_demo,
    enumerate_branch_tree,
    expected_frequency,
    frequency_moments,
    moment_scaling_report,
    prob_r_given_N,
    sample_observer_branch,
    sequence_weight,
)
from .errors import (
    CapacityError,
    CommensurabilityError,
    DomainError,
    GuardError,
    MvLabError,
    ProtocolError,
    ResolutionError,
    StabilityError,
)
from .evolution import (
    ClassicalEnsembleRecord,
    EvolutionRecord,
    classical_ensemble_evolve,
    evolve_schrodinger,
)
from .fields import (
    GridWavefunction,
    PhysicalParams,
    PotentialField,
    SpatialGrid,
    free_potential,
    harmonic_potential,
    make_gaussian_packet,
    make_plane_wave,
    norm_squared,
    normalize,
)
from .madelung import (
    PolarField,
    QuantumPotentialField,
    continuity_residual,
    decompose,
    hamilton_jacobi_residual,
    quantum_potential,
    recompose,
    universe_density,
)
from .spins import (
    Branch,
    Direction,
    PointerLabel,
    TwoSpinState,
    aligned_probability,
    apply_measurement,
    chsh,
    classical_chsh_bound,
    correlation,
    four_world_split,
    rotate_second_basis,
    singlet,
    unset_pointers,
)
from .universes import (
    TrajectoryEnsemble,
    crossing_count,
    density_transport_check,
    integrate_universes,
    stratified_positions,
    transport_interval,
    velocity_field,
)
