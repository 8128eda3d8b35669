"""Scaling symmetries of Hamiltonian systems on cotangent bundles.

Builds conformally Hamiltonian vector fields, scaled cotangent lifts and
their conformal momentum maps, certifies scaling symmetries numerically,
integrates conformal flows, and solves for relative equilibria / central
configurations, with the Newtonian n-body problem as the flagship system.
"""

__version__ = "0.1.0"

from .dynamics import (
    FlowReport,
    NoetherSeries,
    Trajectory,
    flow_jacobian,
    homothetic_factor,
    integrate,
    noether_series,
    verify_conformal_flow,
    verify_homothetic_orbit,
)
from .equilibria import (
    RelativeEquilibrium,
    SimpleMechanicalSystem,
    augmented_hamiltonian,
    augmented_kinetic,
    augmented_potential,
    central_config_residual,
    certify_relative_equilibrium,
    locked_inertia,
    locked_inertia_gradient,
    momentum_from_config,
    relative_equilibrium_residual,
    solve_central_configuration,
    xi_squared_from_config,
)
from .errors import (
    BlowupWindow,
    CollisionDetected,
    DimensionMismatch,
    NonFiniteValue,
    ScaleSymError,
    SchemaError,
    SolverDidNotConverge,
    UncertifiedInput,
)
from .phase import (
    FD_STEP,
    PhasePoint,
    ScalarField,
    check_gradient,
    fd_gradient,
    fd_jacobian,
    omega_matrix,
)
from .scaling import (
    ScalingAction,
    SymmetryReport,
    act_config,
    act_phase,
    generator_config,
    generator_phase,
    lift_exponent,
    momentum_field,
    momentum_map,
    phase_jacobian_fd,
    verify_scaling_symmetry,
)
from .systems import (
    BuiltSystem,
    ConformalSystem,
    NBodySpec,
    anisotropic_kepler_system,
    damped_oscillator,
    euler_collinear_oracle,
    homogeneous_system,
    lagrange_triangle,
    make_system,
    min_pairwise_distance,
    nbody_potential_and_gradient,
    nbody_system,
    power_law_system,
)
