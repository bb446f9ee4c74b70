"""Simulation and verification laboratory for multidimensional Dunkl processes.

Build a root system, pick a multiplicity function, simulate the radial
diffusion inside its Weyl chamber, reconstruct the full jump process by
the root-by-root skew-product lift, and run statistical checks of the
laws involved.  See the README for the command line surface.
"""

from .calculus import (
    GeneratorSpec,
    TestFunction,
    apply_generator,
    delta,
    delta_bar,
    drift,
    harmonicity_residual,
    rotate_system,
    weight_omega,
    weight_varpi,
)
from .errors import (
    ConfigError,
    DegenerateDirectionError,
    DomainError,
    DunklLabError,
    GroupCapExceededError,
    InvalidArgumentError,
    InvalidPlanError,
    SingularClockError,
    SingularDriftError,
    UnsupportedRegimeError,
)
from .lift import (
    LiftPlan,
    build_lift_plan,
    cumulative_time_change,
    simulate_dunkl,
)
from .radial import (
    JumpEvent,
    Run,
    SimulationConfig,
    Trajectory,
    read_trajectories_csv,
    run_radial,
    write_trajectories_csv,
)
from .root_systems import (
    Multiplicity,
    RootSystem,
    build_rank_one,
    build_root_system,
    build_type_a,
    build_type_b,
    chamber_contains,
    chamber_labels,
    check_invariance_condition,
    generate_weyl_group,
    multiplicity,
    normalize_roots,
    orbit_decomposition,
    positive_subsystem,
    project_batch,
    reflect,
    system_from_json,
    system_to_json,
    validate_root_system,
)

__version__ = "0.1.0"
