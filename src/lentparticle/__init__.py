"""Carre du champ computations for Poisson-driven jump SDEs.

The library simulates finite-activity truncations of Levy-type jump
measures, integrates SDEs driven by them together with their first-order
flows, and assembles the carre du champ (Malliavin covariance) matrix of
path functionals by differentiating each functional through every atom of
the driving configuration.  Rank diagnostics on that matrix feed
density-existence checks, cross-validated against closed-form scenarios.
"""

__version__ = "0.1.0"

from .bottom_structure import (
    BottomStructure,
    from_expressions,
    gamma_matrix,
    intro_1d,
    isotropic,
    psi_over_k,
    standard_instances,
)
from .density_criteria import (
    RankReport,
    RankStatsTable,
    monte_carlo_rank_stats,
    rank_diagnostic,
    span_dimension,
)
from .errors import (
    ConditioningWarning,
    ConfigFileError,
    ConfigurationError,
    ConvergenceWarning,
    DomainError,
    FunctionalError,
    InputError,
    LentParticleError,
    ModelError,
    NumericError,
    StateError,
    StructureError,
)
from .lent_particle import (
    FORMULA_TAGS,
    GammaMatrix,
    MarkFunction,
    MarkFunctional,
    SdeFunctional,
    gamma_flow,
    gamma_generic,
    gamma_linear,
    gamma_rho_mc,
    linear_functional,
    sharp_sample,
)
from .poisson_measure import (
    JumpConfiguration,
    TruncatedLevyModel,
    add_particle,
    compensated_integral,
    remove_particle,
    simulate_configuration,
    simulate_configurations,
)
from .rng import path_seeds, stream
from .scenarios import (
    DoleansPairFunctional,
    GeneratorCheckReport,
    McKeanResult,
    Scenario,
    get_scenario,
    graph_levy_model,
    mckean_vlasov,
    polar_levy_model,
    power_law_model,
    stable_like_coefficient,
    stable_like_generator_check,
    stable_like_pushforward_check,
    uniform_box_model,
    zeta,
)
from .sde_engine import (
    CoefficientSet,
    Trajectory,
    solve_sde,
    write_trajectory_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
