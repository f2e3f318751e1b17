"""SUSY partner potentials of the harmonic oscillator and their coherent states.

The package builds k-th order SUSY partner Hamiltonians from chained seed
solutions, reads off the associated Painleve IV transcendent, assembles the
natural third-order ladder operators, and constructs the four coherent state
families that ladder supports, together with their orthogonality measures.
"""

from .errors import (
    ConstructionError,
    DomainError,
    InsufficientSupportError,
    InvalidSpecError,
    QuadratureError,
    SeriesError,
    SingularPotentialError,
    SusyOscError,
    TruncationError,
    UsageError,
)
from .specfun import (
    bessel_k,
    digamma,
    gamma_fn,
    hyp0f2,
    hyp1f1,
    integral_zero_inf,
    mellin_moment,
    tricomi_u,
)
from .susy import (
    GridState,
    SeedFamily,
    SusySystem,
    SystemSpec,
    build_seed_chain,
    build_system,
    iso_state,
    new_state,
    potential,
)
from .painleve import (
    Assignment,
    GSolution,
    ResidualStats,
    assignment_for,
    companion_extremal_states,
    g_from_extremal,
    g_for_system,
    piv_residual,
    potential_from_g,
)
from .ladder import (
    LadderCoeffs,
    OperatorStencil,
    apply_stencil,
    build_operator_stencil,
    commutator_check,
    linearized_coeff,
    natural_down_coeff,
    nilpotent_matrix,
    pha_product_check,
    stencil_projection,
)
from .coherent import (
    CoherentState,
    CSParams,
    Family,
    MeasureFamily,
    MeasureFn,
    annihilation_check,
    construct_cs,
    divergence_witness,
    evolve,
    identity_resolution_check,
    kernel,
    mean_energy,
    measure_fn,
    moment_check,
    moment_strip,
    probabilities,
    wavefunction,
)

__version__ = "0.1.0"
