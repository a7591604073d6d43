"""Decoherence of single-mode Gaussian phonon states in a uniform condensate.

Covariance-matrix evolution under the two-operator thermal Lindblad
channel, Bogoliubov-mode damping rates (closed forms and collision
integrals), closed-form decoherence metrics, a three-body lifetime model,
and a truncated-number-basis validator.
"""

from .bec import (
    CondensateParams,
    beta_of,
    bogoliubov_uv,
    dispersion,
    group_velocity,
    invert_dispersion,
    thermal_occupation,
)
from .constants import HBAR, K_B, RB87, SPECIES_PRESETS, YB174
from .damping import (
    DampingResult,
    InteractionCoefficients,
    IntegralRates,
    QuadratureConfig,
    RegimeWarning,
    gamma_beliaev_asymptotic,
    gamma_integral,
    gamma_landau_high_temperature,
    gamma_landau_low_temperature,
    select_regime,
    split_rates,
    vertex_coefficients,
)
from .decoherence import (
    MetricTrajectory,
    classicality_time,
    metric_trajectory,
    nonclassical_depth_evolution,
    occupation_evolution,
    purity_evolution,
    purity_minimum_time,
    squeezing_evolution,
)
from .fock import (
    FockTrajectory,
    lindblad_step_integrate,
    squeezed_vacuum_fock,
)
from .gaussian import (
    DEFAULT_CONVENTION,
    GaussianState,
    SingleModeParams,
    SymplecticConvention,
    params_from_state,
    state_from_params,
    symplectic_eigenvalues,
    thermal_state,
    vacuum_state,
)
from .lyapunov import (
    LindbladChannel,
    evolve_closed_form,
    evolve_numeric,
    fixed_point_residual,
    thermal_channel,
)
from .three_body import decay_rate, density_decay, half_life

__version__ = "0.1.0"
