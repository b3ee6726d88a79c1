"""Simulation and verification engine for n-player pollution-control
differential games with online Bayesian belief updating."""

from .config import ScenarioConfig, default_config, parse_config
from .engine import (
    Scenario,
    SimConfig,
    TraceSet,
    Trajectory,
    compare_schemes,
    default_traces,
    simulate,
    window_diagnostics,
)
from .equilibrium import (
    BeliefProfile,
    GameParams,
    c_bar,
    check_nonnegativity,
    closed_form_controls,
    closed_form_value_slope,
    equilibrium_report,
    foc_residual,
    known_state_controls,
    known_state_equilibrium,
    solve_equilibrium,
    value_intercepts,
    value_slope,
)
from .errors import (
    BeliefGameError,
    ConfigError,
    GridUnderflowError,
    NonFiniteStateError,
    SingularSystemError,
    TraceCoverageError,
    TraceFormatError,
    UndefinedVarianceError,
)
from .kalman import (
    KalmanBelief,
    kalman_derivative,
    kalman_path,
    step_discrete_kalman,
    variance_closed_form,
    variance_path,
)
from .normal_gamma import (
    NormalGammaBelief,
    belief_derivative,
    belief_path,
    step_discrete,
)
from .oracles import (
    best_response_value,
    closed_form_cross_check,
    grid_bayes_posterior,
)
from .signals import (
    SignalTrace,
    load_trace,
    sample_cost_trace,
    sample_ecological_trace,
    save_trace,
)

__version__ = "0.6.0"
