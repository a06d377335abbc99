"""Simulation and stability certification of 1-D parabolic boundary-input systems.

Subpackage map:

- :mod:`~iss_parabolic.grid` -- grids, fields, trajectories
- :mod:`~iss_parabolic.norms` -- L^p and weighted norms on grid functions
- :mod:`~iss_parabolic.comparison` -- exponential decay bounds, linear gains, ``combine_bounds``
- :mod:`~iss_parabolic.solver` -- order-preserving IMEX time stepping
- :mod:`~iss_parabolic.monotone` -- ordering oracle, bracketing, sandwich runs
- :mod:`~iss_parabolic.certify` -- stability estimates and Lyapunov certificates
- :mod:`~iss_parabolic.backstepping` -- boundary feedback synthesis and robustness
- :mod:`~iss_parabolic.runner` / :mod:`~iss_parabolic.cli` -- batch scenarios
"""

from .backstepping import (
    ClosedLoopConstants,
    ClosedLoopRun,
    VolterraKernel,
    apply_transform,
    certify_closed_loop,
    compatible_initial_state,
    estimate_equivalence_constants,
    feedback,
    kernel_series_reference,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
    transform_commutation_residual,
)
from .certify import (
    DecayReport,
    ExpIssConstants,
    ISSReport,
    check_fitted_lp,
    check_l2,
    check_weighted_l1,
    check_weighted_sup,
    estimate_exp_iss_constants,
    lyapunov_decay_certificate,
)
from .comparison import ExpLinearKL, LinearGain, combine_bounds
from .errors import (
    BracketingError,
    EstimationError,
    IncompatibleDataError,
    IncompatibleTrajectoryError,
    InapplicableEstimateError,
    InvalidFieldError,
    InvalidParameterError,
    IssParabolicError,
    MonotonicityLossError,
    NumericalError,
    ScenarioError,
    SynthesisError,
)
from .grid import Field, Grid1D, Trajectory
from .monotone import (
    Bracket,
    OrderingReport,
    SandwichReport,
    build_bracket,
    check_ordering,
    constant_reduction_experiment,
    cutoff_hat,
    find_cutoff_delta,
)
from .norms import norm_lp, norm_weighted_sin, norm_weighted_sup
from .solver import (
    BoundarySignal,
    SemilinearProblem,
    simulate,
    write_trajectory_csv,
)

__version__ = "0.1.0"
