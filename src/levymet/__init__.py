"""Lyapunov spectra, flags, and Oseledets splittings for linear stochastic
systems driven by (two-sided) Lévy noise.

The package simulates càdlàg Lévy paths, evaluates the induced linear
cocycles (closed forms, Doléans-Dade exponentials, jump-adapted Euler,
Picard oracle), and extracts the multiplicative-ergodic data: exponents
with multiplicities, filtration flags with their metric, backward spectra,
and the Oseledets splitting, validated against closed-form benchmarks.
"""

from .errors import (
    ConfigurationError,
    DegeneracyError,
    DivergenceError,
    HorizonError,
    InstabilityError,
    LevyMetError,
    ParseError,
    QuadratureError,
    ResolutionError,
    SingularityError,
    StructuralError,
    SupportError,
)
from .measures import (
    LevyMeasure,
    LevyTriplet,
    characteristic_exponent,
    log_compensator_integral,
    scalar_triplet,
    stable_scaling_residual,
)
from .paths import (
    JumpPath,
    TimeGrid,
    TwoSidedPath,
    dump_path_csv,
    sample_backward,
    sample_forward,
    sample_two_sided,
)
from .cocycle import (
    EulerEvaluator,
    ExactDiagonal2D,
    LinearSystem,
    PicardResult,
    StochasticExponential1D,
    cocycle_residual,
    integrability_alpha,
    picard_solve,
)
from .spectrum import (
    Flag,
    FlagConvergence,
    FlagMetricParams,
    OseledetsSplit,
    SpectrumEstimate,
    backward_spectrum,
    coordinate_flag,
    exterior_power_norm,
    flag_at,
    flag_convergence_rate,
    flag_distance,
    group_spectrum,
    oseledets_spaces,
    principal_angles,
    random_flag,
    singular_values,
    spectrum_qr,
    sym_root_spectrum,
    vector_exponent,
)
from .oracle import (
    GroundTruth2D,
    benchmark_drivers,
    benchmark_system_2d,
    ground_truth_2d,
    integrability_bound,
)
from .config import ExperimentConfig, parse_config
from .experiments import ExperimentReport, run_experiment

__version__ = "0.1.0"
