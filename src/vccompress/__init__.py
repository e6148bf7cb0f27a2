"""Sample compression toolkit for finite binary concept classes."""

from .approx import (
    ApproximationCertificate,
    ProbabilityVector,
    approximation_deviation,
    approximation_size_bound,
    epsilon_approximation,
    sparsify_mixture,
)
from .concepts import (
    ConceptClass,
    LabeledSample,
    ShatterWitness,
    dual_class,
    parse_concept_class,
    serialize_concept_class,
    shatters,
    vc_dimension,
)
from .errors import (
    ApproximationBudgetError,
    BudgetExceededError,
    ConfigError,
    ConvergenceError,
    DecodeError,
    ExactSolverCapError,
    IntegrityError,
    ParseError,
    UnrealizableError,
)
from .scheme import (
    CompressedSample,
    SchemeReport,
    VerificationResult,
    compress,
    decode_side_info,
    deserialize_compressed,
    reconstruct,
    scheme_size_bound,
    serialize_compressed,
    verify_round_trip,
)
from .learner import (
    WEAK_AGREEMENT,
    HypothesisSet,
    build_hypothesis_set,
    escalate_budget,
    lowest_consistent_concept,
)
from .game import (
    GameSolution,
    SparseEquilibrium,
    parse_payoff_matrix,
    solve_exact,
    solve_mw,
    sparse_epsilon_nash,
)
from .generators import (
    full_cube,
    halfspaces_grid,
    intervals,
    k_interval_unions,
    make_concept_class,
    random_vc_capped,
)
from .experiment import ExperimentReport, generalization_experiment, required_sample_size
from .suite import run_suite

__version__ = "0.1.0"
