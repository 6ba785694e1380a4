"""Adaptive selection of the best noisy candidate model.

Treats model selection as best-arm identification: each candidate's
evaluations (on fresh data splits and seeds) are noisy draws around an
unknown mean, and the algorithms spend evaluations where they most reduce
uncertainty about which mean is largest, under a fixed evaluation budget or
until a target confidence is reached.
"""

from .core import (
    Belief,
    ConfigError,
    EvaluationError,
    EvaluationRequest,
    EvaluationScore,
    EvaluatorFailure,
    EventKind,
    ModelId,
    ModelStats,
    NonFiniteScoreError,
    SelectionResult,
    StreamPurpose,
    TerminationReason,
    make_model_ids,
    rng_stream,
    stats_update,
)
from .posterior import (
    DEFAULT_MC_SAMPLES,
    IDENTITY,
    PosteriorDraws,
    PosteriorParams,
    TransformMode,
    VARIANCE_FLOOR,
    estimate_pi,
    posterior_from_stats,
    transform_score,
)
from .algorithms import (
    DEFAULT_MAX_TOTAL_EVALS,
    bts,
    complexity_h,
    nonadaptive_fixed_budget,
    nonadaptive_fixed_confidence,
    sequential_halving,
    ttts,
)
from .evaluators import (
    Beta,
    Evaluator,
    Gaussian,
    ReplayEvaluator,
    SubprocessEvaluator,
    SyntheticEvaluator,
    TruncatedGaussian,
    load_arm_file,
    read_replay_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "Beta",
    "ConfigError",
    "DEFAULT_MAX_TOTAL_EVALS",
    "DEFAULT_MC_SAMPLES",
    "Evaluator",
    "EvaluationError",
    "EvaluationRequest",
    "EvaluationScore",
    "EvaluatorFailure",
    "EventKind",
    "Gaussian",
    "IDENTITY",
    "ModelId",
    "ModelStats",
    "NonFiniteScoreError",
    "PosteriorDraws",
    "PosteriorParams",
    "ReplayEvaluator",
    "SelectionResult",
    "StreamPurpose",
    "SubprocessEvaluator",
    "SyntheticEvaluator",
    "TerminationReason",
    "TransformMode",
    "TruncatedGaussian",
    "VARIANCE_FLOOR",
    "bts",
    "complexity_h",
    "estimate_pi",
    "load_arm_file",
    "make_model_ids",
    "nonadaptive_fixed_budget",
    "nonadaptive_fixed_confidence",
    "posterior_from_stats",
    "read_replay_csv",
    "rng_stream",
    "sequential_halving",
    "stats_update",
    "transform_score",
    "ttts",
]
