"""Shared domain types: candidate models, evaluation records, online
statistics, belief vectors, trace events, and the seeded randomness contract
used by every selection algorithm."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Optional, Sequence

import numpy as np


class NonFiniteScoreError(ValueError):
    """A NaN or infinite score was offered where a finite metric is required."""


class InsufficientDataError(ValueError):
    """A posterior was requested for a model with fewer than 3 evaluations."""


class UndefinedComplexityError(ValueError):
    """The difficulty measure is undefined when the best mean is not unique."""


class ConfigError(ValueError):
    """A campaign configuration field failed validation."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.message = message


def require_positive_int(name: str, value) -> None:
    """Refuse a value that is not an integer (a bool is not one) or is below
    1 as a ``ConfigError`` on ``name``, in the words of the config's checks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(name, f"must be positive, got {value!r}")


class BudgetTooSmallError(ConfigError):
    """The evaluation budget cannot give every model one evaluation per round."""

    def __init__(self, message: str):
        super().__init__("budget", message)


class EvaluatorFailure(RuntimeError):
    """An evaluator back-end failed (dead child, timeout, aborted campaign)."""

    def __init__(self, message: str, *, stderr: Optional[str] = None):
        super().__init__(message)
        self.stderr = stderr


class PoolExhaustedError(EvaluatorFailure):
    """A replay score pool ran out under the Error exhaustion policy."""


class ProtocolError(EvaluatorFailure):
    """The external evaluator violated the wire protocol."""


class EvaluationError(EvaluatorFailure):
    """A single evaluation request came back as an error (retryable)."""

    def __init__(self, request: "EvaluationRequest", message: str):
        super().__init__(f"evaluation {request.sequence} of {request.model.name} failed: {message}")
        self.request = request


@dataclass(frozen=True)
class ModelId:
    """One candidate model: an opaque name plus its 0-based position."""

    name: str
    index: int


def make_model_ids(names: Sequence[str]) -> tuple[ModelId, ...]:
    """Build the candidate set, indexed from 0 in the order given.

    Every evaluator builds its candidates here, so this is where names are
    checked: at least one, each a string that is not blank, none repeated.
    A refused set raises ``ConfigError`` on ``models``.
    """
    names = list(names)
    if not names:
        raise ConfigError("models", "need at least 1 candidate model")
    for name in names:
        if not isinstance(name, str) or not name.strip():
            raise ConfigError("models", f"model names must be non-blank strings, got {name!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ConfigError("models", f"duplicate model names: {dupes}")
    return tuple(ModelId(name=n, index=i) for i, n in enumerate(names))


@dataclass(frozen=True)
class EvaluationRequest:
    """One unit of work: evaluate ``model`` on a fresh data split and seed."""

    model: ModelId
    split_seed: int
    model_seed: int
    sequence: int


@dataclass(frozen=True)
class EvaluationScore:
    """The scalar metric outcome of one evaluation request."""

    request: EvaluationRequest
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise NonFiniteScoreError(
                f"score for {self.request.model.name} (request {self.request.sequence}) "
                f"is not finite: {self.score!r}"
            )


@dataclass(frozen=True)
class ModelStats:
    """Online sufficient statistics for one model's evaluations.

    ``sq_dev_sum`` is the running sum of squared deviations from the mean
    (not the sample variance). An empty stats value is all zeros.
    """

    count: int = 0
    mean: float = 0.0
    sq_dev_sum: float = 0.0


def stats_update(stats: ModelStats, score: float) -> ModelStats:
    """Fold one score into the statistics via the stable single-pass recurrence.

    Never computed as sum(x^2) - n*mean^2, which cancels catastrophically.
    A score, or a new mean or ``sq_dev_sum``, that is not finite is refused.
    """
    score = float(score)
    if not math.isfinite(score):
        raise NonFiniteScoreError(f"cannot update statistics with non-finite score {score!r}")
    count = stats.count + 1
    delta = score - stats.mean
    mean = stats.mean + delta / count
    sq_dev_sum = stats.sq_dev_sum + delta * (score - mean)
    if not (math.isfinite(mean) and math.isfinite(sq_dev_sum)):
        raise NonFiniteScoreError(f"statistics overflow after score {score!r}: mean {mean!r}, "
                                  f"sq_dev_sum {sq_dev_sum!r} over {count} scores")
    return ModelStats(count=count, mean=mean, sq_dev_sum=sq_dev_sum)


class StreamPurpose(IntEnum):
    """Independent randomness substreams of a campaign."""

    SPLIT_SEED = 0
    MODEL_SEED = 1
    POSTERIOR = 2
    ALGORITHM = 3
    SYNTHETIC = 4
    REPLAY = 5


def rng_stream(campaign_seed: int, purpose: StreamPurpose, *key: int) -> np.random.Generator:
    """Deterministic substream for one purpose of one campaign, or of one
    request when an in-process evaluator passes the request's split seed.

    Distinct purposes (and extra key parts, e.g. model index and model seed)
    yield independent streams; the same arguments always reproduce the same
    stream.
    """
    ss = np.random.SeedSequence(int(campaign_seed), spawn_key=(int(purpose), *map(int, key)))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class Belief:
    """Monte-Carlo belief over which candidate has the highest true mean.

    ``win_counts[m]`` is the number of posterior rows model m wins, out of
    the ``mc_samples`` rows the belief scored (at most the campaign's
    ``mc_samples``).
    """

    mc_samples: int
    win_counts: tuple[int, ...]

    @property
    def pi(self) -> tuple[float, ...]:
        """``win_counts[m] / mc_samples``: exact relative frequencies of a
        common denominator, which sum to one."""
        return tuple(c / self.mc_samples for c in self.win_counts)

    def argmax(self) -> int:
        """Index of the most probably optimal model (first of any tied max)."""
        return self.win_counts.index(max(self.win_counts))


def point_mass_belief(stats: Sequence[ModelStats], winner_index: int) -> Belief:
    """Degenerate belief concentrated on one model.

    Used by fixed-budget algorithms, where eliminated models may hold fewer
    than the 3 evaluations the Monte-Carlo belief requires.
    """
    return Belief(mc_samples=1, win_counts=tuple(int(i == winner_index) for i in range(len(stats))))


class EventKind(str, Enum):
    """Trace event discriminator."""

    EVALUATED = "evaluated"
    ELIMINATED = "eliminated"
    ROUND_STARTED = "round_started"
    BELIEF_UPDATED = "belief_updated"
    TERMINATED = "terminated"


class TerminationReason(str, Enum):
    """Why a campaign stopped."""

    BUDGET_EXHAUSTED = "budget_exhausted"
    CONFIDENCE_REACHED = "confidence_reached"
    MAX_EVALS_SAFEGUARD = "max_evals_safeguard"


@dataclass(frozen=True)
class TraceEvent:
    """One entry of the campaign trace, ordered by the campaign event counter."""

    seq: int
    kind: EventKind
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"seq": self.seq, "kind": self.kind.value}
        d.update(self.payload)
        return d


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection campaign; ``models`` is the evaluator's
    candidate set, in the order ``eval_counts`` and ``final_belief.pi`` follow."""

    chosen: ModelId
    final_belief: Belief
    eval_counts: tuple[int, ...]
    total_evals: int
    trace: tuple[TraceEvent, ...]
    terminated_by: TerminationReason
    models: tuple[ModelId, ...]
