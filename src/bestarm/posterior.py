"""Bayesian posterior over each model's unknown mean and the Monte-Carlo
estimate of the probability that each model is the best one.

Evaluations of a model are treated as Gaussian with unknown mean and
variance. Under a uniform prior the deviation between the true and observed
mean, scaled by sqrt(T(T-2)/S), follows a Student-t with T-2 degrees of
freedom, where S is the sum of squared deviations and T the evaluation
count. The probability that a model's mean is the largest has no closed
form for N t-distributions, so it is estimated by repeated joint posterior
draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Belief, InsufficientDataError, ModelStats

# Substituted for the sum of squared deviations when a model's scores are
# (near-)constant, so the posterior scale stays positive.
VARIANCE_FLOOR = 1e-12

# Monte-Carlo rounds per belief update; pi standard error is at most
# 0.5/sqrt(mc), i.e. ~0.0016 at the default.
DEFAULT_MC_SAMPLES = 100_000

MIN_EVALS_FOR_POSTERIOR = 3


@dataclass(frozen=True)
class PosteriorParams:
    """Location-scale Student-t posterior for one model's true mean."""

    center: float
    scale: float
    dof: float


@dataclass(frozen=True)
class TransformMode:
    """Score transform applied at ingestion: identity, or logit with clamping."""

    kind: str = "identity"
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("identity", "logit"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "logit" and not (0.0 < self.epsilon < 0.5):
            raise ValueError(f"logit epsilon must be in (0, 0.5), got {self.epsilon}")

    @classmethod
    def identity(cls) -> "TransformMode":
        return cls(kind="identity")

    @classmethod
    def logit(cls, epsilon: float = 1e-6) -> "TransformMode":
        return cls(kind="logit", epsilon=epsilon)


IDENTITY = TransformMode.identity()


def transform_score(score: float, mode: TransformMode) -> float:
    """Apply the configured transform; logit clamps into [eps, 1-eps] first."""
    if mode.kind == "identity":
        return score
    s = min(max(score, mode.epsilon), 1.0 - mode.epsilon)
    return math.log(s / (1.0 - s))


def posterior_from_stats(stats: ModelStats) -> PosteriorParams:
    """Posterior for one model's true mean given its online statistics.

    Requires at least 3 evaluations so the t distribution has dof >= 1.
    """
    if stats.count < MIN_EVALS_FOR_POSTERIOR:
        raise InsufficientDataError(
            f"posterior needs at least {MIN_EVALS_FOR_POSTERIOR} evaluations, "
            f"got {stats.count}"
        )
    dof = stats.count - 2
    sq_dev = max(stats.sq_dev_sum, VARIANCE_FLOOR)
    scale = math.sqrt(sq_dev / (stats.count * dof))
    return PosteriorParams(center=stats.mean, scale=scale, dof=float(dof))


def _t_draws(dofs: np.ndarray, shape: tuple, stream: np.random.Generator) -> np.ndarray:
    # Standard-t via a normal over the root of a scaled chi-square; exact for
    # all dof >= 1 including the dof=1 Cauchy case.
    z = stream.standard_normal(shape)
    v = stream.chisquare(dofs, size=shape)
    return z / np.sqrt(v / dofs)


def estimate_pi(
    stats_all: Sequence[ModelStats],
    mc_samples: int,
    stream: np.random.Generator,
) -> Belief:
    """Estimate the probability vector that each model is the best.

    Runs ``mc_samples`` rounds; each round draws one posterior sample per
    model and awards the round to the strict maximum, breaking exact ties
    uniformly at random. ``pi`` is the resulting win frequency.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be positive, got {mc_samples}")
    if not stats_all:
        raise ValueError("need statistics for at least one model")
    params = [posterior_from_stats(s) for s in stats_all]
    n = len(params)
    centers = np.array([p.center for p in params])
    scales = np.array([p.scale for p in params])
    dofs = np.array([p.dof for p in params])

    draws = centers + scales * _t_draws(dofs, (mc_samples, n), stream)
    row_max = draws.max(axis=1)
    winners = draws.argmax(axis=1)
    # Tie rows are resolved after the bulk draws so stream consumption is a
    # fixed layout plus one extra draw per actual tie.
    tie_rows = np.flatnonzero((draws == row_max[:, None]).sum(axis=1) > 1)
    for r in tie_rows:
        tied = np.flatnonzero(draws[r] == row_max[r])
        winners[r] = tied[int(stream.integers(tied.size))]

    counts = np.bincount(winners, minlength=n)
    return Belief(
        pi=tuple((counts / mc_samples).tolist()),
        stats=tuple(stats_all),
        mc_samples=int(mc_samples),
        win_counts=tuple(int(c) for c in counts),
    )
