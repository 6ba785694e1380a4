"""Bayesian posterior over each model's unknown mean and the Monte-Carlo
estimate of the probability that each model is the best one.

Evaluations of a model are treated as Gaussian with unknown mean and
variance. Under a uniform prior the deviation between the true and observed
mean, scaled by sqrt(T(T-2)/S), follows a Student-t with T-2 degrees of
freedom, where S is the sum of squared deviations and T the evaluation
count. The probability that a model's mean is the largest has no closed
form for N t-distributions, so it is estimated by repeated joint posterior
draws, which a campaign keeps from one belief update to the next and redraws
per model only when that model's statistics change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Belief, InsufficientDataError, ModelStats, StreamPurpose, rng_stream

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


def _t_draws(dofs: float | np.ndarray, shape: tuple, stream: np.random.Generator) -> np.ndarray:
    # Standard-t via a normal over the root of a scaled chi-square; exact for
    # all dof >= 1 including the dof=1 Cauchy case.
    z = stream.standard_normal(shape)
    v = stream.chisquare(dofs, size=shape)
    return z / np.sqrt(v / dofs)


class PosteriorDraws:
    """A campaign's (mc_samples x N) matrix of joint posterior draws, kept
    across belief updates.

    Column j holds draws of model j's true mean. Its standard-t noise comes
    from ``rng_stream(seed, POSTERIOR, j, count_j)``, so it depends only on
    the seed, the model and that model's evaluation count. A column is
    redrawn only when its model's statistics differ from those it was drawn
    for; in a campaign that happens exactly when the model's count rises,
    so an update that evaluates one model redraws one column. Exact ties
    between columns are broken from the unkeyed POSTERIOR stream.
    """

    def __init__(self, campaign_seed: int):
        self._seed = int(campaign_seed)
        self.matrix = np.empty((0, 0), order="F")
        self.tie_stream = rng_stream(self._seed, StreamPurpose.POSTERIOR)
        self._drawn_for: list[Optional[ModelStats]] = []

    def refresh(self, stats_all: Sequence[ModelStats], mc_samples: int) -> None:
        """Redraw every column whose model's statistics changed."""
        n = len(stats_all)
        if self.matrix.shape != (mc_samples, n):
            # Column-major, so that redrawing a column writes contiguous memory.
            self.matrix = np.empty((mc_samples, n), order="F")
            self._drawn_for = [None] * n
        for j, stats in enumerate(stats_all):
            if self._drawn_for[j] != stats:
                p = posterior_from_stats(stats)
                stream = rng_stream(self._seed, StreamPurpose.POSTERIOR, j, stats.count)
                self.matrix[:, j] = p.center + p.scale * _t_draws(p.dof, (mc_samples,), stream)
                self._drawn_for[j] = stats


def estimate_pi(
    stats_all: Sequence[ModelStats],
    mc_samples: int,
    draws: PosteriorDraws,
) -> Belief:
    """Estimate the probability vector that each model is the best.

    Brings ``draws`` up to date with ``stats_all`` and runs ``mc_samples``
    rounds over its rows: each round holds one posterior sample per model
    and is awarded to the strict maximum, breaking exact ties uniformly at
    random. ``pi`` is the resulting win frequency. A fresh ``PosteriorDraws``
    gives a one-shot estimate; a campaign passes the same one to every
    update, so columns of models not evaluated since are reused.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be positive, got {mc_samples}")
    if not stats_all:
        raise ValueError("need statistics for at least one model")
    draws.refresh(stats_all, mc_samples)
    matrix = draws.matrix
    winners = matrix.argmax(axis=1)
    at_max = matrix == np.take_along_axis(matrix, winners[:, None], axis=1)
    # Rows almost never tie, so one count decides whether the per-row pass
    # runs at all; it costs one extra draw per tied row.
    if np.count_nonzero(at_max) > mc_samples:
        for r in np.flatnonzero(at_max.sum(axis=1) > 1):
            tied = np.flatnonzero(at_max[r])
            winners[r] = tied[int(draws.tie_stream.integers(tied.size))]

    counts = np.bincount(winners, minlength=len(stats_all))
    return Belief(
        pi=tuple((counts / mc_samples).tolist()),
        stats=tuple(stats_all),
        mc_samples=int(mc_samples),
        win_counts=tuple(int(c) for c in counts),
    )
