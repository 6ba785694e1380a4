"""Bayesian posterior over each model's unknown mean and the Monte-Carlo
estimate of the probability that each model is the best one.

Evaluations of a model are treated as Gaussian with unknown mean and
variance. Under a uniform prior the deviation between the true and observed
mean, scaled by sqrt(T(T-2)/S), follows a Student-t with T-2 degrees of
freedom, where S is the sum of squared deviations and T the evaluation
count. The probability that a model's mean is the largest has no closed
form for N t-distributions, so it is estimated by repeated joint posterior
draws, which a campaign keeps from one belief update to the next and redraws
per model only when that model's statistics change. Draws are made and
scored in row chunks, and a belief that is clearly short of the stop
threshold ends after the chunks it needed. A chunk is scored without a
per-row winner: each column's wins are the rows at which it equals the row
maximum, and only a chunk where some row ties is resolved row by row.
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

# Largest mc_samples x N float64 draw matrix a campaign may keep: 1 GiB.
MAX_DRAW_BYTES = 2**30

MIN_EVALS_FOR_POSTERIOR = 3

# A belief's rows are drawn and scored in CHUNKS chunks; a belief held to a
# stop threshold ends after the first chunk whose leader lies more than
# EXIT_Z standard errors below the threshold.
CHUNKS = 8
EXIT_Z = 4.0


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


def chunk_ends(mc_samples: int) -> list[int]:
    """The end row of each non-empty chunk: mc*(c+1)//CHUNKS for c < CHUNKS."""
    return sorted({mc_samples * (c + 1) // CHUNKS for c in range(CHUNKS)} - {0})


class PosteriorDraws:
    """A campaign's (mc_samples x N) matrix of joint posterior draws, kept
    across belief updates and drawn in row chunks only as far as needed.

    Column j holds draws of model j's true mean. Its standard-t noise comes
    from one generator, ``rng_stream(seed, POSTERIOR, j, count_j)``, kept
    with the number of rows drawn from it. Rows are drawn in whole chunks,
    in order, so a row's value depends only on the seed, the model, that
    model's evaluation count and the row. A column starts again at row 0
    only when its model's statistics differ from those it was drawn for;
    in a campaign that happens exactly when the model's count rises, so an
    update that evaluates one model redraws one column. Exact ties between
    columns are broken from the unkeyed POSTERIOR stream. Once the matrix
    shape is set, the chunk ends are kept with it.
    """

    def __init__(self, campaign_seed: int):
        self._seed = int(campaign_seed)
        self.matrix = np.empty((0, 0), order="F")
        self.tie_stream = rng_stream(self._seed, StreamPurpose.POSTERIOR)
        self.ends: list[int] = []
        self._drawn_for: list[Optional[ModelStats]] = []
        self._streams: list[Optional[np.random.Generator]] = []
        self._filled: list[int] = []

    def refresh(self, stats_all: Sequence[ModelStats], mc_samples: int) -> None:
        """Start again at row 0 every column whose model's statistics changed."""
        n = len(stats_all)
        if self.matrix.shape != (mc_samples, n):
            # Column-major, so that drawing a column writes contiguous memory.
            self.matrix = np.empty((mc_samples, n), order="F")
            self.ends = chunk_ends(mc_samples)
            self._drawn_for, self._streams, self._filled = [None] * n, [None] * n, [0] * n
        for j, stats in enumerate(stats_all):
            if self._drawn_for[j] != stats:
                self._streams[j] = rng_stream(self._seed, StreamPurpose.POSTERIOR, j, stats.count)
                self._filled[j] = 0
                self._drawn_for[j] = stats

    def fill(self, lo: int, hi: int) -> None:
        """Draw the chunk of rows ``lo:hi`` in each column not yet drawn that
        far. Chunks are filled in order from row 0, so such a column has
        been drawn exactly to ``lo``. A model with fewer than 3 evaluations
        raises ``InsufficientDataError`` here."""
        for j, stats in enumerate(self._drawn_for):
            if self._filled[j] < hi:
                p = posterior_from_stats(stats)
                self.matrix[lo:hi, j] = p.center + p.scale * _t_draws(p.dof, (hi - lo,), self._streams[j])
                self._filled[j] = hi


def _win_counts(block: np.ndarray, tie_stream: np.random.Generator) -> list[int]:
    """How many rows of ``block`` each column wins.

    A row is won by its maximum; a row that ties exactly at its maximum is
    won by a column drawn uniformly from the tied ones, one ``tie_stream``
    draw per tied row, in row order.

    One running maximum over the contiguous columns of a column-major
    block, then a count per column of the rows at that maximum. Rows almost
    never tie: when the counts sum to the rows, they are the win counts.
    """
    rows, n = block.shape
    row_max = block[:, 0].copy()
    for j in range(1, n):
        np.maximum(row_max, block[:, j], out=row_max)
    at_max = np.empty(rows, dtype=bool)
    counts = []
    for j in range(n):
        np.equal(block[:, j], row_max, out=at_max)
        counts.append(int(np.count_nonzero(at_max)))
    if sum(counts) > rows:
        ties = block == row_max[:, None]
        for r in np.flatnonzero(ties.sum(axis=1) > 1):
            tied = np.flatnonzero(ties[r])
            for j in tied:
                counts[j] -= 1
            counts[tied[int(tie_stream.integers(tied.size))]] += 1
    return counts


def estimate_pi(
    stats_all: Sequence[ModelStats],
    mc_samples: int,
    draws: PosteriorDraws,
    confident_above: Optional[float] = None,
) -> Belief:
    """Estimate the probability vector that each model is the best.

    Brings ``draws`` up to date with ``stats_all`` and scores its rows chunk
    by chunk: each row holds one joint posterior sample and is awarded to
    its strict maximum, breaking exact ties uniformly at random. A chunk's
    wins are counted per column, as the rows at which the column equals the
    row maximum; ties are broken row by row only in a chunk that has one.
    ``pi`` is the win frequency over the rows scored, and
    ``Belief.mc_samples`` their number. Without ``confident_above`` all ``mc_samples`` rows are scored.
    With it, scoring ends after any chunk whose leading estimate p has
    p + EXIT_Z * sqrt(p(1-p)/rows) below ``confident_above``; such a belief
    cannot pass the stop test ``max pi > confident_above``, and the winner
    of a random row it scored is still an exact posterior draw.

    A fresh ``PosteriorDraws`` gives a one-shot estimate; a campaign passes
    the same one to every update, so columns of models not evaluated since
    are reused.
    """
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be positive, got {mc_samples}")
    if not stats_all:
        raise ValueError("need statistics for at least one model")
    draws.refresh(stats_all, mc_samples)
    counts = [0] * len(stats_all)
    rows = 0
    for end in draws.ends:
        draws.fill(rows, end)
        won = _win_counts(draws.matrix[rows:end], draws.tie_stream)
        counts = [a + b for a, b in zip(counts, won)]
        rows = end
        if confident_above is not None and rows < mc_samples:
            # A leader at p = 1 has no spread, so it always reaches full rows.
            p = max(counts) / rows
            if p + EXIT_Z * math.sqrt(p * (1.0 - p) / rows) < confident_above:
                break
    return Belief(mc_samples=rows, win_counts=tuple(counts))
