import math

import numpy as np
import pytest
from scipy import stats as scistats

from bestarm import (
    InsufficientDataError,
    ModelStats,
    PosteriorParams,
    TransformMode,
    VARIANCE_FLOOR,
    estimate_pi,
    posterior_from_stats,
    stats_update,
    transform_score,
)
from bestarm.posterior import _t_draws


def fold(values):
    s = ModelStats()
    for x in values:
        s = stats_update(s, x)
    return s


class TestPosteriorFromStats:
    def test_constant_scores_hit_variance_floor(self):
        p = posterior_from_stats(fold([0.5, 0.5, 0.5]))
        assert p.center == pytest.approx(0.5)
        assert p.dof == 1
        assert p.scale == pytest.approx(math.sqrt(VARIANCE_FLOOR / 3))

    def test_three_scores(self):
        p = posterior_from_stats(fold([0.6, 0.7, 0.8]))
        assert p.center == pytest.approx(0.7)
        assert p.dof == 1
        assert p.scale == pytest.approx(math.sqrt(0.02 / 3), rel=1e-9)
        assert p.scale == pytest.approx(0.08165, abs=5e-6)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            posterior_from_stats(fold([0.6, 0.7]))

    def test_dof_grows_with_count(self):
        p = posterior_from_stats(fold([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert p.dof == 3


def posterior_draws(params, n, rng):
    """n draws of a model's true mean: its posterior's location-scale t, via the t-draw kernel."""
    return params.center + params.scale * _t_draws(np.full(n, params.dof), (n,), rng)


class TestPosteriorSample:
    def test_tiny_scale_concentrates_at_center(self):
        params = PosteriorParams(center=0.7, scale=1e-12, dof=5.0)
        draws = posterior_draws(params, 1000, np.random.default_rng(3))
        assert np.max(np.abs(draws - 0.7)) < 1e-9

    def test_ks_against_analytic_t_cdf(self):
        # 1e5 standardized draws at dof 5 must be consistent with the t CDF
        params = PosteriorParams(center=0.3, scale=0.02, dof=5.0)
        draws = posterior_draws(params, 100_000, np.random.default_rng(17))
        standardized = (draws - params.center) / params.scale
        result = scistats.kstest(standardized, scistats.t(df=5).cdf)
        assert result.pvalue > 0.01

    def test_dof_one_is_cauchy(self):
        # Cauchy quantile oracle: median at center, quartiles at center +- scale
        params = PosteriorParams(center=2.0, scale=0.5, dof=1.0)
        draws = posterior_draws(params, 100_000, np.random.default_rng(23))
        q25, q50, q75 = np.quantile(draws, [0.25, 0.5, 0.75])
        assert q50 == pytest.approx(2.0, abs=0.5 * 0.02)
        assert q25 == pytest.approx(2.0 - 0.5, abs=0.5 * 0.05)
        assert q75 == pytest.approx(2.0 + 0.5, abs=0.5 * 0.05)


class TestEstimatePi:
    def test_identical_stats_give_uniform_pi(self):
        stats = [fold([0.68, 0.70, 0.72]) for _ in range(5)]
        rng = np.random.default_rng(101)
        belief = estimate_pi(stats, 100_000, rng)
        sigma = math.sqrt((1 / 5) * (4 / 5) / 100_000)
        for p in belief.pi:
            assert abs(p - 0.2) <= 3 * sigma

    def test_two_separated_models(self):
        # Frozen from an independent oracle (1e7 scipy t draws, cross-checked
        # analytically: pi2 = 1 - P(Cauchy(0,2) > gap/scale) = 0.97407). The
        # heavy dof=1 tails keep pi2 well below 1 despite the wide gap.
        stats = [fold([0.60, 0.61, 0.62]), fold([0.80, 0.81, 0.82])]
        rng = np.random.default_rng(55)
        belief = estimate_pi(stats, 100_000, rng)
        assert belief.pi[1] == pytest.approx(0.97407, abs=0.003)
        assert belief.pi[1] > 0.95

    def test_single_model(self):
        belief = estimate_pi([fold([0.5, 0.6, 0.7])], 1000, np.random.default_rng(1))
        assert belief.pi == (1.0,)
        assert belief.win_counts == (1000,)

    def test_requires_three_evals_everywhere(self):
        stats = [fold([0.5, 0.6, 0.7]), fold([0.5, 0.6])]
        with pytest.raises(InsufficientDataError):
            estimate_pi(stats, 100, np.random.default_rng(1))

    def test_rejects_non_positive_mc_samples(self):
        with pytest.raises(ValueError):
            estimate_pi([fold([0.5, 0.6, 0.7])], 0, np.random.default_rng(1))

    def test_rejects_empty_candidate_set(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_pi([], 100, np.random.default_rng(1))

    def test_probability_vector_is_valid(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            stats = [
                fold(rng.normal(rng.uniform(0, 1), rng.uniform(0.001, 0.3),
                                size=int(rng.integers(3, 12))).tolist())
                for _ in range(n)
            ]
            belief = estimate_pi(stats, 2000, rng)
            assert sum(belief.win_counts) == belief.mc_samples
            assert all(p >= 0.0 for p in belief.pi)
            assert math.fsum(belief.pi) == pytest.approx(1.0, abs=1e-12)

    def test_shifting_a_mean_up_does_not_decrease_its_pi(self):
        base = [fold([0.60, 0.65, 0.70]), fold([0.62, 0.67, 0.72]), fold([0.58, 0.63, 0.68])]
        shifted = list(base)
        s = base[0]
        shifted[0] = ModelStats(count=s.count, mean=s.mean + 0.05, sq_dev_sum=s.sq_dev_sum)
        # Shared stream: same seed means identical posterior noise, so the
        # shifted model's win set is a superset of its unshifted one.
        pi_base = estimate_pi(base, 100_000, np.random.default_rng(9)).pi[0]
        pi_shifted = estimate_pi(shifted, 100_000, np.random.default_rng(9)).pi[0]
        assert pi_shifted >= pi_base


class TestTransform:
    def test_logit_midpoint(self):
        assert transform_score(0.5, TransformMode.logit()) == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        mode = TransformMode.identity()
        for x in [-3.5, 0.0, 0.5, 1.0, 42.0]:
            assert transform_score(x, mode) == x

    def test_logit_clamps_boundary(self):
        expected = math.log((1 - 1e-6) / 1e-6)
        assert transform_score(1.0, TransformMode.logit(1e-6)) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(13.8155, abs=5e-5)
        assert transform_score(0.0, TransformMode.logit(1e-6)) == pytest.approx(-expected, rel=1e-9)
        assert transform_score(1.7, TransformMode.logit(1e-6)) == pytest.approx(expected, rel=1e-9)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            TransformMode.logit(0.0)
        with pytest.raises(ValueError):
            TransformMode.logit(0.5)
        with pytest.raises(ValueError):
            TransformMode(kind="sigmoid")
