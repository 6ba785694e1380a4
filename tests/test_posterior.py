import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scistats

from bestarm import (
    InsufficientDataError,
    ModelStats,
    PosteriorDraws,
    PosteriorParams,
    TransformMode,
    VARIANCE_FLOOR,
    estimate_pi,
    posterior_from_stats,
    rng_stream,
    stats_update,
    transform_score,
)
from bestarm import posterior
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
        belief = estimate_pi(stats, 100_000, PosteriorDraws(101))
        sigma = math.sqrt((1 / 5) * (4 / 5) / 100_000)
        for p in belief.pi:
            assert abs(p - 0.2) <= 3 * sigma

    def test_two_separated_models(self):
        # Frozen from an independent oracle (1e7 scipy t draws, cross-checked
        # analytically: pi2 = 1 - P(Cauchy(0,2) > gap/scale) = 0.97407). The
        # heavy dof=1 tails keep pi2 well below 1 despite the wide gap.
        stats = [fold([0.60, 0.61, 0.62]), fold([0.80, 0.81, 0.82])]
        belief = estimate_pi(stats, 100_000, PosteriorDraws(55))
        assert belief.pi[1] == pytest.approx(0.97407, abs=0.003)
        assert belief.pi[1] > 0.95

    def test_single_model(self):
        belief = estimate_pi([fold([0.5, 0.6, 0.7])], 1000, PosteriorDraws(1))
        assert belief.pi == (1.0,)
        assert belief.win_counts == (1000,)

    def test_requires_three_evals_everywhere(self):
        stats = [fold([0.5, 0.6, 0.7]), fold([0.5, 0.6])]
        with pytest.raises(InsufficientDataError):
            estimate_pi(stats, 100, PosteriorDraws(1))

    def test_rejects_non_positive_mc_samples(self):
        with pytest.raises(ValueError):
            estimate_pi([fold([0.5, 0.6, 0.7])], 0, PosteriorDraws(1))

    def test_rejects_empty_candidate_set(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_pi([], 100, PosteriorDraws(1))

    def test_probability_vector_is_valid(self):
        rng = np.random.default_rng(2)
        for i in range(20):
            n = int(rng.integers(1, 8))
            stats = [
                fold(rng.normal(rng.uniform(0, 1), rng.uniform(0.001, 0.3),
                                size=int(rng.integers(3, 12))).tolist())
                for _ in range(n)
            ]
            belief = estimate_pi(stats, 2000, PosteriorDraws(i))
            assert sum(belief.win_counts) == belief.mc_samples
            assert all(p >= 0.0 for p in belief.pi)
            assert math.fsum(belief.pi) == pytest.approx(1.0, abs=1e-12)

    def test_shifting_a_mean_up_does_not_decrease_its_pi(self):
        base = [fold([0.60, 0.65, 0.70]), fold([0.62, 0.67, 0.72]), fold([0.58, 0.63, 0.68])]
        shifted = list(base)
        s = base[0]
        shifted[0] = ModelStats(count=s.count, mean=s.mean + 0.05, sq_dev_sum=s.sq_dev_sum)
        # Same seed and counts mean identical posterior noise, so the
        # shifted model's win set is a superset of its unshifted one.
        pi_base = estimate_pi(base, 100_000, PosteriorDraws(9)).pi[0]
        pi_shifted = estimate_pi(shifted, 100_000, PosteriorDraws(9)).pi[0]
        assert pi_shifted >= pi_base

    def test_exact_ties_split_evenly(self):
        # At a centre of 1e10 one ulp is about 2e-6, twenty times the floored
        # scale of about 1e-7, so most rows hold the same value in both columns.
        stats = [ModelStats(count=12, mean=1e10, sq_dev_sum=0.0)] * 2
        draws = PosteriorDraws(4)
        belief = estimate_pi(stats, 20_000, draws)
        assert np.count_nonzero(draws.matrix[:, 0] == draws.matrix[:, 1]) > 15_000
        sigma = math.sqrt(0.25 / 20_000)
        assert abs(belief.pi[0] - 0.5) <= 4 * sigma


ORACLE_MC = 40_000


def oracle_stats(case):
    """Random statistics for 2 to 8 models: every other case has a dof-1
    model, and every third case is a near-tie (means within a third of a
    posterior scale)."""
    rng = np.random.default_rng(1000 + case)
    n = int(rng.integers(2, 9))
    counts = rng.integers(3, 13, size=n)
    if case % 2 == 0:
        counts[rng.integers(n)] = 3
    scale = rng.uniform(0.005, 0.05, size=n)
    spread = 0.3 if case % 3 == 0 else 3.0
    means = 0.7 + spread * float(np.median(scale)) * rng.standard_normal(n)
    # sq_dev_sum chosen so that the posterior scale is exactly ``scale``.
    return [ModelStats(count=int(t), mean=float(m), sq_dev_sum=float(s * s * t * (t - 2)))
            for t, m, s in zip(counts, means, scale)]


def exact_pi(stats):
    """pi_i = integral over u in (0, 1) of prod_{j != i} F_j(F_i^-1(u))."""
    params = [posterior_from_stats(s) for s in stats]
    dof, loc, scale = (np.array([getattr(p, k) for p in params]) for k in ("dof", "center", "scale"))
    out = []
    for i in range(len(params)):
        o = np.arange(len(params)) != i

        def integrand(u):
            x = scistats.t.ppf(u, dof[i], loc=loc[i], scale=scale[i])
            return float(np.prod(scistats.t.cdf(x, dof[o], loc=loc[o], scale=scale[o])))

        # Break the range where the other models' CDFs rise, so that quad
        # cannot step over a narrow rise.
        qs = scistats.t.ppf([[1e-4], [0.5], [1 - 1e-4]], dof[o], loc=loc[o], scale=scale[o])
        points = np.unique(scistats.t.cdf(qs, dof[i], loc=loc[i], scale=scale[i]))
        points = points[(points > 0) & (points < 1)]
        out.append(integrate.quad(integrand, 0.0, 1.0, points=points, limit=200, epsabs=1e-6)[0])
    return out


class TestExactOracle:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("case", range(20))
    def test_estimate_pi_matches_exact_pi(self, case):
        stats = oracle_stats(case)
        exact = exact_pi(stats)
        assert math.fsum(exact) == pytest.approx(1.0, abs=1e-4)
        belief = estimate_pi(stats, ORACLE_MC, PosteriorDraws(case))
        for estimate, p in zip(belief.pi, exact):
            # The variance floor of 1/mc keeps p near 0 or 1 from demanding
            # an exact match.
            se = math.sqrt(max(p * (1 - p), 1 / ORACLE_MC) / ORACLE_MC)
            assert abs(estimate - p) <= 4 * se, (stats, exact, belief.pi)


def with_one_more_score(stats, models):
    """``stats`` with one more evaluation, a tenth of a posterior scale
    above the mean, folded into each model in ``models``."""
    out = list(stats)
    for j in models:
        out[j] = stats_update(out[j], out[j].mean + 0.1 * posterior_from_stats(out[j]).scale)
    return out


class TestPosteriorDraws:
    def test_columns_depend_only_on_seed_model_and_count(self):
        # Two campaigns reach the same statistics with models 0 and 1
        # evaluated in opposite orders; a fresh cache jumps straight there.
        start = oracle_stats(1)
        final = with_one_more_score(with_one_more_score(start, [0]), [1])
        beliefs, matrices = [], []
        for path in ([start, with_one_more_score(start, [0]), final],
                     [start, with_one_more_score(start, [1]), final],
                     [final]):
            draws = PosteriorDraws(77)
            for stats in path:
                belief = estimate_pi(stats, 5000, draws)
            beliefs.append(belief.win_counts)
            matrices.append(draws.matrix.tobytes())
        assert beliefs[0] == beliefs[1] == beliefs[2]
        assert matrices[0] == matrices[1] == matrices[2]

    def test_update_redraws_only_the_changed_columns(self, monkeypatch):
        stats = oracle_stats(4)
        draws = PosteriorDraws(5)
        estimate_pi(stats, 5000, draws)
        before = draws.matrix.copy()
        keys = []

        def recording_stream(seed, purpose, *key):
            keys.append(key)
            return rng_stream(seed, purpose, *key)

        monkeypatch.setattr(posterior, "rng_stream", recording_stream)
        changed = {1, len(stats) - 1}
        estimate_pi(with_one_more_score(stats, changed), 5000, draws)
        assert sorted(keys) == [(j, stats[j].count + 1) for j in sorted(changed)]
        for j in range(len(stats)):
            same = draws.matrix[:, j].tobytes() == before[:, j].tobytes()
            assert same == (j not in changed), j

    def test_same_counts_with_other_statistics_redraw(self):
        stats = oracle_stats(2)
        draws = PosteriorDraws(6)
        estimate_pi(stats, 1000, draws)
        s = stats[0]
        moved = [ModelStats(count=s.count, mean=s.mean + 1.0, sq_dev_sum=s.sq_dev_sum), *stats[1:]]
        belief = estimate_pi(moved, 1000, draws)
        assert belief.win_counts == estimate_pi(moved, 1000, PosteriorDraws(6)).win_counts

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("case", range(6))
    def test_warm_cache_matches_exact_pi(self, case):
        # Perturb a third of the models per warming step, so that at the
        # final update the columns were last drawn at three different updates.
        stats = oracle_stats(case)
        n = len(stats)
        draws = PosteriorDraws(500 + case)
        for k in range(3):
            estimate_pi(with_one_more_score(stats, range(k, n, 3)), ORACLE_MC, draws)
        belief = estimate_pi(stats, ORACLE_MC, draws)
        exact = exact_pi(stats)
        for estimate, p in zip(belief.pi, exact):
            se = math.sqrt(max(p * (1 - p), 1 / ORACLE_MC) / ORACLE_MC)
            assert abs(estimate - p) <= 4 * se, (stats, exact, belief.pi)


def per_row_win_counts(block, tie_stream):
    """Reference scorer: each row in order goes to its maximum, or to a
    column drawn from ``tie_stream`` among those tied at it."""
    counts = [0] * block.shape[1]
    for row in block:
        tied = np.flatnonzero(row == row.max())
        counts[tied[int(tie_stream.integers(tied.size))] if tied.size > 1 else tied[0]] += 1
    return counts


def win_counts(block, tie_stream):
    return posterior._win_counts(block, tie_stream)


class TestWinCounts:
    def test_matches_row_argmax_without_ties(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 9):
            block = np.asfortranarray(rng.standard_normal((3001, n)))
            tie_stream = np.random.default_rng(0)
            counts = win_counts(block, tie_stream)
            assert counts == np.bincount(block.argmax(axis=1), minlength=n).tolist()
            assert all(type(c) is int for c in counts)
            assert tie_stream.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_exact_ties_draw_once_per_tied_row(self):
        block = np.asfortranarray([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [3.0, 3.0, 3.0]])
        tie_stream = np.random.default_rng(5)
        counts = win_counts(block, tie_stream)
        reference = np.random.default_rng(5)
        winners = [[0, 1][int(reference.integers(2))], 1, int(reference.integers(3))]
        assert counts == np.bincount(winners, minlength=3).tolist()
        assert tie_stream.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_rounded_block_consumes_the_tie_stream_as_the_per_row_reference(self, n):
        block = np.asfortranarray(np.random.default_rng(n).standard_normal((2000, n)).round(1))
        tie_stream, reference = np.random.default_rng(3), np.random.default_rng(3)
        assert win_counts(block, tie_stream) == per_row_win_counts(block, reference)
        assert tie_stream.bit_generator.state == reference.bit_generator.state
        assert tie_stream.bit_generator.state != np.random.default_rng(3).bit_generator.state

    @pytest.mark.parametrize("mc", [1, 3, 7, 1001])
    def test_estimate_pi_equals_row_argmax_at_unequal_chunk_widths(self, mc):
        stats = oracle_stats(5)
        draws = PosteriorDraws(4)
        belief = estimate_pi(stats, mc, draws)
        assert belief.mc_samples == mc
        reference = np.bincount(draws.matrix.argmax(axis=1), minlength=len(stats)).tolist()
        assert list(belief.win_counts) == reference
        assert belief.pi == tuple(c / mc for c in reference)


class TestChunkedBelief:
    MC = 4000

    def test_never_confident_where_full_rows_are_not(self):
        # Each case is judged at four fixed thresholds and at two just below
        # the full-row leader, where an early exit is most likely to hide a
        # stop. Measured at EXIT_Z = 4: 0 of 1200 decisions disagree (0 of
        # 1800 over 300 cases); at EXIT_Z = 2 it is 0.6%, at 0 it is 21%.
        decisions = disagree = early = 0
        for case in range(200):
            stats = oracle_stats(case)
            full = estimate_pi(stats, self.MC, PosteriorDraws(case))
            assert full.mc_samples == self.MC
            top = max(full.pi)
            for threshold in (0.8, 0.9, 0.95, 0.99, top - 1e-9, top - 0.01):
                if not 0.0 < threshold < 1.0:
                    continue
                chunked = estimate_pi(stats, self.MC, PosteriorDraws(case), confident_above=threshold)
                if max(chunked.pi) > threshold:
                    # Confidence is only ever reported on the full-row belief.
                    assert chunked == full, (case, threshold)
                decisions += 1
                disagree += (max(full.pi) > threshold) != (max(chunked.pi) > threshold)
                early += chunked.mc_samples < self.MC
        assert decisions >= 1000
        assert early >= decisions // 4
        assert disagree <= 2, f"{disagree} of {decisions} stop decisions differ"

    def test_chunked_fill_equals_one_shot_fill(self):
        # A near-tie exits after its first chunk at a threshold of 0.999; one
        # column then moves and the next belief also exits early; the last
        # call fills every column to full rows, some chunk by chunk across
        # three updates, and must match a cache that went straight there.
        start = oracle_stats(3)
        moved = with_one_more_score(start, [0])
        draws = PosteriorDraws(8)
        assert estimate_pi(start, self.MC, draws, confident_above=0.999).mc_samples < self.MC
        assert estimate_pi(moved, self.MC, draws, confident_above=0.999).mc_samples < self.MC
        chunked = estimate_pi(moved, self.MC, draws)
        fresh = PosteriorDraws(8)
        one_shot = estimate_pi(moved, self.MC, fresh)
        assert chunked == one_shot
        assert draws.matrix.tobytes() == fresh.matrix.tobytes()

    def test_rows_end_on_a_chunk_boundary(self):
        belief = estimate_pi(oracle_stats(3), 1001, PosteriorDraws(2), confident_above=0.999)
        assert belief.mc_samples in posterior.chunk_ends(1001)[:-1]
        assert sum(belief.win_counts) == belief.mc_samples
        assert math.fsum(belief.pi) == pytest.approx(1.0, abs=1e-12)

    def test_leader_at_pi_one_goes_to_full_rows(self):
        # Model 1 is over a hundred posterior scales ahead at dof 28, so it wins
        # every row of every chunk; p = 1 has no standard error to subtract.
        stats = [ModelStats(count=30, mean=0.1, sq_dev_sum=0.03), ModelStats(count=30, mean=0.9, sq_dev_sum=0.03)]
        belief = estimate_pi(stats, self.MC, PosteriorDraws(3), confident_above=1 - 1e-9)
        assert belief.mc_samples == self.MC
        assert belief.win_counts == (0, self.MC)


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
