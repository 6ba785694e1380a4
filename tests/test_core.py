import math

import numpy as np
import pytest

from bestarm import (
    EvaluationRequest,
    EvaluationScore,
    ModelId,
    ModelStats,
    NonFiniteScoreError,
    StreamPurpose,
    make_model_ids,
    rng_stream,
    stats_update,
)
from bestarm.core import point_mass_belief


def two_pass(values):
    """Independent oracle: textbook two-pass mean and sum of squared deviations."""
    values = list(values)
    n = len(values)
    if n == 0:
        return ModelStats()
    mean = sum(values) / n
    return ModelStats(count=n, mean=mean, sq_dev_sum=sum((x - mean) ** 2 for x in values))


def fold(values, start=ModelStats()):
    stats = start
    for x in values:
        stats = stats_update(stats, x)
    return stats


def assert_stats_close(a, b, rel=1e-10):
    assert a.count == b.count
    assert a.mean == pytest.approx(b.mean, rel=rel, abs=1e-15)
    assert a.sq_dev_sum == pytest.approx(b.sq_dev_sum, rel=rel, abs=1e-12)


class TestStatsUpdate:
    def test_single_observation(self):
        s = stats_update(ModelStats(), 0.5)
        assert s == ModelStats(count=1, mean=0.5, sq_dev_sum=0.0)

    def test_constant_sequence(self):
        s = fold([0.5, 0.5, 0.5])
        assert s.count == 3
        assert s.mean == pytest.approx(0.5, rel=1e-12)
        assert s.sq_dev_sum == pytest.approx(0.0, abs=1e-15)

    def test_short_sequence_against_two_pass(self):
        # two-pass oracle: 0.01 + 0 + 0.01 = 0.02
        s = fold([0.6, 0.7, 0.8])
        assert s.mean == pytest.approx(0.7, rel=1e-12)
        assert s.sq_dev_sum == pytest.approx(0.02, rel=1e-10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteScoreError):
            stats_update(ModelStats(), bad)

    @pytest.mark.parametrize("start, score", [
        (ModelStats(count=1, mean=1e200), 1.1e200 + 1e199),  # sq_dev_sum overflows
        (ModelStats(count=1, mean=-1.5e308), 1.5e308),       # the deviation overflows
        (ModelStats(count=2, sq_dev_sum=1.7e308), 1e154),    # the sum overflows
    ])
    def test_rejects_finite_scores_whose_statistics_overflow(self, start, score):
        with pytest.raises(NonFiniteScoreError, match="statistics overflow"):
            stats_update(start, score)

    def test_empty_convention(self):
        s = ModelStats()
        assert (s.count, s.mean, s.sq_dev_sum) == (0, 0.0, 0.0)

    def test_agrees_with_two_pass_on_random_sequences(self):
        rng = np.random.default_rng(2024)
        for length in [1, 2, 3, 10, 137, 1000, 10_000]:
            values = rng.uniform(-1e6, 1e6, size=length).tolist()
            assert_stats_close(fold(values), two_pass(values))

    def test_sq_dev_sum_never_negative(self):
        rng = np.random.default_rng(7)
        stats = ModelStats()
        for x in rng.normal(1e6, 1e-8, size=500):
            stats = stats_update(stats, float(x))
            assert stats.sq_dev_sum >= 0.0


class TestRngStream:
    def test_same_seed_same_purpose_identical(self):
        a = rng_stream(42, StreamPurpose.POSTERIOR).random(16)
        b = rng_stream(42, StreamPurpose.POSTERIOR).random(16)
        assert np.array_equal(a, b)

    def test_purposes_are_independent(self):
        draws = {
            p: rng_stream(42, p).random(8).tobytes()
            for p in StreamPurpose
        }
        assert len(set(draws.values())) == len(StreamPurpose)

    def test_extra_key_parts_separate_streams(self):
        a = rng_stream(42, StreamPurpose.SYNTHETIC, 0, 0).random(4)
        b = rng_stream(42, StreamPurpose.SYNTHETIC, 0, 1).random(4)
        c = rng_stream(42, StreamPurpose.SYNTHETIC, 1, 0).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_different_seeds_differ(self):
        a = rng_stream(1, StreamPurpose.ALGORITHM).random(8)
        b = rng_stream(2, StreamPurpose.ALGORITHM).random(8)
        assert not np.array_equal(a, b)


class TestDomainTypes:
    def test_model_ids_contiguous(self):
        models = make_model_ids(["a", "b", "c"])
        assert [m.index for m in models] == [0, 1, 2]
        assert [m.name for m in models] == ["a", "b", "c"]

    def test_model_ids_reject_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_model_ids(["a", "b", "a"])

    def test_score_rejects_non_finite(self):
        req = EvaluationRequest(model=ModelId("m", 0), split_seed=1, model_seed=2, sequence=0)
        with pytest.raises(NonFiniteScoreError):
            EvaluationScore(request=req, score=math.nan)

    def test_point_mass_belief(self):
        stats = (ModelStats(), fold([0.1, 0.2]))
        belief = point_mass_belief(stats, 1)
        assert belief.pi == (0.0, 1.0)
        assert belief.mc_samples == 1
        assert sum(belief.win_counts) == belief.mc_samples
        assert belief.argmax() == 1

    def test_stats_and_belief_are_immutable(self):
        import dataclasses

        stats = fold([0.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.mean = 1.0
        belief = point_mass_belief((stats,), 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            belief.pi = (0.5,)
