import inspect
import math
import os
import sys
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats as scistats

from bestarm import (
    BudgetTooSmallError,
    ConfigError,
    EvaluationError,
    EvaluatorFailure,
    EventKind,
    Gaussian,
    ReplayEvaluator,
    SubprocessEvaluator,
    SyntheticEvaluator,
    TerminationReason,
    TransformMode,
    UndefinedComplexityError,
    bts,
    complexity_h,
    nonadaptive_fixed_budget,
    nonadaptive_fixed_confidence,
    sequential_halving,
    ttts,
)
from bestarm import StreamPurpose, posterior, rng_stream
from bestarm.algorithms import _Campaign
from bestarm.cli import ModeConfig
from bestarm.evaluators import Evaluator, ExhaustionPolicy

ECHO_CHILD = os.path.join(os.path.dirname(__file__), "echo_child.py")

FIG_MEANS = [0.65, 0.69, 0.69, 0.70, 0.71]


def synthetic(means, sd=0.01):
    names = [f"m{i}" for i in range(len(means))]
    dists = {name: Gaussian(mean=mu, sd=sd) for name, mu in zip(names, means)}
    return SyntheticEvaluator(dists, names)


def events_of(result, kind):
    return [e for e in result.trace if e.kind is kind]


def check_trace_invariants(result):
    assert result.total_evals == sum(result.eval_counts)
    assert len(events_of(result, EventKind.EVALUATED)) == result.total_evals
    seqs = [e.seq for e in result.trace]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert result.trace[-1].kind is EventKind.TERMINATED


class FailAfter(Evaluator):
    """Delegates to an inner evaluator, then fails on the (n+1)th collect."""

    def __init__(self, inner, fail_after):
        self.models = inner.models
        self._inner = inner
        self._fail_after = fail_after
        self._collected = 0

    @property
    def max_in_flight(self):
        return self._inner.max_in_flight

    def submit(self, request):
        self._inner.submit(request)

    def collect(self):
        if self._collected >= self._fail_after:
            raise EvaluatorFailure("synthetic back-end failure")
        self._collected += 1
        return self._inner.collect()

    def pending(self):
        return self._inner.pending()


class TestSequentialHalving:
    def test_golden_schedule_four_models(self):
        evaluator = synthetic([0.60, 0.70, 0.65, 0.55])
        result = sequential_halving(evaluator, campaign_seed=1, budget=16)
        check_trace_invariants(result)
        rounds = events_of(result, EventKind.ROUND_STARTED)
        assert [r.payload["evals_per_model"] for r in rounds] == [2, 4]
        assert [len(r.payload["survivors"]) for r in rounds] == [4, 2]
        assert result.total_evals == 16
        assert result.terminated_by is TerminationReason.BUDGET_EXHAUSTED
        # per-model evaluations: 2 for first-round eliminees, 6 for finalists
        assert sorted(result.eval_counts) == [2, 2, 6, 6]

    def test_two_models_single_round(self):
        evaluator = synthetic([0.40, 0.90])
        result = sequential_halving(evaluator, campaign_seed=3, budget=10)
        rounds = events_of(result, EventKind.ROUND_STARTED)
        assert len(rounds) == 1
        assert rounds[0].payload["evals_per_model"] == 5
        assert result.eval_counts == (5, 5)
        assert result.chosen.name == "m1"

    def test_three_models_floor_arithmetic(self):
        # hand-executed schedule: 2 rounds; 2 evals each of 3, then 3 each of 2
        evaluator = synthetic([0.30, 0.50, 0.70])
        result = sequential_halving(evaluator, campaign_seed=5, budget=12)
        rounds = events_of(result, EventKind.ROUND_STARTED)
        assert [r.payload["evals_per_model"] for r in rounds] == [2, 3]
        assert result.total_evals == 12
        elim = events_of(result, EventKind.ELIMINATED)
        assert [len(e.payload["models"]) for e in elim] == [1, 1]

    def test_budget_too_small(self):
        evaluator = synthetic([0.1] * 12)
        with pytest.raises(BudgetTooSmallError, match="budget too small"):
            sequential_halving(evaluator, campaign_seed=7, budget=10)

    def test_budget_boundary(self):
        means = list(np.linspace(0.1, 0.9, 12))
        need = 12 * math.ceil(math.log2(12))
        evaluator = synthetic(means)
        with pytest.raises(BudgetTooSmallError):
            sequential_halving(evaluator, campaign_seed=9, budget=need - 1)
        evaluator = synthetic(means)
        result = sequential_halving(evaluator, campaign_seed=9, budget=need)
        assert result.total_evals <= need

    def test_requires_two_models(self):
        evaluator = synthetic([0.5])
        with pytest.raises(ValueError):
            sequential_halving(evaluator, campaign_seed=1, budget=10)

    @pytest.mark.parametrize("n,budget", [(2, 9), (3, 17), (5, 61), (6, 40), (7, 77),
                                          (8, 100), (12, 204), (16, 301)])
    def test_schedule_conservation(self, n, budget):
        rng = np.random.default_rng(n * 1000 + budget)
        means = rng.uniform(0.2, 0.8, size=n).tolist()
        evaluator = synthetic(means)
        result = sequential_halving(evaluator, campaign_seed=n, budget=budget)
        check_trace_invariants(result)
        rounds_expected = math.ceil(math.log2(n))
        rounds = events_of(result, EventKind.ROUND_STARTED)
        assert len(rounds) == rounds_expected
        survivors = n
        total = 0
        for r in rounds:
            assert len(r.payload["survivors"]) == survivors
            per_model = budget // (survivors * rounds_expected)
            assert r.payload["evals_per_model"] == per_model
            total += per_model * survivors
            survivors -= survivors // 2
        assert survivors == 1
        assert result.total_evals == total <= budget

    @pytest.mark.parametrize("n,budget", [(4, 16), (8, 48), (16, 128)])
    def test_final_pair_out_evaluated_first_round_eliminees(self, n, budget):
        rng = np.random.default_rng(n)
        means = rng.uniform(0.2, 0.8, size=n).tolist()
        evaluator = synthetic(means)
        result = sequential_halving(evaluator, campaign_seed=2 * n, budget=budget)
        first_elim = events_of(result, EventKind.ELIMINATED)[0].payload["models"]
        finalists = events_of(result, EventKind.ROUND_STARTED)[-1].payload["survivors"]
        by_name = {m.name: result.eval_counts[m.index] for m in evaluator.models}
        rounds = int(math.log2(n))
        for f in finalists:
            for e in first_elim:
                assert by_name[f] > by_name[e]
                # exact-divisibility schedules hit the 2^rounds - 1 ratio
                assert by_name[f] == (2**rounds - 1) * by_name[e]

    def test_elimination_uses_cumulative_means(self):
        # a: strong first round then mediocre; b: weak first round then strong.
        # Cumulative means keep a ahead (0.8667 vs 0.7667) even though b wins
        # on round-2 scores alone (0.9 vs 0.8).
        evaluator = ReplayEvaluator(
            {
                "a": [1.0, 1.0, 0.8, 0.8, 0.8, 0.8],
                "b": [0.5, 0.5, 0.9, 0.9, 0.9, 0.9],
                "c": [0.1, 0.1],
                "d": [0.2, 0.2],
            },
            ["a", "b", "c", "d"],
            exhaustion_policy=ExhaustionPolicy.ERROR,
        )
        result = sequential_halving(evaluator, campaign_seed=0, budget=16)
        assert result.chosen.name == "a"

    def test_boundary_ties_break_randomly(self):
        winners = set()
        for seed in range(40):
            evaluator = ReplayEvaluator(
                {"a": [0.5] * 10, "b": [0.5] * 10}, ["a", "b"], ExhaustionPolicy.CYCLE
            )
            result = sequential_halving(evaluator, campaign_seed=seed, budget=4)
            winners.add(result.chosen.name)
        assert winners == {"a", "b"}

    def test_unused_budget_reported(self):
        evaluator = synthetic([0.3, 0.5, 0.7])
        result = sequential_halving(evaluator, campaign_seed=11, budget=13)
        terminated = result.trace[-1]
        assert terminated.payload["unused_budget"] == 13 - result.total_evals

    def test_failure_keeps_emitted_events(self):
        inner = synthetic([0.3, 0.5, 0.7, 0.9])
        evaluator = FailAfter(inner, fail_after=5)
        events = []
        with pytest.raises(EvaluatorFailure):
            sequential_halving(evaluator, campaign_seed=13, budget=16,
                               on_event=events.append)
        assert events[0].kind is EventKind.ROUND_STARTED
        assert [e.seq for e in events] == list(range(len(events)))
        evaluated = [e for e in events if e.kind is EventKind.EVALUATED]
        assert len(evaluated) <= 5
        assert all(e.kind is not EventKind.TERMINATED for e in events)

    def test_reproducible(self):
        for _ in range(2):
            results = []
            for attempt in range(2):
                evaluator = synthetic([0.6, 0.65, 0.7, 0.75])
                results.append(
                    sequential_halving(evaluator, campaign_seed=42, budget=24)
                )
            assert results[0] == results[1]


class TestTtts:
    def test_wide_separation_stops_at_minimum(self):
        # 10 sd of separation: the initial posterior is already past the 0.8
        # threshold essentially always, so every run stops at 3 evals each.
        for seed in range(50):
            evaluator = synthetic([0.5, 0.6], sd=0.01)
            result = ttts(
                evaluator, campaign_seed=seed, delta=0.2,
                mc_samples=4000,
            )
            assert result.total_evals == 6
            assert result.eval_counts == (3, 3)
            assert result.chosen.name == "m1"
            assert result.terminated_by is TerminationReason.CONFIDENCE_REACHED
            assert max(result.final_belief.pi) > 0.8

    def test_five_arm_problem_selects_best_and_concentrates(self):
        evaluator = synthetic(FIG_MEANS, sd=0.01)
        result = ttts(
            evaluator, campaign_seed=1234, delta=0.01,
            mc_samples=10_000,
        )
        check_trace_invariants(result)
        assert result.terminated_by is TerminationReason.CONFIDENCE_REACHED
        assert result.chosen.name == "m4"
        # effort concentrates on the two closest contenders
        top_two = result.eval_counts[3] + result.eval_counts[4]
        assert top_two > result.total_evals / 2

    def test_drawn_pairs_are_distinct(self):
        evaluator = synthetic(FIG_MEANS, sd=0.01)
        result = ttts(
            evaluator, campaign_seed=77, delta=0.05,
            mc_samples=4000,
        )
        steps = [e for e in events_of(result, EventKind.EVALUATED) if "candidates" in e.payload]
        assert steps, "adaptive phase never ran"
        for e in steps:
            first, second = e.payload["candidates"]
            assert first != second
            assert e.payload["model"] in (first, second)

    def test_stopping_contract(self):
        for seed in (5, 6, 7):
            evaluator = synthetic([0.60, 0.63, 0.70], sd=0.02)
            delta = 0.1
            result = ttts(evaluator, campaign_seed=seed, delta=delta, mc_samples=4000)
            if result.terminated_by is TerminationReason.CONFIDENCE_REACHED:
                assert max(result.final_belief.pi) > 1 - delta
            assert all(c >= 3 for c in result.eval_counts)
            assert result.chosen.index == result.final_belief.argmax()

    def test_safeguard_on_symmetric_arms(self):
        evaluator = synthetic([0.5, 0.5], sd=1e-12)
        result = ttts(evaluator, campaign_seed=3, delta=0.05, max_evals=6,
                      mc_samples=20_000)
        assert result.terminated_by is TerminationReason.MAX_EVALS_SAFEGUARD
        assert result.total_evals == 6
        assert result.final_belief.pi[0] == pytest.approx(0.5, abs=0.02)

    def test_single_candidate(self):
        evaluator = synthetic([0.7])
        result = ttts(evaluator, campaign_seed=2, delta=0.05,
                      mc_samples=1000)
        assert result.total_evals == 3
        assert result.terminated_by is TerminationReason.CONFIDENCE_REACHED
        assert result.final_belief.pi == (1.0,)

    def test_safeguard_must_cover_initialization(self):
        evaluator = synthetic([0.5, 0.6])
        with pytest.raises(ConfigError, match="max_evals"):
            ttts(evaluator, campaign_seed=2, delta=0.05, max_evals=5)

    def test_reproducible(self):
        results = []
        for attempt in range(2):
            evaluator = synthetic(FIG_MEANS, sd=0.01)
            results.append(
                ttts(evaluator, campaign_seed=42, delta=0.1,
                     mc_samples=4000)
            )
        assert results[0] == results[1]

    def test_identity_transform_is_bit_identical_to_default(self):
        runs = []
        for transform in (None, TransformMode.identity()):
            evaluator = synthetic(FIG_MEANS, sd=0.01)
            kwargs = {} if transform is None else {"transform": transform}
            runs.append(
                ttts(evaluator, campaign_seed=9, delta=0.2,
                     mc_samples=4000, **kwargs)
            )
        assert runs[0] == runs[1]


class TestBts:
    def test_sync_batch_updates_once_per_batch(self):
        evaluator = synthetic([0.60, 0.70], sd=0.02)
        result = bts(
            evaluator, campaign_seed=21, delta=0.1, batch_size=4, sync=True,
            mc_samples=4000,
        )
        check_trace_invariants(result)
        adaptive = result.total_evals - 6
        assert adaptive % 4 == 0
        updates = len(events_of(result, EventKind.BELIEF_UPDATED))
        assert updates == 1 + adaptive // 4

    def test_async_updates_after_every_eval(self):
        evaluator = synthetic([0.60, 0.70], sd=0.02)
        result = bts(
            evaluator, campaign_seed=23, delta=0.1, batch_size=4, sync=False,
            mc_samples=4000,
        )
        check_trace_invariants(result)
        updates = len(events_of(result, EventKind.BELIEF_UPDATED))
        assert updates == 1 + (result.total_evals - 6)

    def test_sync_and_async_b1_identically_distributed(self):
        # distributional equality over 200 runs each, disjoint seed ranges
        def totals(sync, base_seed):
            out = []
            for i in range(200):
                evaluator = synthetic([0.55, 0.65], sd=0.02)
                result = bts(
                    evaluator, campaign_seed=base_seed + i, delta=0.2, batch_size=1,
                    sync=sync, mc_samples=2000,
                )
                out.append(result.total_evals)
            return out

        sync_totals = totals(True, 0)
        async_totals = totals(False, 10_000)
        assert scistats.ks_2samp(sync_totals, async_totals, method="asymp").pvalue > 0.01

    def test_b1_sync_equals_b1_async_at_same_seed(self):
        results = []
        for sync in (True, False):
            evaluator = synthetic([0.55, 0.65], sd=0.02)
            results.append(
                bts(evaluator, campaign_seed=31, delta=0.2, batch_size=1, sync=sync,
                    mc_samples=2000)
            )
        assert results[0].total_evals == results[1].total_evals
        assert results[0].chosen == results[1].chosen
        assert results[0].trace == results[1].trace

    @pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
    def test_b4_in_flight_against_a_reordering_child(self, sync):
        names = ["a", "b"]
        evaluator = Recording(SubprocessEvaluator(
            [sys.executable, ECHO_CHILD, "--reorder", "--max-in-flight", "4"], names
        ))
        # The child scores by request id alone, so the campaign runs to the safeguard.
        try:
            result = bts(
                evaluator, campaign_seed=7, delta=0.01, max_evals=40,
                batch_size=4, sync=sync, mc_samples=200,
                on_event=lambda e: evaluator.log.append((e.kind, evaluator.pending())),
            )
            in_flight_at_end = evaluator.pending()
        finally:
            evaluator.close()
        assert result.terminated_by is TerminationReason.MAX_EVALS_SAFEGUARD
        assert max(n for _, n in evaluator.log) == 4
        first_belief = evaluator.log.index((EventKind.BELIEF_UPDATED, 0))
        after_init = evaluator.log[first_belief:]
        beliefs = [n for kind, n in after_init if kind is EventKind.BELIEF_UPDATED]
        folded = [e.payload["request"] for e in events_of(result, EventKind.EVALUATED)]
        step = 4 if sync else 1
        assert len(beliefs) == 1 + (result.total_evals - 6) // step
        if sync:
            assert set(beliefs) == {0} and in_flight_at_end == 0
            assert folded == sorted(folded)
        else:
            # It stops at a belief, before topping up what it just collected.
            assert beliefs == [0] + [3] * (len(beliefs) - 1) and in_flight_at_end == 3
            filled = after_init[after_init.index(("submit", 4)):]
            assert all(n == 4 for kind, n in filled if kind == "submit")
            assert all(n == 3 for kind, n in filled if kind == "collect")
            assert folded != sorted(folded)
        submitted = [r.sequence for r in evaluator.requests]
        assert len(set(submitted)) == len(submitted)
        assert len(set(folded)) == len(folded) == result.total_evals
        assert set(folded) <= set(submitted)
        assert len(submitted) - len(folded) == in_flight_at_end

    def test_batch_size_beyond_capacity_rejected(self):
        names = ["a", "b"]
        evaluator = SubprocessEvaluator(
            [sys.executable, ECHO_CHILD, "--max-in-flight", "2"], names
        )
        try:
            with pytest.raises(ConfigError, match="batch_size"):
                bts(evaluator, campaign_seed=1, delta=0.2, batch_size=4)
        finally:
            evaluator.close()

    def test_flaky_evaluations_retried_once(self):
        names = ["a", "b"]
        evaluator = SubprocessEvaluator(
            [sys.executable, ECHO_CHILD, "--flaky", "--const-score", "0.5",
             "--max-in-flight", "4"],
            names,
        )
        try:
            result = bts(evaluator, campaign_seed=5, delta=0.5, max_evals=8,
                         batch_size=2, mc_samples=1000)
            assert result.total_evals >= 6
        finally:
            evaluator.close()

    def test_persistent_error_aborts_campaign(self):
        names = ["a", "b"]
        evaluator = SubprocessEvaluator(
            [sys.executable, ECHO_CHILD, "--error-model", "b", "--max-in-flight", "4"],
            names,
        )
        events = []
        try:
            with pytest.raises(EvaluationError):
                bts(evaluator, campaign_seed=5, delta=0.05, batch_size=2,
                    mc_samples=1000, on_event=events.append)
            # It fails inside its first batch, so nothing may have been emitted.
            assert all(e.kind is not EventKind.TERMINATED for e in events)
        finally:
            evaluator.close()

    def test_ttts_does_not_retry(self):
        names = ["a", "b"]
        evaluator = SubprocessEvaluator(
            [sys.executable, ECHO_CHILD, "--flaky", "--max-in-flight", "4"], names
        )
        try:
            with pytest.raises(EvaluationError):
                ttts(evaluator, campaign_seed=5, delta=0.05,
                     mc_samples=1000)
        finally:
            evaluator.close()


class Recording(Evaluator):
    """Pass-through wrapper that keeps every request it sees, and logs
    ("submit" or "collect", requests in flight after the call)."""

    def __init__(self, inner):
        self.models = inner.models
        self._inner = inner
        self.requests = []
        self.log = []

    @property
    def max_in_flight(self):
        return self._inner.max_in_flight

    def submit(self, request):
        self.requests.append(request)
        self._inner.submit(request)
        self.log.append(("submit", self._inner.pending()))

    def collect(self):
        score = self._inner.collect()
        self.log.append(("collect", self._inner.pending()))
        return score

    def pending(self):
        return self._inner.pending()

    def close(self):
        self._inner.close()


class TestRequestStream:
    @pytest.mark.parametrize("size", [1, 2, 8, 200])
    def test_block_seeds_equal_one_draw_per_request(self, size):
        campaign = _Campaign(synthetic(FIG_MEANS), 3)
        models = campaign.models
        campaign.new_requests(models[:2])
        batch = [models[i % len(models)] for i in range(size)]
        requests = campaign.new_requests(batch)
        splits = rng_stream(3, StreamPurpose.SPLIT_SEED)
        model_seeds = rng_stream(3, StreamPurpose.MODEL_SEED)
        singles = [(int(splits.integers(0, 2**64, dtype=np.uint64)),
                    int(model_seeds.integers(0, 2**64, dtype=np.uint64))) for _ in range(2 + size)]
        assert [(r.split_seed, r.model_seed) for r in requests] == singles[2:]
        assert [r.sequence for r in requests] == list(range(2, 2 + size))
        assert [r.model for r in requests] == batch
        assert all(type(r.split_seed) is int and type(r.model_seed) is int for r in requests)

    def test_seeds_fresh_and_sequences_increasing(self):
        inner = synthetic(FIG_MEANS, sd=0.01)
        evaluator = Recording(inner)
        ttts(evaluator, campaign_seed=61, delta=0.2,
             mc_samples=2000)
        reqs = evaluator.requests
        assert [r.sequence for r in reqs] == list(range(len(reqs)))
        seed_pairs = [(r.split_seed, r.model_seed) for r in reqs]
        assert len(set(seed_pairs)) == len(seed_pairs)
        assert all(0 <= r.split_seed < 2**64 and 0 <= r.model_seed < 2**64 for r in reqs)


class TestBaselines:
    def test_fixed_budget_splits_equally(self):
        means = list(np.linspace(0.3, 0.8, 12))
        evaluator = synthetic(means, sd=0.01)
        result = nonadaptive_fixed_budget(evaluator, campaign_seed=41, budget=24)
        check_trace_invariants(result)
        assert result.eval_counts == (2,) * 12
        assert result.total_evals == 24
        assert result.terminated_by is TerminationReason.BUDGET_EXHAUSTED

    def test_fixed_budget_single_model(self):
        evaluator = synthetic([0.5])
        result = nonadaptive_fixed_budget(evaluator, campaign_seed=43, budget=7)
        assert result.eval_counts == (7,)
        assert result.chosen.name == "m0"

    def test_fixed_budget_floor_leftover(self):
        evaluator = synthetic([0.4, 0.6])
        result = nonadaptive_fixed_budget(evaluator, campaign_seed=45, budget=5)
        assert result.eval_counts == (2, 2)
        assert result.trace[-1].payload["unused_budget"] == 1

    def test_fixed_confidence_stops_after_init_when_separated(self):
        for seed in range(10):
            evaluator = synthetic([0.4, 0.5, 0.6], sd=0.01)
            result = nonadaptive_fixed_confidence(
                evaluator, campaign_seed=seed, delta=0.2,
                mc_samples=4000,
            )
            assert result.total_evals == 9
            assert result.eval_counts == (3, 3, 3)
            assert result.chosen.name == "m2"

    def test_fixed_confidence_counts_stay_equal(self):
        evaluator = synthetic([0.60, 0.61, 0.62], sd=0.05)
        result = nonadaptive_fixed_confidence(
            evaluator, campaign_seed=47, delta=0.2, max_evals=120,
            mc_samples=2000,
        )
        check_trace_invariants(result)
        assert len(set(result.eval_counts)) == 1

    def test_fixed_confidence_safeguard(self):
        evaluator = synthetic([0.5, 0.5], sd=1e-12)
        result = nonadaptive_fixed_confidence(
            evaluator, campaign_seed=49, delta=0.05, max_evals=10,
            mc_samples=2000,
        )
        assert result.terminated_by is TerminationReason.MAX_EVALS_SAFEGUARD
        assert result.total_evals <= 10
        assert len(set(result.eval_counts)) == 1


class TestComplexityH:
    def test_five_arm_value(self):
        # independent hand summation: 1/0.0036 + 2/0.0004 + 1/0.0001
        expected = 1 / 0.06**2 + 2 / 0.02**2 + 1 / 0.01**2
        h = complexity_h(FIG_MEANS)
        assert h == pytest.approx(expected, rel=1e-12)
        assert h == pytest.approx(15277.78, abs=0.01)

    def test_unit_gap(self):
        assert complexity_h([0.0, 1.0]) == pytest.approx(1.0)

    def test_tied_optimum_rejected(self):
        with pytest.raises(UndefinedComplexityError):
            complexity_h([0.5, 0.5])

    def test_shift_invariance_and_gap_scaling(self):
        means = [0.2, 0.35, 0.5]
        h = complexity_h(means)
        assert complexity_h([m + 3.0 for m in means]) == pytest.approx(h, rel=1e-12)
        best = max(means)
        scaled = [best - 2.0 * (best - m) for m in means]
        assert complexity_h(scaled) == pytest.approx(h / 4.0, rel=1e-12)

    def test_single_model_has_zero_complexity(self):
        assert complexity_h([0.7]) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            complexity_h([])


class TestLogitCampaign:
    def test_logit_transform_selects_best_bounded_arm(self):
        from bestarm.evaluators import Beta as BetaDist

        dists = {"low": BetaDist(10.0, 20.0), "high": BetaDist(20.0, 10.0)}
        evaluator = SyntheticEvaluator(dists, ["low", "high"])
        result = ttts(
            evaluator, campaign_seed=71, delta=0.1,
            mc_samples=4000, transform=TransformMode.logit(),
        )
        assert result.chosen.name == "high"
        evaluated = events_of(result, EventKind.EVALUATED)
        assert all("transformed_score" in e.payload for e in evaluated)
        for e in evaluated:
            assert 0.0 <= e.payload["score"] <= 1.0


class TestOnEvent:
    @pytest.mark.parametrize(
        "run",
        [
            lambda ev, sink: sequential_halving(ev, 3, budget=24, on_event=sink),
            lambda ev, sink: ttts(ev, 3, delta=0.2, mc_samples=1000, on_event=sink),
            lambda ev, sink: bts(ev, 3, delta=0.2, batch_size=2, sync=False,
                                 mc_samples=1000, on_event=sink),
            lambda ev, sink: nonadaptive_fixed_budget(ev, 3, budget=24, on_event=sink),
            lambda ev, sink: nonadaptive_fixed_confidence(ev, 3, delta=0.2,
                                                          mc_samples=1000, on_event=sink),
        ],
        ids=["sequential_halving", "ttts", "bts", "nonadaptive_fixed_budget",
             "nonadaptive_fixed_confidence"],
    )
    def test_receives_the_trace_in_order(self, run):
        evaluator = synthetic([0.5, 0.55, 0.6], sd=0.05)
        events = []
        result = run(evaluator, events.append)
        assert tuple(events) == result.trace
        assert events[-1].kind is EventKind.TERMINATED


ENTRY_POINTS = {
    "fb": sequential_halving,
    "baseline-fb": nonadaptive_fixed_budget,
    "fc": ttts,
    "baseline-fc": nonadaptive_fixed_confidence,
    "fc-batch": bts,
}


class TestParameters:
    @pytest.mark.parametrize("kind", list(ENTRY_POINTS))
    def test_keywords_are_the_mode_leaves_of_the_kind(self, kind):
        params = inspect.signature(ENTRY_POINTS[kind]).parameters.values()
        positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        keywords = {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}
        assert positional == ["evaluator", "campaign_seed"]
        leaves = {f.name: f.default for f in fields(ModeConfig) if kind in (f.metadata["kinds"] or ())}
        assert set(keywords) - {"mc_samples", "transform", "on_event"} == set(leaves)
        # A leaf the config requires has no default in the library; the others share theirs.
        for name, default in leaves.items():
            assert keywords[name] == (inspect.Parameter.empty if default is None else default)

    @pytest.mark.parametrize("kind", ["fc", "baseline-fc", "fc-batch"])
    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_delta_outside_the_unit_interval_is_refused(self, kind, delta):
        evaluator = synthetic([0.4, 0.6])
        extra = {"batch_size": 2} if kind == "fc-batch" else {}
        with pytest.raises(ConfigError, match=r"^delta: must be in \(0, 1\)"):
            ENTRY_POINTS[kind](evaluator, 0, delta=delta, **extra)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused(self, batch_size):
        evaluator = synthetic([0.4, 0.6])
        with pytest.raises(ConfigError, match="^batch_size: must be positive"):
            bts(evaluator, 0, delta=0.1, batch_size=batch_size)

    @pytest.mark.parametrize("kind", ["fc", "baseline-fc", "fc-batch"])
    @pytest.mark.parametrize("mc_samples, problem", [(0, "must be positive, got 0"),
                                                     (-5, "must be positive, got -5"),
                                                     (1.5, "must be an integer, got 1.5"),
                                                     (True, "must be an integer, got True")])
    def test_mc_samples_not_a_positive_integer_is_refused_before_any_evaluation(
            self, kind, mc_samples, problem):
        evaluator = Recording(synthetic([0.4, 0.5, 0.6]))
        extra = {"batch_size": 2} if kind == "fc-batch" else {}
        with pytest.raises(ConfigError) as caught:
            ENTRY_POINTS[kind](evaluator, 0, delta=0.1, mc_samples=mc_samples, **extra)
        assert (caught.value.field_name, caught.value.message) == ("mc_samples", problem)
        assert evaluator.requests == []

    @pytest.mark.parametrize("kind, name, value", [
        *[(kind, "budget", value) for kind in ("fb", "baseline-fb")
          for value in (20.5, True, "10", None)],
        *[("fc-batch", "batch_size", value) for value in (2.5, True)],
        *[(kind, "max_evals", value) for kind in ("fc", "baseline-fc", "fc-batch")
          for value in (30.5, True)],
    ])
    def test_integer_parameter_not_an_integer_is_refused_before_any_evaluation(self, kind, name, value):
        evaluator = Recording(synthetic([0.4, 0.5, 0.6]))
        params = ({"budget": 20} if kind in ("fb", "baseline-fb")
                  else {"delta": 0.1, "mc_samples": 1000})
        if kind == "fc-batch":
            params["batch_size"] = 2
        params[name] = value
        with pytest.raises(ConfigError) as caught:
            ENTRY_POINTS[kind](evaluator, 0, **params)
        assert caught.value.field_name == name
        assert evaluator.requests == []

    @pytest.mark.parametrize("kind", list(ENTRY_POINTS))
    @pytest.mark.parametrize("seed, problem", [
        (2**64, f"must fit in 64 bits, got {2**64}"),
        (-1, "must fit in 64 bits, got -1"),
        (True, "must be an integer, got True"),
        (1.5, "must be an integer, got 1.5"),
    ])
    def test_campaign_seed_outside_64_bits_is_refused_before_any_evaluation(self, kind, seed,
                                                                             problem):
        evaluator = Recording(synthetic([0.4, 0.5, 0.6]))
        params = ({"budget": 20} if kind in ("fb", "baseline-fb")
                  else {"delta": 0.1, "mc_samples": 1000})
        if kind == "fc-batch":
            params["batch_size"] = 2
        with pytest.raises(ConfigError) as caught:
            ENTRY_POINTS[kind](evaluator, seed, **params)
        assert (caught.value.field_name, caught.value.message) == ("campaign_seed", problem)
        assert evaluator.requests == []

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_campaign_seed_at_the_ends_of_64_bits_runs(self, seed):
        result = sequential_halving(synthetic([0.4, 0.6]), seed, budget=4)
        assert result.total_evals == 4

    @pytest.mark.parametrize("sync", ["no", 1, None])
    def test_sync_not_a_bool_is_refused_before_any_evaluation(self, sync):
        evaluator = Recording(synthetic([0.4, 0.5, 0.6]))
        with pytest.raises(ConfigError) as caught:
            bts(evaluator, 0, delta=0.1, batch_size=2, sync=sync, mc_samples=1000)
        assert (caught.value.field_name, caught.value.message) == (
            "sync", f"must be true or false, got {sync!r}")
        assert evaluator.requests == []

    @pytest.mark.parametrize("kind", ["fb", "baseline-fb"])
    def test_budget_below_one_names_budget(self, kind):
        evaluator = synthetic([0.4, 0.6])
        with pytest.raises(BudgetTooSmallError, match="^budget: budget too small") as caught:
            ENTRY_POINTS[kind](evaluator, 0, budget=0)
        assert caught.value.field_name == "budget"

    @staticmethod
    def refusal(kind, evaluator=None, **params):
        """The ConfigError an entry point raises for ``params`` laid over
        valid ones, and the requests the evaluator has seen."""
        evaluator = evaluator or Recording(synthetic([0.4, 0.5, 0.6]))
        valid = ({"budget": 20} if kind in ("fb", "baseline-fb")
                 else {"delta": 0.1, "mc_samples": 1000})
        if kind == "fc-batch":
            valid["batch_size"] = 2
        with pytest.raises(ConfigError) as caught:
            ENTRY_POINTS[kind](evaluator, 0, **{**valid, **params})
        return caught.value, evaluator.requests

    @pytest.mark.parametrize("kind", ["fc", "baseline-fc", "fc-batch"])
    @pytest.mark.parametrize("delta", ["0.1", None, True])
    def test_delta_not_a_number_is_refused_before_any_evaluation(self, kind, delta):
        error, submitted = self.refusal(kind, delta=delta)
        assert (error.field_name, error.message) == ("delta", f"must be a number, got {delta!r}")
        assert submitted == []

    @pytest.mark.parametrize("kind", list(ENTRY_POINTS))
    @pytest.mark.parametrize("name, value, problem", [
        ("transform", "logit", "must be a TransformMode, got 'logit'"),
        ("transform", None, "must be a TransformMode, got None"),
        ("on_event", 5, "must be None or callable, got 5"),
    ])
    def test_transform_or_on_event_of_the_wrong_type_is_refused_before_any_evaluation(
            self, kind, name, value, problem):
        error, submitted = self.refusal(kind, **{name: value})
        assert (error.field_name, error.message) == (name, problem)
        assert submitted == []

    @pytest.mark.parametrize("kind", list(ENTRY_POINTS))
    def test_an_evaluator_with_requests_in_flight_is_refused_before_any_evaluation(self, kind):
        evaluator = Recording(synthetic([0.60, 0.62, 0.64], sd=0.03))
        bts(evaluator, 1, delta=0.1, batch_size=3, sync=False, mc_samples=1000)
        assert evaluator.pending() == 2
        before = list(evaluator.requests)
        error, submitted = self.refusal(kind, evaluator)
        assert error.field_name == "evaluator"
        assert "2 requests of an earlier campaign in flight" in error.message
        assert submitted == before

    @pytest.mark.parametrize("entry, seed, params, name", [
        (sequential_halving, -1, {"budget": 5}, "campaign_seed"),
        (bts, 0, {"delta": 0.1, "max_evals": 5, "batch_size": 2, "sync": "no"}, "sync"),
        (bts, -1, {"delta": 0.1, "max_evals": 5, "batch_size": 2, "mc_samples": 0},
         "campaign_seed"),
        (bts, 0, {"delta": 0.1, "max_evals": 5, "batch_size": 2, "mc_samples": 0}, "mc_samples"),
    ])
    def test_the_first_keyword_refused_is_the_first_the_config_refuses(self, entry, seed, params,
                                                                       name):
        # The config checks the mode's leaves, then campaign_seed, then
        # mc_samples; what depends on the candidates (budget 5 and
        # max_evals 5 are too few for 3 models) is checked last.
        evaluator = Recording(synthetic([0.4, 0.5, 0.6]))
        with pytest.raises(ConfigError) as caught:
            entry(evaluator, seed, **params)
        assert caught.value.field_name == name
        assert evaluator.requests == []


class TestCandidateOrder:
    """A campaign selects among its evaluator's ``models``, in their order."""

    @pytest.mark.parametrize("kind", list(ENTRY_POINTS))
    def test_names_in_reverse_keep_their_arms(self, kind):
        dists = {"a": Gaussian(mean=0.9, sd=0.01), "b": Gaussian(mean=0.1, sd=0.01)}
        evaluator = SyntheticEvaluator(dists, ["b", "a"])
        params = ({"budget": 20} if kind in ("fb", "baseline-fb")
                  else {"delta": 0.1, "mc_samples": 1000})
        if kind == "fc-batch":
            params["batch_size"] = 2
        result = ENTRY_POINTS[kind](evaluator, 0, **params)
        assert result.chosen == evaluator.models[1] and result.chosen.name == "a"
        assert result.final_belief.argmax() == 1
        evaluated = events_of(result, EventKind.EVALUATED)
        assert [e.payload["model"] for e in evaluated[:2]] == ["b", "a"]
        # Every score is drawn from the arm of the model it is reported for.
        assert all((e.payload["score"] > 0.5) == (e.payload["model"] == "a") for e in evaluated)
        counts = [sum(e.payload["model"] == name for e in evaluated) for name in ("b", "a")]
        assert result.eval_counts == tuple(counts)
        assert result.models == evaluator.models


FIXED_CONFIDENCE_RULES = {
    "ttts": lambda ev, seed, **conf: ttts(ev, seed, mc_samples=2000, **conf),
    "bts-sync": lambda ev, seed, **conf: bts(ev, seed, batch_size=3, mc_samples=2000, **conf),
    "bts-async": lambda ev, seed, **conf: bts(ev, seed, batch_size=3, sync=False,
                                              mc_samples=2000, **conf),
    "evaluate-all": lambda ev, seed, **conf: nonadaptive_fixed_confidence(ev, seed, mc_samples=2000,
                                                                          **conf),
}


class TestChunkedBelief:
    @pytest.mark.parametrize("rule", list(FIXED_CONFIDENCE_RULES))
    def test_safeguard_termination_uses_every_row(self, rule):
        evaluator = synthetic([0.60, 0.61, 0.62], sd=0.02)
        result = FIXED_CONFIDENCE_RULES[rule](evaluator, 5, delta=0.01, max_evals=45)
        assert result.terminated_by is TerminationReason.MAX_EVALS_SAFEGUARD
        rows = [e.payload["rows"] for e in events_of(result, EventKind.BELIEF_UPDATED)]
        assert min(rows) < 2000
        assert rows[-1] == result.final_belief.mc_samples == 2000
        assert sum(result.final_belief.win_counts) == 2000

    @pytest.mark.parametrize("rule", list(FIXED_CONFIDENCE_RULES))
    def test_confidence_is_reported_only_on_every_row(self, rule):
        evaluator = synthetic([0.60, 0.63, 0.66], sd=0.02)
        result = FIXED_CONFIDENCE_RULES[rule](evaluator, 6, delta=0.1)
        assert result.terminated_by is TerminationReason.CONFIDENCE_REACHED
        beliefs = events_of(result, EventKind.BELIEF_UPDATED)
        assert max(beliefs[-1].payload["pi"]) > 0.9
        assert beliefs[-1].payload["rows"] == result.final_belief.mc_samples == 2000
        for e in beliefs:
            counts = [round(p * e.payload["rows"]) for p in e.payload["pi"]]
            assert sum(counts) == e.payload["rows"] in posterior.chunk_ends(2000)
            if e.payload["rows"] < 2000:
                assert max(e.payload["pi"]) < 0.9
