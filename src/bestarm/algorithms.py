"""Selection algorithms over the evaluator contract.

Fixed budget: sequential halving eliminates the worst half of the surviving
candidates each round until one remains, splitting the budget equally across
rounds and equally across that round's survivors. The theory behind it
assumes bounded score distributions (true of accuracy-like metrics); scores
are not range-checked here.

Fixed confidence: top-two Thompson sampling draws two distinct candidates
from the belief that each is optimal, evaluates one of them chosen by a fair
coin, and stops as soon as one candidate's belief exceeds the target. Batch
Thompson sampling extends this to B parallel draws, synchronously or
asynchronously; it draws single candidates (not top-two pairs), so it is
more exploitative and degrades as B grows.

Two non-adaptive baselines mirror conventional practice (equal budget split;
evaluate everything each round until confident), and ``complexity_h`` scores
problem difficulty from the true mean gaps.

Every entry point takes an optional ``on_event`` callable, which receives
each trace event as it is emitted, so a caller can stream the trace of a
campaign that is still running or that fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Belief,
    BudgetTooSmallError,
    ConfigError,
    EvaluationRequest,
    EvaluationScore,
    EvaluationError,
    EventKind,
    ModelId,
    ModelStats,
    SelectionResult,
    StreamPurpose,
    TerminationReason,
    TraceEvent,
    UndefinedComplexityError,
    point_mass_belief,
    rng_stream,
    stats_update,
)
from .evaluators import Evaluator
from .posterior import (
    DEFAULT_MC_SAMPLES,
    IDENTITY,
    MIN_EVALS_FOR_POSTERIOR,
    PosteriorDraws,
    TransformMode,
    estimate_pi,
    transform_score,
)

DEFAULT_MAX_TOTAL_EVALS = 10_000

# Receives each trace event as the campaign emits it.
EventSink = Callable[[TraceEvent], None]


@dataclass(frozen=True)
class BudgetPolicy:
    """Hard cap on the number of model evaluations (fixed-budget selection)."""

    total_budget: int

    def __post_init__(self):
        if self.total_budget < 1:
            raise ValueError(f"total_budget must be positive, got {self.total_budget}")


@dataclass(frozen=True)
class ConfidencePolicy:
    """Stop once some model is believed optimal with probability > 1 - delta.

    ``max_total_evals`` is a safety valve for near-tied problems that would
    otherwise never reach the target confidence.
    """

    delta: float
    max_total_evals: int = DEFAULT_MAX_TOTAL_EVALS

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.max_total_evals < 1:
            raise ValueError(f"max_total_evals must be positive, got {self.max_total_evals}")


class BatchMode(str, Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


@dataclass(frozen=True)
class BatchPolicy:
    """Parallelism for batch Thompson sampling: B draws per step or B workers."""

    batch_size: int
    mode: BatchMode = BatchMode.SYNCHRONOUS

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")


class _Campaign:
    """Single-coordinator mutable state of one selection run.

    Owns the per-purpose randomness substreams, the posterior draws reused
    across belief updates, the online statistics, the evaluation counters,
    and the ordered trace, each event of which also goes to ``on_event`` as
    it is emitted. Algorithms drive it; all shared values it hands out
    (stats, beliefs) are immutable.
    """

    def __init__(
        self,
        models: Sequence[ModelId],
        evaluator: Evaluator,
        campaign_seed: int,
        mc_samples: int = DEFAULT_MC_SAMPLES,
        transform: TransformMode = IDENTITY,
        on_event: Optional[EventSink] = None,
    ):
        self.models = tuple(models)
        n = len(self.models)
        if [m.index for m in self.models] != list(range(n)):
            raise ValueError("model indices must be contiguous from 0 in candidate order")
        self.evaluator = evaluator
        self.mc_samples = mc_samples
        self.transform = transform
        self.stats: list[ModelStats] = [ModelStats() for _ in range(n)]
        self.eval_counts = [0] * n
        self.total = 0
        self.trace: list[TraceEvent] = []
        self._on_event = on_event
        self._request_seq = 0
        self._split_rng = rng_stream(campaign_seed, StreamPurpose.SPLIT_SEED)
        self._model_seed_rng = rng_stream(campaign_seed, StreamPurpose.MODEL_SEED)
        self._draws = PosteriorDraws(campaign_seed)
        self.algo_rng = rng_stream(campaign_seed, StreamPurpose.ALGORITHM)
        self._retried: set[int] = set()

    def emit(self, kind: EventKind, payload: dict) -> None:
        event = TraceEvent(seq=len(self.trace), kind=kind, payload=payload)
        self.trace.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def next_request(self, model: ModelId) -> EvaluationRequest:
        req = EvaluationRequest(
            model=model,
            split_seed=int(self._split_rng.integers(0, 2**64, dtype=np.uint64)),
            model_seed=int(self._model_seed_rng.integers(0, 2**64, dtype=np.uint64)),
            sequence=self._request_seq,
        )
        self._request_seq += 1
        return req

    def fold(self, result: EvaluationScore, extra: Optional[dict] = None) -> None:
        model = result.request.model
        value = transform_score(result.score, self.transform)
        self.stats[model.index] = stats_update(self.stats[model.index], value)
        self.eval_counts[model.index] += 1
        self.total += 1
        payload = {
            "model": model.name,
            "request": result.request.sequence,
            "score": result.score,
        }
        if self.transform.kind != "identity":
            payload["transformed_score"] = value
        if extra:
            payload.update(extra)
        self.emit(EventKind.EVALUATED, payload)

    def _collect_with_retry(self, retry_once: bool) -> EvaluationScore:
        while True:
            try:
                return self.evaluator.collect()
            except EvaluationError as e:
                if retry_once and e.request.sequence not in self._retried:
                    self._retried.add(e.request.sequence)
                    self.evaluator.submit(e.request)
                    continue
                raise

    def run_batch(
        self,
        batch: Sequence[ModelId],
        retry_once: bool = False,
        extras: Optional[Sequence[Optional[dict]]] = None,
    ) -> None:
        """Evaluate ``batch``, pipelined up to the evaluator's capacity.

        Scores are folded into the statistics in request-sequence order no
        matter the completion order, keeping campaigns reproducible under
        concurrent dispatch.
        """
        requests = [self.next_request(m) for m in batch]
        window = self.evaluator.max_in_flight or len(requests)
        results: dict[int, EvaluationScore] = {}
        submitted = 0
        while len(results) < len(requests):
            while submitted < len(requests) and submitted - len(results) < window:
                self.evaluator.submit(requests[submitted])
                submitted += 1
            res = self._collect_with_retry(retry_once)
            results[res.request.sequence] = res
        for i, req in enumerate(requests):
            self.fold(results[req.sequence], extras[i] if extras else None)

    def start_round(self, index: int, survivors: Sequence[ModelId], per_model: int) -> list[ModelId]:
        """Announce a round and return its batch: ``per_model`` evaluations
        of every survivor, interleaved."""
        self.emit(
            EventKind.ROUND_STARTED,
            {"round": index, "survivors": [m.name for m in survivors], "evals_per_model": per_model},
        )
        return [m for _ in range(per_model) for m in survivors]

    def update_belief(self) -> Belief:
        belief = estimate_pi(self.stats, self.mc_samples, self._draws)
        self.emit(
            EventKind.BELIEF_UPDATED,
            {"pi": list(belief.pi), "eval_counts": list(self.eval_counts)},
        )
        return belief

    def initialize_all(self, retry_once: bool = False) -> None:
        """Give every model the 3 evaluations its posterior requires."""
        batch = [m for _ in range(MIN_EVALS_FOR_POSTERIOR) for m in self.models]
        self.run_batch(batch, retry_once=retry_once)

    def finish(self, winner: ModelId, reason: TerminationReason, belief: Belief, **extra) -> SelectionResult:
        payload = {"reason": reason.value, "chosen": winner.name, "total_evals": self.total}
        payload.update(extra)
        self.emit(EventKind.TERMINATED, payload)
        return SelectionResult(
            chosen=winner,
            final_belief=belief,
            eval_counts=tuple(self.eval_counts),
            total_evals=self.total,
            trace=tuple(self.trace),
            terminated_by=reason,
        )

    def finish_budget(self, winner: ModelId, budget: BudgetPolicy) -> SelectionResult:
        """End a fixed-budget campaign with a point-mass belief on ``winner``."""
        belief = point_mass_belief(self.stats, winner.index)
        unused = budget.total_budget - self.total
        return self.finish(winner, TerminationReason.BUDGET_EXHAUSTED, belief, unused_budget=unused)


def _draw_index(win_counts: Sequence[int], rng: np.random.Generator, exclude: Optional[int] = None) -> int:
    # Sample proportionally to the integer win counts (exact, no float
    # normalization); excluding an index renormalizes over the rest.
    total = sum(win_counts)
    if exclude is not None:
        total -= win_counts[exclude]
    u = int(rng.integers(total))
    acc = 0
    for i, c in enumerate(win_counts):
        if i == exclude:
            continue
        acc += c
        if u < acc:
            return i
    raise AssertionError("empty belief support")


def _confidence_campaign(
    models: Sequence[ModelId],
    conf: ConfidencePolicy,
    evaluator: Evaluator,
    campaign_seed: int,
    mc_samples: int,
    transform: TransformMode,
    on_event: Optional[EventSink],
) -> _Campaign:
    models = tuple(models)
    n = len(models)
    if n < 1:
        raise ValueError("need at least 1 candidate model")
    need = MIN_EVALS_FOR_POSTERIOR * n
    if conf.max_total_evals < need:
        raise ConfigError(
            "max_total_evals",
            f"must be at least 3 evaluations per model ({need} for {n} models), "
            f"got {conf.max_total_evals}",
        )
    return _Campaign(models, evaluator, campaign_seed, mc_samples, transform, on_event)


def _stop_reason(c: _Campaign, belief: Belief, conf: ConfidencePolicy, step: int) -> Optional[TerminationReason]:
    """Why a fixed-confidence campaign stops now, or None to go on.

    ``step`` is the number of evaluations the next proposal would add; the
    safeguard trips when they would take the total past its cap.
    """
    if max(belief.pi) > 1.0 - conf.delta:
        return TerminationReason.CONFIDENCE_REACHED
    if c.total + step > conf.max_total_evals:
        return TerminationReason.MAX_EVALS_SAFEGUARD
    return None


def _fixed_confidence(
    c: _Campaign,
    conf: ConfidencePolicy,
    step: int,
    propose: Callable[[Belief], tuple[list[ModelId], Optional[list[dict]]]],
    retry_once: bool = False,
) -> SelectionResult:
    """The synchronous fixed-confidence loop shared by the sampling rules.

    After 3 evaluations of every model, repeatedly: recompute the belief,
    stop if it is confident enough or the next ``step`` evaluations would
    trip the safeguard, otherwise evaluate the models ``propose`` returns
    (with an optional per-evaluation trace extra) as one batch.
    """
    c.initialize_all(retry_once=retry_once)
    while True:
        belief = c.update_belief()
        reason = _stop_reason(c, belief, conf, step)
        if reason is not None:
            return c.finish(c.models[belief.argmax()], reason, belief)
        batch, extras = propose(belief)
        c.run_batch(batch, retry_once=retry_once, extras=extras)


def sequential_halving(
    models: Sequence[ModelId],
    budget: BudgetPolicy,
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Fixed-budget selection by halving the candidate set each round.

    Runs ceil(log2 N) rounds; each round gives every survivor
    floor(T / (|S| * ceil(log2 N))) evaluations and then drops the
    floor(|S|/2) models with the worst mean over ALL evaluations so far.
    Ties at the elimination boundary break uniformly at random. Budget lost
    to flooring is reported in the trace, never redistributed.
    """
    models = tuple(models)
    n = len(models)
    if n < 2:
        raise ValueError(f"sequential halving needs at least 2 models, got {n}")
    rounds = math.ceil(math.log2(n))
    if budget.total_budget < n * rounds:
        raise BudgetTooSmallError(
            f"budget too small: {n} models over {rounds} rounds need at least "
            f"{n * rounds} evaluations, got {budget.total_budget}"
        )
    c = _Campaign(models, evaluator, campaign_seed, transform=transform, on_event=on_event)
    survivors = list(models)
    round_index = 0
    while len(survivors) > 1:
        round_index += 1
        per_model = budget.total_budget // (len(survivors) * rounds)
        c.run_batch(c.start_round(round_index, survivors, per_model))
        drop = len(survivors) // 2
        # A uniform shuffle before the stable sort makes boundary ties fall
        # uniformly at random, at a fixed randomness cost per round.
        perm = c.algo_rng.permutation(len(survivors))
        ranked = [survivors[int(i)] for i in perm]
        ranked.sort(key=lambda m: c.stats[m.index].mean)
        dropped = {m.index for m in ranked[:drop]}
        c.emit(
            EventKind.ELIMINATED,
            {
                "round": round_index,
                "models": [m.name for m in ranked[:drop]],
                "means": {m.name: c.stats[m.index].mean for m in ranked[:drop]},
            },
        )
        survivors = [m for m in survivors if m.index not in dropped]
    return c.finish_budget(survivors[0], budget)


def ttts(
    models: Sequence[ModelId],
    conf: ConfidencePolicy,
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Fixed-confidence selection by top-two Thompson sampling.

    After 3 evaluations of every model, repeatedly: recompute the belief; if
    its maximum exceeds 1 - delta stop and return that model; otherwise draw
    two distinct models from the belief (the second renormalized over the
    rest), flip a fair coin between them, and evaluate the winner once.
    """
    c = _confidence_campaign(models, conf, evaluator, campaign_seed, mc_samples, transform, on_event)

    def top_two(belief: Belief):
        first = _draw_index(belief.win_counts, c.algo_rng)
        second = _draw_index(belief.win_counts, c.algo_rng, exclude=first)
        pick = first if int(c.algo_rng.integers(2)) == 0 else second
        return [c.models[pick]], [{"candidates": [c.models[first].name, c.models[second].name]}]

    return _fixed_confidence(c, conf, 1, top_two)


def bts(
    models: Sequence[ModelId],
    conf: ConfidencePolicy,
    batch: BatchPolicy,
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Fixed-confidence selection by batch Thompson sampling.

    Synchronous mode draws B models i.i.d. from the belief (with
    replacement), evaluates all B, then updates the belief once.
    Asynchronous mode keeps B evaluations in flight; whenever one finishes
    it is folded in, the belief is republished, and the freed worker draws
    its next model from that newest belief. A failed evaluation is retried
    once, then the campaign aborts. In-flight work is discarded at
    termination.
    """
    c = _confidence_campaign(models, conf, evaluator, campaign_seed, mc_samples, transform, on_event)
    cap = evaluator.max_in_flight
    if cap is not None and batch.batch_size > cap:
        raise ConfigError(
            "batch_size",
            f"evaluator supports at most {cap} concurrent requests, got {batch.batch_size}",
        )

    def draw(belief: Belief) -> ModelId:
        return c.models[_draw_index(belief.win_counts, c.algo_rng)]

    if batch.mode is BatchMode.SYNCHRONOUS:

        def iid_batch(belief: Belief):
            return [draw(belief) for _ in range(batch.batch_size)], None

        return _fixed_confidence(c, conf, batch.batch_size, iid_batch, retry_once=True)
    c.initialize_all(retry_once=True)
    # The first pass fills all B workers; each later pass refills the one
    # whose evaluation was just folded in.
    refill = batch.batch_size
    while True:
        belief = c.update_belief()
        reason = _stop_reason(c, belief, conf, 1)
        if reason is not None:
            return c.finish(c.models[belief.argmax()], reason, belief)
        for _ in range(refill):
            c.evaluator.submit(c.next_request(draw(belief)))
        refill = 1
        c.fold(c._collect_with_retry(retry_once=True))


def nonadaptive_fixed_budget(
    models: Sequence[ModelId],
    budget: BudgetPolicy,
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Equal-split baseline: floor(T/N) evaluations per model, round-robin,
    then pick the highest empirical mean."""
    models = tuple(models)
    n = len(models)
    if n < 1:
        raise ValueError("need at least 1 candidate model")
    if budget.total_budget < n:
        raise BudgetTooSmallError(
            f"budget too small: {n} models need at least {n} evaluations, "
            f"got {budget.total_budget}"
        )
    per_model = budget.total_budget // n
    c = _Campaign(models, evaluator, campaign_seed, transform=transform, on_event=on_event)
    c.run_batch(c.start_round(1, models, per_model))
    means = [c.stats[m.index].mean for m in models]
    return c.finish_budget(models[max(range(n), key=lambda i: means[i])], budget)


def nonadaptive_fixed_confidence(
    models: Sequence[ModelId],
    conf: ConfidencePolicy,
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Evaluate-everything baseline under the same Bayesian stopping rule.

    Every model gets one evaluation per round regardless of results; the
    belief is recomputed after each full round. Same 3-per-model start and
    stopping threshold as top-two Thompson sampling.
    """
    c = _confidence_campaign(models, conf, evaluator, campaign_seed, mc_samples, transform, on_event)
    rounds = itertools.count(1)

    def every_model(belief: Belief):
        return c.start_round(next(rounds), c.models, 1), None

    return _fixed_confidence(c, conf, len(c.models), every_model)


def complexity_h(true_means: Sequence[float]) -> float:
    """Difficulty of a selection problem: sum of inverse squared gaps to the
    best mean. Lower-bounds (up to log factors) the evaluations needed for
    confident identification."""
    means = [float(x) for x in true_means]
    if not means:
        raise ValueError("need at least one mean")
    best = max(means)
    if means.count(best) != 1:
        raise UndefinedComplexityError(
            f"complexity is undefined when the best mean ({best}) is not unique"
        )
    return sum(1.0 / (best - m) ** 2 for m in means if m != best)
