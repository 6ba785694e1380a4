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

Each entry point takes the evaluator, whose ``models`` are the candidates,
and the campaign seed, an integer in [0, 2^64), then its mode's parameters
as keyword-only arguments named as the campaign config's ``mode`` leaves
(``budget``; ``delta`` and ``max_evals``; ``batch_size`` and ``sync``), and
raises ``ConfigError`` naming the one it refuses, before any evaluation. It
refuses an evaluator that still has requests in flight in the same way.
Every entry point takes an optional ``on_event`` callable, which receives
each trace event as it is emitted, so a caller can stream the trace of a
campaign that is still running or that fails.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import deque
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
    require_int,
    require_positive_int,
    require_seed,
    rng_stream,
    stats_update,
)
from .evaluators import Evaluator
from .posterior import (
    DEFAULT_MC_SAMPLES,
    IDENTITY,
    MAX_DRAW_BYTES,
    MIN_EVALS_FOR_POSTERIOR,
    PosteriorDraws,
    TransformMode,
    estimate_pi,
    transform_score,
)

DEFAULT_MAX_TOTAL_EVALS = 10_000

# Receives each trace event as the campaign emits it.
EventSink = Callable[[TraceEvent], None]


class _Campaign:
    """Single-coordinator mutable state of one selection run.

    Owns the per-purpose randomness substreams, the posterior draws reused
    across belief updates, the online statistics (whose counts are the
    evaluation counters) and the ordered trace, each event of which also
    goes to ``on_event`` as it is emitted. Algorithms drive it; all shared
    values it hands out (stats, beliefs) are immutable.

    It refuses the keywords every entry point shares, and an evaluator
    that still has requests of an earlier campaign in flight, whose scores
    would be folded into this one.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        campaign_seed: int,
        mc_samples: int = DEFAULT_MC_SAMPLES,
        transform: TransformMode = IDENTITY,
        on_event: Optional[EventSink] = None,
    ):
        # Every in-process draw of the campaign descends from this seed.
        require_seed("campaign_seed", campaign_seed)
        require_positive_int("mc_samples", mc_samples)
        if not isinstance(transform, TransformMode):
            raise ConfigError("transform", f"must be a TransformMode, got {transform!r}")
        if on_event is not None and not callable(on_event):
            raise ConfigError("on_event", f"must be None or callable, got {on_event!r}")
        if evaluator.pending() > 0:
            raise ConfigError(
                "evaluator",
                f"has {evaluator.pending()} requests of an earlier campaign in flight; "
                "build a fresh evaluator for each campaign",
            )
        self.models = evaluator.models
        self.evaluator = evaluator
        self.mc_samples = mc_samples
        self.transform = transform
        self.stats: list[ModelStats] = [ModelStats() for _ in self.models]
        self.trace: list[TraceEvent] = []
        self._on_event = on_event
        self._request_seq = 0
        self._split_rng = rng_stream(campaign_seed, StreamPurpose.SPLIT_SEED)
        self._model_seed_rng = rng_stream(campaign_seed, StreamPurpose.MODEL_SEED)
        self._draws = PosteriorDraws(campaign_seed)
        self.algo_rng = rng_stream(campaign_seed, StreamPurpose.ALGORITHM)
        self._retried: set[int] = set()
        self._extras: dict[int, dict] = {}

    @property
    def eval_counts(self) -> tuple[int, ...]:
        return tuple(s.count for s in self.stats)

    @property
    def total(self) -> int:
        return sum(s.count for s in self.stats)

    def emit(self, kind: EventKind, payload: dict) -> None:
        event = TraceEvent(seq=len(self.trace), kind=kind, payload=payload)
        self.trace.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def new_requests(self, batch: Sequence[ModelId]) -> list[EvaluationRequest]:
        """One request per model of ``batch``, numbered on from the last.

        Each seed stream gives the batch's seeds as one block of raw 64-bit
        outputs, the values that one ``integers(0, 2**64, dtype=np.uint64)``
        draw per request gives. A block ``integers`` call would do the same
        but costs several microseconds per call, more than a batch of one
        saves.
        """
        size = len(batch)
        splits = self._split_rng.bit_generator.random_raw(size).tolist()
        model_seeds = self._model_seed_rng.bit_generator.random_raw(size).tolist()
        first = self._request_seq
        self._request_seq += size
        return [EvaluationRequest(model=m, split_seed=s, model_seed=t, sequence=first + i)
                for i, (m, s, t) in enumerate(zip(batch, splits, model_seeds))]

    def fold(self, result: EvaluationScore, extra: Optional[dict] = None) -> None:
        model = result.request.model
        value = transform_score(result.score, self.transform)
        self.stats[model.index] = stats_update(self.stats[model.index], value)
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

    def run_batch(
        self,
        batch: Sequence[ModelId],
        retry_once: bool = False,
        extras: Optional[Sequence[Optional[dict]]] = None,
        keep: int = 0,
    ) -> None:
        """Submit ``batch`` and collect until ``keep`` evaluations remain in flight.

        Submissions are pipelined up to the evaluator's capacity, and with
        ``retry_once`` a failed evaluation is resubmitted once. What was
        collected is folded in request-sequence order whatever the completion
        order, keeping campaigns reproducible under concurrent dispatch; a
        request's trace extra waits until its score is folded.
        """
        queue = deque(self.new_requests(batch))
        if extras:
            self._extras.update((req.sequence, extra) for req, extra in zip(queue, extras))
        window = self.evaluator.max_in_flight or math.inf
        collected: list[EvaluationScore] = []
        while queue or self.evaluator.pending() > keep:
            while queue and self.evaluator.pending() < window:
                self.evaluator.submit(queue.popleft())
            try:
                collected.append(self.evaluator.collect())
            except EvaluationError as e:
                if not retry_once or e.request.sequence in self._retried:
                    raise
                self._retried.add(e.request.sequence)
                queue.appendleft(e.request)
        for res in sorted(collected, key=lambda r: r.request.sequence):
            self.fold(res, self._extras.pop(res.request.sequence, None))

    def start_round(self, index: int, survivors: Sequence[ModelId], per_model: int) -> list[ModelId]:
        """Announce a round and return its batch: ``per_model`` evaluations
        of every survivor, interleaved."""
        self.emit(
            EventKind.ROUND_STARTED,
            {"round": index, "survivors": [m.name for m in survivors], "evals_per_model": per_model},
        )
        return [m for _ in range(per_model) for m in survivors]

    def update_belief(self, confident_above: Optional[float] = None) -> Belief:
        """Estimate and announce the belief; ``confident_above`` lets it use
        fewer rows when it is clearly not above that threshold."""
        belief = estimate_pi(self.stats, self.mc_samples, self._draws, confident_above)
        self.emit(
            EventKind.BELIEF_UPDATED,
            {"pi": list(belief.pi), "eval_counts": list(self.eval_counts), "rows": belief.mc_samples},
        )
        return belief

    def finish(self, winner: ModelId, reason: TerminationReason, belief: Belief, **extra) -> SelectionResult:
        payload = {"reason": reason.value, "chosen": winner.name, "total_evals": self.total}
        payload.update(extra)
        self.emit(EventKind.TERMINATED, payload)
        return SelectionResult(
            chosen=winner,
            final_belief=belief,
            eval_counts=self.eval_counts,
            total_evals=self.total,
            trace=tuple(self.trace),
            terminated_by=reason,
            models=self.models,
        )

    def finish_budget(self, winner: ModelId, budget: int) -> SelectionResult:
        """End a fixed-budget campaign with a point-mass belief on ``winner``."""
        belief = point_mass_belief(self.stats, winner.index)
        unused = budget - self.total
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
    evaluator: Evaluator,
    campaign_seed: int,
    delta: float,
    max_evals: int,
    mc_samples: int,
    transform: TransformMode,
    on_event: Optional[EventSink],
    batch_size: int = 1,
    sync: bool = True,
) -> _Campaign:
    # The mode's keywords in the config's order, then the campaign's, then
    # what depends on the evaluator's candidates and capacity.
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real):
        raise ConfigError("delta", f"must be a number, got {delta!r}")
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta", f"must be in (0, 1), got {delta!r}")
    require_positive_int("max_evals", max_evals)
    require_positive_int("batch_size", batch_size)
    if not isinstance(sync, bool):
        raise ConfigError("sync", f"must be true or false, got {sync!r}")
    c = _Campaign(evaluator, campaign_seed, mc_samples, transform, on_event)
    n = len(c.models)
    need = MIN_EVALS_FOR_POSTERIOR * n
    if max_evals < need:
        raise ConfigError(
            "max_evals",
            f"must be at least 3 evaluations per model ({need} for {n} models), got {max_evals}",
        )
    if mc_samples * n * 8 > MAX_DRAW_BYTES:
        raise ConfigError(
            "mc_samples",
            f"must be at most {MAX_DRAW_BYTES // (8 * n)} for {n} models, "
            f"so that the draw matrix fits in {MAX_DRAW_BYTES >> 20} MiB, got {mc_samples}",
        )
    cap = evaluator.max_in_flight
    if cap is not None and batch_size > cap:
        raise ConfigError(
            "batch_size",
            f"evaluator supports at most {cap} concurrent requests, got {batch_size}",
        )
    return c


def _fixed_confidence(
    c: _Campaign,
    delta: float,
    max_evals: int,
    depth: int,
    propose: Callable[[Belief, int], tuple[list[ModelId], Optional[list[dict]]]],
    step: Optional[int] = None,
    retry_once: bool = False,
) -> SelectionResult:
    """The one fixed-confidence loop; the rules differ in proposal, depth and step.

    After 3 evaluations of every model, repeatedly: recompute the belief
    (on fewer rows when it is clearly short of 1 - delta); stop if it is
    confident enough or if ``step`` more evaluations would take the total
    past ``max_evals``, the safeguard for near-tied problems that would
    never reach the target confidence; otherwise top the evaluations in
    flight up to ``depth`` with the k models ``propose(belief, k)`` returns
    (and their optional trace extras), and collect until ``depth - step``
    remain in flight. ``step`` defaults to ``depth``: each proposal is
    folded whole before the next belief.
    """
    step = depth if step is None else step
    c.run_batch([m for _ in range(MIN_EVALS_FOR_POSTERIOR) for m in c.models], retry_once)
    while True:
        # The belief a campaign ends on uses every row: a confident one
        # always does, and a safeguard stop asks for all of them.
        last = c.total + step > max_evals
        belief = c.update_belief(None if last else 1.0 - delta)
        if max(belief.pi) > 1.0 - delta:
            reason = TerminationReason.CONFIDENCE_REACHED
        elif last:
            reason = TerminationReason.MAX_EVALS_SAFEGUARD
        else:
            batch, extras = propose(belief, depth - c.evaluator.pending())
            c.run_batch(batch, retry_once, extras, keep=depth - step)
            continue
        return c.finish(c.models[belief.argmax()], reason, belief)


def sequential_halving(
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    budget: int,
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
    require_int("budget", budget)
    c = _Campaign(evaluator, campaign_seed, transform=transform, on_event=on_event)
    n = len(c.models)
    if n < 2:
        raise ConfigError("models", f"sequential halving needs at least 2 models, got {n}")
    rounds = math.ceil(math.log2(n))
    # A budget below 1 is too small for any schedule.
    if budget < n * rounds:
        raise BudgetTooSmallError(
            f"budget too small: {n} models over {rounds} rounds need at least "
            f"{n * rounds} evaluations, got {budget}"
        )
    survivors = list(c.models)
    round_index = 0
    while len(survivors) > 1:
        round_index += 1
        per_model = budget // (len(survivors) * rounds)
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
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    delta: float,
    max_evals: int = DEFAULT_MAX_TOTAL_EVALS,
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
    c = _confidence_campaign(evaluator, campaign_seed, delta, max_evals, mc_samples, transform,
                             on_event)

    def top_two(belief: Belief, k: int):
        first = _draw_index(belief.win_counts, c.algo_rng)
        second = _draw_index(belief.win_counts, c.algo_rng, exclude=first)
        pick = first if int(c.algo_rng.integers(2)) == 0 else second
        return [c.models[pick]], [{"candidates": [c.models[first].name, c.models[second].name]}]

    return _fixed_confidence(c, delta, max_evals, 1, top_two)


def bts(
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    delta: float,
    batch_size: int,
    sync: bool = True,
    max_evals: int = DEFAULT_MAX_TOTAL_EVALS,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Fixed-confidence selection by batch Thompson sampling.

    With ``sync`` (the default) it draws B models i.i.d. from the belief
    (with replacement), evaluates all B, then updates the belief once.
    Otherwise it keeps B evaluations in flight; whenever one finishes it is
    folded in, the belief is republished, and the freed worker draws
    its next model from that newest belief. A failed evaluation is retried
    once, then the campaign aborts. In-flight work is discarded at
    termination.
    """
    c = _confidence_campaign(evaluator, campaign_seed, delta, max_evals, mc_samples, transform,
                             on_event, batch_size, sync)

    def iid_draws(belief: Belief, k: int):
        return [c.models[_draw_index(belief.win_counts, c.algo_rng)] for _ in range(k)], None

    step = batch_size if sync else 1
    return _fixed_confidence(c, delta, max_evals, batch_size, iid_draws, step, retry_once=True)


def nonadaptive_fixed_budget(
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    budget: int,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Equal-split baseline: floor(T/N) evaluations per model, round-robin,
    then pick the highest empirical mean."""
    require_int("budget", budget)
    c = _Campaign(evaluator, campaign_seed, transform=transform, on_event=on_event)
    n = len(c.models)
    if budget < n:
        raise BudgetTooSmallError(
            f"budget too small: {n} models need at least {n} evaluations, got {budget}"
        )
    c.run_batch(c.start_round(1, c.models, budget // n))
    means = [s.mean for s in c.stats]
    return c.finish_budget(c.models[max(range(n), key=lambda i: means[i])], budget)


def nonadaptive_fixed_confidence(
    evaluator: Evaluator,
    campaign_seed: int,
    *,
    delta: float,
    max_evals: int = DEFAULT_MAX_TOTAL_EVALS,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    transform: TransformMode = IDENTITY,
    on_event: Optional[EventSink] = None,
) -> SelectionResult:
    """Evaluate-everything baseline under the same Bayesian stopping rule.

    Every model gets one evaluation per round regardless of results; the
    belief is recomputed after each full round. Same 3-per-model start and
    stopping threshold as top-two Thompson sampling.
    """
    c = _confidence_campaign(evaluator, campaign_seed, delta, max_evals, mc_samples, transform,
                             on_event)
    rounds = itertools.count(1)

    def every_model(belief: Belief, k: int):
        return c.start_round(next(rounds), c.models, 1), None

    return _fixed_confidence(c, delta, max_evals, len(c.models), every_model)


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
