"""Layer spans recorded from outside bestarm.

``Tracer`` wraps public names of bestarm's modules for the duration of one
campaign: it replaces each module or class attribute with a wrapper that
records a span, then puts the original back. Nothing in bestarm knows it is
being traced. Spans stay in memory; ``write`` saves them when the run ends.

A span is ``[name, start, end, parent, campaign, child_time]``. ``parent`` is
the index of the enclosing span, or -1 for a root; ``child_time`` is the time
its direct children cover, so a span's self time is ``end - start -
child_time``. Everything wrapped runs on the main thread, so spans nest.

``layer_metrics`` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps

# Entry points of bestarm.algorithms that bestarm.cli dispatches to.
ALGORITHM_ENTRIES = (
    "sequential_halving",
    "ttts",
    "bts",
    "nonadaptive_fixed_budget",
    "nonadaptive_fixed_confidence",
)

NAME, START, END, PARENT, CAMPAIGN, CHILD = range(6)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.campaign = -1
        self.draws = 0
        self.columns_changed: list[int] = []
        self.in_flight: list[int] = []
        self.roundtrips: list[float] = []
        self._last_stats: dict[int, tuple] = {}
        self._submitted: dict[tuple[int, int], float] = {}

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.campaign, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - rec[START]
            if after is not None:
                after(args, out, rec)
            return out

        return wrapper

    def _before_estimate(self, args):
        stats, mc_samples = tuple(args[0]), args[1]
        self.draws += mc_samples * len(stats)
        prev = self._last_stats.get(self.campaign)
        if prev is not None and len(prev) == len(stats):
            # stats_update returns a new object, so identity marks a change.
            self.columns_changed.append(sum(a is not b for a, b in zip(prev, stats)))
        self._last_stats[self.campaign] = stats

    def _before_collect(self, args):
        self.in_flight.append(args[0].pending())

    def _after_exec_submit(self, args, out, rec):
        self._submitted[(rec[CAMPAIGN], args[1].sequence)] = rec[START]

    def _after_exec_collect(self, args, out, rec):
        start = self._submitted.pop((rec[CAMPAIGN], out.request.sequence))
        self.roundtrips.append(rec[END] - start)

    @contextmanager
    def installed(self, cli, algorithms, evaluators):
        """Wrap bestarm's layer boundaries until the block exits."""
        synth, proc = evaluators.SyntheticEvaluator, evaluators.SubprocessEvaluator
        targets = [
            (cli, "run_campaign", "cli.run_campaign", None, None),
            (cli, "write_trace", "cli.write_trace", None, None),
            *[(cli, n, "algorithms." + n, None, None) for n in ALGORITHM_ENTRIES],
            (algorithms, "estimate_pi", "posterior.estimate_pi", self._before_estimate, None),
            (algorithms, "rng_stream", "core.rng_stream", None, None),
            (evaluators, "rng_stream", "core.rng_stream", None, None),
            (synth, "submit", "evaluators.submit", None, None),
            (synth, "collect", "evaluators.collect", self._before_collect, None),
            (proc, "__init__", "evaluators.spawn", None, None),
            (proc, "submit", "evaluators.submit", None, self._after_exec_submit),
            (proc, "collect", "evaluators.collect", self._before_collect, self._after_exec_collect),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
        try:
            for owner, attr, name, before, after in targets:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), before, after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s[:CHILD]) + "\n")


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced: list, plain: list) -> dict:
    """Per-layer metrics of the traced campaigns.

    ``traced`` and ``plain`` are the run's records (wall time, evaluations,
    trace events and bytes, safeguard flag) of the same campaign seeds run
    with and without spans. Metrics of a layer a workload never enters read 0.
    """
    n = len(traced)
    wall = sum(r.wall for r in traced)
    evals = sum(r.evals for r in traced)
    dur: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    algo_self: dict[int, float] = {}
    root_self: dict[int, float] = {}
    root_total = 0.0
    for name, start, end, parent, campaign, child in tracer.spans:
        d = end - start
        dur.setdefault(name, []).append(d)
        self_total[name] = self_total.get(name, 0.0) + d - child
        if name.startswith("algorithms."):
            algo_self[campaign] = algo_self.get(campaign, 0.0) + d - child
        elif parent < 0:
            root_self[campaign] = d - child
            root_total += d

    def durations(name):
        return dur.get(name, [])

    est = durations("posterior.estimate_pi")
    algo_total = sum(algo_self.values())
    return {
        "posterior.estimate_pi.calls": (len(est) / n, "1/campaign"),
        "posterior.estimate_pi.ms_p50": (_p50(est) * 1e3, "ms"),
        "posterior.estimate_pi.self_share": (self_total.get("posterior.estimate_pi", 0.0) / wall, "ratio"),
        "posterior.draws_per_s": (tracer.draws / sum(est) if est else 0.0, "1/s"),
        "posterior.columns_changed_per_update": (_mean(tracer.columns_changed), "count"),
        "core.rng_stream.calls": (len(durations("core.rng_stream")) / n, "1/campaign"),
        "core.rng_stream.us_p50": (_p50(durations("core.rng_stream")) * 1e6, "us"),
        "core.rng_stream.self_share": (self_total.get("core.rng_stream", 0.0) / wall, "ratio"),
        "evaluators.submit.us_p50": (_p50(durations("evaluators.submit")) * 1e6, "us"),
        "evaluators.collect.us_p50": (_p50(durations("evaluators.collect")) * 1e6, "us"),
        "evaluators.roundtrip.us_p50": (_p50(tracer.roundtrips) * 1e6, "us"),
        "evaluators.collect.wait_share": (self_total.get("evaluators.collect", 0.0) / wall, "ratio"),
        "evaluators.in_flight_mean": (_mean(tracer.in_flight), "count"),
        "evaluators.spawn_ms": (_p50(durations("evaluators.spawn")) * 1e3, "ms"),
        "algorithms.self_ms": (_p50(list(algo_self.values())) * 1e3, "ms"),
        "algorithms.self_us_per_eval": (algo_total / evals * 1e6 if evals else 0.0, "us"),
        "algorithms.trace_events": (statistics.fmean(r.events for r in traced), "1/campaign"),
        "algorithms.safeguard_terminations": (sum(r.safeguard for r in traced), "count"),
        "cli.run_campaign.self_ms": (_p50(list(root_self.values())) * 1e3, "ms"),
        "cli.write_trace.ms_p50": (_p50(durations("cli.write_trace")) * 1e3, "ms"),
        "cli.write_trace.self_share": (self_total.get("cli.write_trace", 0.0) / wall, "ratio"),
        "cli.trace_bytes": (statistics.fmean(r.trace_bytes for r in traced), "bytes"),
        "tracing.overhead": (wall / sum(r.wall for r in plain), "ratio"),
        "tracing.unspanned_share": ((wall - root_total) / wall, "ratio"),
    }
