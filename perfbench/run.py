"""Closed-loop campaign benchmark for bestarm.

Runs one workload from one process, one campaign at a time. Each campaign is
a ``bestarm.cli.run_campaign`` call with its trace written to disk, at
consecutive campaign seeds derived from ``--seed``. Every campaign's output
is checked. Run from the root of a checkout:

    python3 perfbench/run.py --workload fc-ttts-synth5 --seed 1 --seconds 50 --trace 0

``--trace 0`` wraps nothing and reports the end-to-end metrics. ``--trace 1``
runs each campaign seed twice, once plain and once with the layer spans of
``spans.py`` installed, and reports the per-layer metrics and the tracing
overhead. The human-readable report comes first; the last line of stdout is
one JSON object. The exit code is 0 only if every campaign passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "exec_child.py"

SETUP_REPS = 6
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)
MIN_TRACED_PAIRS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: dict
    means: tuple
    sd: float
    exec_child: bool = False
    mc_samples: Optional[int] = None
    # Every run completes at least this many campaigns. evals_per_campaign
    # and correct_rate cover exactly these, so they are exact for a seed,
    # and the tail percentile is chosen from this count, so it is the same
    # percentile in every run.
    stat_campaigns: int = 50


# Why each workload exists, and why BENCHMARK.json leaves fb-sh-synth12 out,
# is in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fc-ttts-synth5", {"kind": "fc", "delta": 0.1},
                 (0.65, 0.69, 0.69, 0.70, 0.71), 0.01, mc_samples=10_000,
                 stat_campaigns=150),
        Workload("fb-sh-synth12", {"kind": "fb", "budget": 204},
                 (0.71, 0.70, 0.69, 0.69, 0.68, 0.68, 0.67, 0.67, 0.66, 0.66, 0.65, 0.65),
                 0.027, stat_campaigns=300),
        Workload("fc-batch-exec8",
                 {"kind": "fc-batch", "delta": 0.1, "batch_size": 8, "sync": True},
                 (0.670, 0.664, 0.660, 0.636, 0.624, 0.618, 0.610, 0.600), 0.015,
                 exec_child=True, mc_samples=5000, stat_campaigns=100),
    )
}


def import_bestarm():
    """Import bestarm from this checkout's source tree, never from elsewhere."""
    if not (SRC / "bestarm" / "__init__.py").is_file():
        sys.exit(f"error: no bestarm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from bestarm import algorithms, cli, evaluators

    if Path(cli.__file__).resolve().parent != SRC / "bestarm":
        sys.exit(f"error: imported bestarm from {cli.__file__}, not from {SRC}")
    return cli, algorithms, evaluators


def make_inputs(cli, wl: Workload, seed: int, workdir: Path):
    """Write the workload's arm file and config for ``seed`` and load them back.

    The seed fixes the candidates' order and the first campaign seed; the
    arm parameters are the workload's. Returns the parsed config, the first
    campaign seed and the name of the truly best model.
    """
    rng = random.Random(f"{wl.name}:{seed}")
    arms = [{"name": f"m{i}", "family": "gaussian", "mean": mu, "sd": wl.sd}
            for i, mu in enumerate(wl.means)]
    rng.shuffle(arms)
    base = 1 + rng.getrandbits(32)
    arms_path = workdir / "arms.json"
    arms_path.write_text(json.dumps(arms), encoding="utf-8")
    if wl.exec_child:
        evaluator = {"kind": "subprocess",
                     "command": shlex.join([sys.executable, "-S", str(CHILD), str(arms_path)])}
    else:
        evaluator = {"kind": "synthetic", "arms_file": str(arms_path)}
    config = {"mode": wl.mode, "evaluator": evaluator, "campaign_seed": base}
    if wl.exec_child:
        config["models"] = [a["name"] for a in arms]
    if wl.mc_samples is not None:
        config["mc_samples"] = wl.mc_samples
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    parsed = cli.CampaignConfig.from_dict(json.loads(config_path.read_text(encoding="utf-8")))
    best = max(arms, key=lambda a: a["mean"])["name"]
    return parsed, base, best


def measure_setup(wl: Workload, seed: int) -> float:
    """Wall time of a fresh interpreter that imports bestarm and builds the inputs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", wl.name, "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


@dataclass
class Record:
    seed: int
    wall: float
    failure: Optional[str] = None
    evals: int = 0
    correct: bool = False
    safeguard: bool = False
    events: int = 0
    trace_bytes: int = 0
    digest: str = ""


def check_campaign(data: bytes, result, code: int, summary: str, wl: Workload):
    """Return why a campaign's output is wrong, or None if it is right."""
    if code not in (0, 2):
        return f"exit code {code}"
    lines = data.decode("utf-8").splitlines()
    if not lines or "config" not in json.loads(lines[0]):
        return "trace has no header line"
    events = [json.loads(line) for line in lines[1:]]
    if [e["seq"] for e in events] != list(range(len(events))):
        return "trace event sequence numbers are not 0, 1, 2, ..."
    if not events or events[-1]["kind"] != "terminated":
        return "trace does not end with a terminated event"
    last = events[-1]
    evaluated = sum(e["kind"] == "evaluated" for e in events)
    if not evaluated == last["total_evals"] == result.total_evals:
        return (f"{evaluated} evaluated events, trace total_evals {last['total_evals']}, "
                f"result total_evals {result.total_evals}")
    if last["reason"] != result.terminated_by.value:
        return f"trace reason {last['reason']!r} != result {result.terminated_by.value!r}"
    budget = wl.mode.get("budget")
    if budget is not None and result.total_evals > budget:
        return f"{result.total_evals} evaluations over the budget of {budget}"
    if last["reason"] == "confidence_reached" and not max(result.final_belief.pi) > 1 - wl.mode["delta"]:
        return f"confidence_reached with max pi {max(result.final_belief.pi)}"
    if f"chosen: {result.chosen.name}" not in summary.splitlines():
        return "printed summary does not name the chosen model"
    return None


class Bench:
    """Runs and checks campaigns of one workload."""

    def __init__(self, cli, wl: Workload, seed: int, config, best: str, trace_path: Path):
        self.cli, self.wl, self.seed, self.config, self.best = cli, wl, seed, config, best
        self.trace_path = trace_path
        self.attempted = 0
        self.failures: list[str] = []

    def campaign(self, seed: int) -> Record:
        self.attempted += 1
        config = replace(self.config, campaign_seed=seed, trace_path=str(self.trace_path))
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out):
                result, code = self.cli.run_campaign(config)
            wall = time.perf_counter() - start
            data = self.trace_path.read_bytes()
            failure = check_campaign(data, result, code, out.getvalue(), self.wl)
        except Exception as e:  # a campaign that raises is counted as failed; the run goes on
            return self.fail(Record(seed, time.perf_counter() - start), f"{type(e).__name__}: {e}")
        rec = Record(
            seed, wall, evals=result.total_evals, correct=result.chosen.name == self.best,
            safeguard=result.terminated_by.value == "max_evals_safeguard",
            events=len(result.trace), trace_bytes=len(data),
            digest=hashlib.sha256(data).hexdigest(),
        )
        return self.fail(rec, failure) if failure else rec

    def fail(self, rec: Record, why: str) -> Record:
        rec.failure = why
        self.failures.append(f"seed {rec.seed}: {why}")
        return rec

    def rerun_matches(self, rec: Record) -> None:
        """Run ``rec``'s seed again; its trace must be byte-identical."""
        again = self.campaign(rec.seed)
        if again.failure is None and again.digest != rec.digest:
            self.fail(again, "trace bytes differ from the first run of this seed")


def percentile(values: list[float], p: float) -> float:
    """Linearly interpolated percentile; percentile(v, 50) is the median."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(walls: list[float], guaranteed: int) -> tuple[float, float, int]:
    """The highest ladder percentile that has at least ten campaigns beyond it
    in a run of ``guaranteed`` campaigns: its value over ``walls``, its level
    and how many campaigns lie beyond it."""
    level = next((p for p in TAIL_LADDER if guaranteed * (100 - p) / 100 >= 10), TAIL_LADDER[-1])
    value = percentile(walls, level)
    return value, level, sum(w > value for w in walls)


def untraced_run(bench: Bench, base: int, seconds: float):
    """Time campaigns at consecutive seeds for ``seconds``, and always at
    least the workload's ``stat_campaigns``, with set-ups measured at evenly
    spaced times between them. Returns the records and the set-up times."""
    setup_times: list[float] = []
    recs: list[Record] = []
    start = time.perf_counter()
    while len(recs) < bench.wl.stat_campaigns or time.perf_counter() - start < seconds:
        due = len(setup_times) * seconds / SETUP_REPS
        if len(setup_times) < SETUP_REPS and time.perf_counter() - start >= due:
            setup_times.append(measure_setup(bench.wl, bench.seed))
        recs.append(bench.campaign(base + len(recs)))
    while len(setup_times) < SETUP_REPS:
        setup_times.append(measure_setup(bench.wl, bench.seed))
    bench.rerun_matches(recs[0])
    return recs, setup_times


def traced_run(bench: Bench, base: int, seconds: float, modules):
    tracer = spans.Tracer()
    plain: list[Record] = []
    traced: list[Record] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - start < seconds:
        i = len(traced)
        # Alternate which of the pair runs first, so warm caches favour neither.
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.campaign = i
                with tracer.installed(*modules):
                    traced.append(bench.campaign(base + i))
            else:
                plain.append(bench.campaign(base + i))
        if plain[-1].failure is None and traced[-1].digest != plain[-1].digest:
            bench.fail(traced[-1], "tracing changed the trace bytes")
    bench.rerun_matches(plain[0])
    return tracer, plain, traced


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "os.cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    cli, algorithms, evaluators = import_bestarm()
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as d:
            make_inputs(cli, wl, args.seed, Path(d))
        return 0

    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        config, base, best = make_inputs(cli, wl, args.seed, workdir)
        bench = Bench(cli, wl, args.seed, config, best, workdir / "trace.jsonl")
        bench.campaign(base - 1)  # warm-up, not measured
        if args.trace:
            tracer, plain, recs = traced_run(bench, base, args.seconds, (cli, algorithms, evaluators))
        else:
            recs, setup_times = untraced_run(bench, base, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    if args.trace:
        metrics = spans.layer_metrics(tracer, recs, plain)
        tracer.write(OUT / f"spans-{wl.name}.jsonl", {"workload": wl.name, **env})
        notes = {"campaigns traced": len(recs)}
    else:
        walls = [r.wall for r in recs]
        stat = recs[: wl.stat_campaigns]
        tail_s, level, beyond = tail(walls, wl.stat_campaigns)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "campaigns_per_s": (len(recs) / sum(walls), "1/s"),
            "campaign_ms_p50": (percentile(walls, 50) * 1e3, "ms"),
            "campaign_ms_tail": (tail_s * 1e3, "ms"),
            "evals_per_campaign": (statistics.fmean(r.evals for r in stat), "count"),
            "correct_rate": (statistics.fmean(r.correct for r in stat), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "campaigns timed": len(recs),
            "campaign_ms_tail percentile": f"p{level:g}, {beyond} campaigns beyond it",
            "evals_per_campaign, correct_rate over": f"first {len(stat)} campaigns",
            "setup_s over": f"{len(setup_times)} fresh interpreters",
        }
    failed = len(bench.failures)
    notes["fail_rate"] = f"{failed / bench.attempted} ({failed}/{bench.attempted} campaigns)"

    print(f"workload {wl.name}, trace {args.trace}, {args.seconds:g} s")
    for key, value in {**env, **notes}.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for why in bench.failures:
        print(f"FAILED {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
