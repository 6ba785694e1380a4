"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines live; the
statistical criteria take a few minutes each. All seeds are pinned, so every
run is deterministic.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import stats as scistats

from bestarm import (
    EvaluationRequest,
    EventKind,
    Gaussian,
    ModelStats,
    PosteriorDraws,
    SubprocessEvaluator,
    SyntheticEvaluator,
    complexity_h,
    estimate_pi,
    posterior_from_stats,
    sequential_halving,
    stats_update,
)
from bestarm.cli import CampaignConfig, main, run_campaign, run_replications

ECHO_CHILD = os.path.join(os.path.dirname(__file__), "echo_child.py")

FIG_MEANS = [0.65, 0.69, 0.69, 0.70, 0.71]

# An 8-candidate sentiment-model-style selection problem: three close
# contenders, one mid-pack baseline, four clearly worse reduced variants.
# Calibrated so the non-adaptive fixed-confidence baseline at delta=0.1 needs
# roughly twice the evaluations top-two Thompson sampling does (pilot: 223 vs 113).
EIGHT_ARM_MEANS = [0.670, 0.664, 0.660, 0.636, 0.624, 0.618, 0.610, 0.600]
EIGHT_ARM_SD = 0.015

# 12-arm fixed-budget problem; sd calibrated by pilot runs so the equal-split
# baseline at budget 204 selects correctly ~85% of the time.
FB_MEANS = [0.71, 0.70, 0.69, 0.69, 0.68, 0.68, 0.67, 0.67, 0.66, 0.66, 0.65, 0.65]
FB_SD = 0.027
FB_BUDGET = 204

# Monte-Carlo rounds per belief update in the heavy statistical criteria.
# The criteria do not pin it; 1e4 keeps the pi standard error below 0.005
# (0.0022 at the tightest 0.95 threshold) at a tenth of the default's cost.
MC_HEAVY = 10_000
MC_MEDIUM = 5_000


def report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def gaussian_problem(means, sd):
    names = [f"m{i}" for i in range(len(means))]
    dists = {name: Gaussian(mean=mu, sd=sd) for name, mu in zip(names, means)}
    return SyntheticEvaluator(dists, names)


def gaussian_config(tmp_path, means, sd, mode, seed, mc_samples=MC_MEDIUM):
    """A campaign on Gaussian arms m0, m1, ... written to an arm file; with
    ``run_replications`` each seed gets the campaign ``gaussian_problem`` builds."""
    arms = [{"name": f"m{i}", "family": "gaussian", "mean": mu, "sd": sd}
            for i, mu in enumerate(means)]
    arms_path = tmp_path / "arms.json"
    arms_path.write_text(json.dumps(arms))
    return CampaignConfig.from_dict({
        "mode": mode, "evaluator": {"kind": "synthetic", "arms_file": str(arms_path)},
        "campaign_seed": seed, "mc_samples": mc_samples,
    })


def test_criterion_1_posterior_calibration():
    # 10 observations of a known Gaussian; the central 90% credible interval
    # must cover the true mean at a rate in [0.88, 0.96] over 1e4 replications.
    true_mean, true_sd, n_obs, reps = 0.7, 0.05, 10, 10_000
    rng = np.random.default_rng(2718)
    quantile = scistats.t.ppf(0.95, n_obs - 2)
    covered = 0
    for _ in range(reps):
        stats = ModelStats()
        for x in rng.normal(true_mean, true_sd, size=n_obs):
            stats = stats_update(stats, float(x))
        p = posterior_from_stats(stats)
        half = quantile * p.scale
        covered += p.center - half <= true_mean <= p.center + half
    coverage = covered / reps
    report(
        "criterion-1 posterior-calibration",
        0.88 <= coverage <= 0.96,
        f"coverage={coverage:.4f}, required [0.88, 0.96]",
    )


def test_criterion_2_pi_symmetry():
    # Five identical (degenerate) synthetic arms: the variance floor makes
    # all posteriors equal, so each arm must win ~1/5 of the MC rounds.
    evaluator = gaussian_problem([0.7] * 5, 1e-12)
    stats = {m.index: ModelStats() for m in evaluator.models}
    seq = 0
    for _ in range(3):
        for m in evaluator.models:
            req = EvaluationRequest(model=m, split_seed=0, model_seed=0, sequence=seq)
            seq += 1
            stats[m.index] = stats_update(stats[m.index], evaluator.evaluate(req).score)
    belief = estimate_pi([stats[i] for i in range(5)], 100_000, PosteriorDraws(99))
    worst = max(abs(p - 0.2) for p in belief.pi)
    report(
        "criterion-2 pi-symmetry",
        worst <= 0.01,
        f"max |pi - 1/5| = {worst:.5f}, required <= 0.01",
    )


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
def test_criterion_3_ttts_confidence_guarantee(delta, tmp_path):
    reps = 500
    config = gaussian_config(tmp_path, FIG_MEANS, 0.01, {"kind": "fc", "delta": delta},
                             seed=int(delta * 1_000_000), mc_samples=MC_HEAVY)
    proportion = run_replications(config, reps, true_best="m4").correct_proportion
    bound = (1 - delta) - 3 * math.sqrt(delta * (1 - delta) / reps)
    report(
        f"criterion-3 ttts-confidence delta={delta}",
        proportion >= bound,
        f"correct={proportion:.4f}, required >= {bound:.4f}",
    )


def test_criterion_4_ttts_beats_nonadaptive(tmp_path):
    # Table-2-style comparison on the 8-arm problem, 500 paired replications.
    reps = 500
    mean_ttts, mean_base = (
        run_replications(
            gaussian_config(tmp_path, EIGHT_ARM_MEANS, EIGHT_ARM_SD,
                            {"kind": kind, "delta": 0.1}, seed=0), reps,
        ).mean_evals
        for kind in ("fc", "baseline-fc")
    )
    ratio = mean_ttts / mean_base
    report(
        "criterion-4 ttts-efficiency",
        ratio <= 0.7,
        f"ttts mean={mean_ttts:.1f}, baseline mean={mean_base:.1f}, "
        f"ratio={ratio:.3f}, required <= 0.7",
    )


def test_criterion_5_sh_beats_nonadaptive(tmp_path):
    reps = 10_000
    sh_rate, na_rate = (
        run_replications(
            gaussian_config(tmp_path, FB_MEANS, FB_SD, {"kind": kind, "budget": FB_BUDGET}, seed),
            reps, true_best="m0",
        ).correct_proportion
        for kind, seed in (("fb", 0), ("baseline-fb", 100_000))
    )
    calibrated = 0.78 <= na_rate <= 0.92
    gap_ok = sh_rate - na_rate >= 0.08
    report(
        "criterion-5 sh-beats-nonadaptive",
        calibrated and gap_ok,
        f"sh={sh_rate:.4f}, nonadaptive={na_rate:.4f} (calibration target ~0.85), "
        f"gap={sh_rate - na_rate:+.4f}, required >= +0.08",
    )


def test_criterion_6_sh_schedule_golden():
    def run(seed):
        evaluator = gaussian_problem([0.60, 0.70, 0.65, 0.55], 0.01)
        return sequential_halving(evaluator, campaign_seed=seed, budget=16)

    result = run(6)
    rounds = [e for e in result.trace if e.kind is EventKind.ROUND_STARTED]
    schedule = [(len(r.payload["survivors"]), r.payload["evals_per_model"]) for r in rounds]
    deterministic = run(6).trace == result.trace
    ok = (
        schedule == [(4, 2), (2, 4)]
        and result.total_evals == 16
        and sorted(result.eval_counts) == [2, 2, 6, 6]
        and deterministic
    )
    report(
        "criterion-6 sh-schedule-golden",
        ok,
        f"schedule={schedule}, total={result.total_evals}, "
        f"counts={sorted(result.eval_counts)}, deterministic={deterministic}",
    )


def test_criterion_7_bts_batch_degradation(tmp_path):
    reps = 500
    modes = ({"kind": "fc", "delta": 0.2},
             {"kind": "fc-batch", "delta": 0.2, "batch_size": 4, "sync": True},
             {"kind": "fc-batch", "delta": 0.2, "batch_size": 8, "sync": True})
    m_ttts, m_bts4, m_bts8 = (
        run_replications(
            gaussian_config(tmp_path, EIGHT_ARM_MEANS, EIGHT_ARM_SD, mode, seed=40_000), reps,
        ).mean_evals
        for mode in modes
    )
    report(
        "criterion-7 bts-batch-degradation",
        m_ttts <= m_bts4 <= m_bts8,
        f"mean evals: ttts={m_ttts:.1f} <= bts4={m_bts4:.1f} <= bts8={m_bts8:.1f} required",
    )


def test_criterion_8_complexity_diagnostic():
    h = complexity_h(FIG_MEANS)
    # independent hand summation: 1/0.0036 + 2/0.0004 + 1/0.0001
    expected = 1 / 0.0036 + 2 / 0.0004 + 1 / 0.0001
    ok = abs(h - 15277.78) <= 0.01 + abs(expected - 15277.78)
    report(
        "criterion-8 complexity-h",
        abs(h - expected) < 1e-8 and ok,
        f"H={h:.2f}, hand summation={expected:.2f}, required 15277.78 +/- 0.01",
    )


def test_criterion_9_subprocess_protocol_conformance(tmp_path):
    evaluator = SubprocessEvaluator(
        [sys.executable, ECHO_CHILD, "--reorder", "--delay-ms", "1", "--max-in-flight", "8"],
        ["tdlstm", "ian"],
    )
    total = 1000
    try:
        results = {}
        submitted = collected = 0
        while collected < total:
            while submitted < total and submitted - collected < evaluator.max_in_flight:
                evaluator.submit(
                    EvaluationRequest(
                        model=evaluator.models[submitted % 2], split_seed=submitted,
                        model_seed=submitted, sequence=submitted,
                    )
                )
                submitted += 1
            score = evaluator.collect()
            results[score.request.sequence] = score.score
            collected += 1
    finally:
        evaluator.close()
    expected = {seq: ((seq * 2654435761) % 2**32) / 2**32 for seq in range(total)}
    mismatches = sum(1 for seq in range(total) if results.get(seq) != expected[seq])

    trace_path = tmp_path / "partial.jsonl"
    cmd = f"{sys.executable} {ECHO_CHILD} --crash-after 4 --const-score 0.5"
    code = main(
        ["fc", "--delta", "0.05", "--exec", cmd, "--models", "a,b",
         "--trace", str(trace_path), "--mc-samples", "1000"]
    )
    lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
    flushed = len(lines) >= 1 and "config" in lines[0]
    report(
        "criterion-9 subprocess-protocol",
        mismatches == 0 and len(results) == total and code == 1 and flushed,
        f"matched={len(results) - mismatches}/{total}, crash exit={code}, "
        f"partial trace lines={len(lines)}",
    )


def test_criterion_10_reproducibility(tmp_path):
    arms = [
        {"name": f"m{i}", "family": "gaussian", "mean": mu, "sd": 0.01}
        for i, mu in enumerate(FIG_MEANS)
    ]
    arms_path = tmp_path / "arms.json"
    arms_path.write_text(json.dumps(arms))
    csv_path = tmp_path / "scores.csv"
    rng = np.random.default_rng(5)
    rows = ["model,score"]
    for name, mu in (("a", 0.6), ("b", 0.7)):
        rows += [f"{name},{rng.normal(mu, 0.02):.6f}" for _ in range(30)]
    csv_path.write_text("\n".join(rows) + "\n")

    campaigns = {
        "synthetic-fc": {
            "mode": {"kind": "fc", "delta": 0.1},
            "evaluator": {"kind": "synthetic", "arms_file": str(arms_path)},
            "campaign_seed": 42,
            "mc_samples": 4000,
        },
        "synthetic-fb": {
            "mode": {"kind": "fb", "budget": 30},
            "evaluator": {"kind": "synthetic", "arms_file": str(arms_path)},
            "campaign_seed": 42,
        },
        "replay-fc-batch-async": {
            "mode": {"kind": "fc-batch", "delta": 0.2, "batch_size": 3, "sync": False},
            "evaluator": {"kind": "replay", "csv_file": str(csv_path), "exhaustion": "resample"},
            "campaign_seed": 7,
            "mc_samples": 4000,
        },
    }
    identical = {}
    for label, data in campaigns.items():
        blobs = []
        for run in range(2):
            path = tmp_path / f"{label}-{run}.jsonl"
            config = CampaignConfig.from_dict({**data, "trace_path": str(path)})
            run_campaign(config)
            blobs.append(path.read_bytes())
        identical[label] = blobs[0] == blobs[1]
    report(
        "criterion-10 reproducibility",
        all(identical.values()),
        f"byte-identical traces: {identical}",
    )
