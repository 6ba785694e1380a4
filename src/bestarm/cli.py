"""Command-line front end: parse a campaign configuration, run the selected
algorithm against the configured evaluator, and emit the summary, the
JSON-lines trace, and (for replicated sweeps) the aggregate report.

Configuration is a single JSON document; every field can also be set by a
command-line flag, and flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .algorithms import (
    EVALUATOR_ERRORS,
    BatchMode,
    BatchPolicy,
    BudgetPolicy,
    ConfidencePolicy,
    DEFAULT_MAX_TOTAL_EVALS,
    bts,
    nonadaptive_fixed_budget,
    nonadaptive_fixed_confidence,
    sequential_halving,
    ttts,
)
from .core import (
    ConfigError,
    ModelId,
    SelectionResult,
    TerminationReason,
    TraceEvent,
    make_model_ids,
)
from .evaluators import (
    Evaluator,
    ExhaustionPolicy,
    ReplayEvaluator,
    ReplayTable,
    SubprocessEvaluator,
    SyntheticEvaluator,
    build_arm_specs,
    load_arm_file,
    read_replay_csv,
)
from .posterior import DEFAULT_MC_SAMPLES, IDENTITY, TransformMode

MODE_KINDS = ("fb", "fc", "fc-batch", "baseline-fb", "baseline-fc")
EVALUATOR_KINDS = ("synthetic", "subprocess", "replay")

# 99% two-sided normal quantile, for the binomial interval in reports.
_Z99 = 2.5758293035489004


@dataclass
class ModeConfig:
    """Which algorithm runs, and its policy parameters."""

    kind: str
    budget: Optional[int] = None
    delta: Optional[float] = None
    max_evals: int = DEFAULT_MAX_TOTAL_EVALS
    batch_size: Optional[int] = None
    sync: bool = True

    def validate(self) -> None:
        if self.kind not in MODE_KINDS:
            raise ConfigError("mode.kind", f"must be one of {MODE_KINDS}, got {self.kind!r}")
        if self.kind in ("fb", "baseline-fb"):
            if self.budget is None or self.budget < 1:
                raise ConfigError("mode.budget", f"must be a positive integer, got {self.budget}")
        else:
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ConfigError("mode.delta", f"must be in (0, 1), got {self.delta}")
            if self.max_evals < 1:
                raise ConfigError("mode.max_evals", f"must be positive, got {self.max_evals}")
        if self.kind == "fc-batch" and (self.batch_size is None or self.batch_size < 1):
            raise ConfigError(
                "mode.batch_size", f"must be a positive integer, got {self.batch_size}"
            )

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind in ("fb", "baseline-fb"):
            d["budget"] = self.budget
        else:
            d["delta"] = self.delta
            d["max_evals"] = self.max_evals
        if self.kind == "fc-batch":
            d["batch_size"] = self.batch_size
            d["sync"] = self.sync
        return d


@dataclass
class EvaluatorConfig:
    """Which score back-end serves the campaign."""

    kind: str
    arms_file: Optional[str] = None
    command: Optional[str] = None
    max_in_flight: Optional[int] = None
    csv_file: Optional[str] = None
    exhaustion: str = ExhaustionPolicy.RESAMPLE.value

    def validate(self) -> None:
        if self.kind not in EVALUATOR_KINDS:
            raise ConfigError(
                "evaluator.kind", f"must be one of {EVALUATOR_KINDS}, got {self.kind!r}"
            )
        if self.kind == "synthetic" and not self.arms_file:
            raise ConfigError("evaluator.arms_file", "required for the synthetic evaluator")
        if self.kind == "subprocess" and not self.command:
            raise ConfigError("evaluator.command", "required for the subprocess evaluator")
        if self.kind == "replay":
            if not self.csv_file:
                raise ConfigError("evaluator.csv_file", "required for the replay evaluator")
            try:
                ExhaustionPolicy(self.exhaustion)
            except ValueError:
                raise ConfigError(
                    "evaluator.exhaustion",
                    f"must be one of {[p.value for p in ExhaustionPolicy]}, "
                    f"got {self.exhaustion!r}",
                ) from None
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ConfigError(
                "evaluator.max_in_flight", f"must be positive, got {self.max_in_flight}"
            )

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "synthetic":
            d["arms_file"] = self.arms_file
        elif self.kind == "subprocess":
            d["command"] = self.command
            if self.max_in_flight is not None:
                d["max_in_flight"] = self.max_in_flight
        else:
            d["csv_file"] = self.csv_file
            d["exhaustion"] = self.exhaustion
        return d


@dataclass
class CampaignConfig:
    """Full resolved configuration of one selection campaign."""

    mode: ModeConfig
    evaluator: EvaluatorConfig
    models: Optional[list[str]] = None
    campaign_seed: int = 0
    mc_samples: int = DEFAULT_MC_SAMPLES
    transform: TransformMode = IDENTITY
    trace_path: Optional[str] = None

    def validate(self) -> None:
        self.mode.validate()
        self.evaluator.validate()
        if self.models is not None and len(self.models) == 0:
            raise ConfigError("models", "must not be an empty list")
        if not (0 <= self.campaign_seed < 2**64):
            raise ConfigError("campaign_seed", f"must fit in 64 bits, got {self.campaign_seed}")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples", f"must be positive, got {self.mc_samples}")

    def to_dict(self) -> dict:
        t: dict = {"kind": self.transform.kind}
        if self.transform.kind == "logit":
            t["epsilon"] = self.transform.epsilon
        return {
            "mode": self.mode.to_dict(),
            "evaluator": self.evaluator.to_dict(),
            "models": list(self.models) if self.models is not None else None,
            "campaign_seed": self.campaign_seed,
            "mc_samples": self.mc_samples,
            "transform": t,
            "trace_path": self.trace_path,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise ConfigError("config", "must be a JSON object")
        mode_d = data.get("mode")
        if not isinstance(mode_d, dict) or "kind" not in mode_d:
            raise ConfigError("mode", "must be an object with a 'kind'")
        mode = ModeConfig(
            kind=mode_d["kind"],
            budget=mode_d.get("budget"),
            delta=mode_d.get("delta"),
            max_evals=mode_d.get("max_evals", DEFAULT_MAX_TOTAL_EVALS),
            batch_size=mode_d.get("batch_size"),
            sync=mode_d.get("sync", True),
        )
        ev_d = data.get("evaluator")
        if not isinstance(ev_d, dict) or "kind" not in ev_d:
            raise ConfigError("evaluator", "must be an object with a 'kind'")
        evaluator = EvaluatorConfig(
            kind=ev_d["kind"],
            arms_file=ev_d.get("arms_file"),
            command=ev_d.get("command"),
            max_in_flight=ev_d.get("max_in_flight"),
            csv_file=ev_d.get("csv_file"),
            exhaustion=ev_d.get("exhaustion", ExhaustionPolicy.RESAMPLE.value),
        )
        transform = _parse_transform(data.get("transform", "identity"))
        models = data.get("models")
        if models is not None:
            models = [str(m) for m in models]
        config = cls(
            mode=mode,
            evaluator=evaluator,
            models=models,
            campaign_seed=int(data.get("campaign_seed", 0)),
            mc_samples=int(data.get("mc_samples", DEFAULT_MC_SAMPLES)),
            transform=transform,
            trace_path=data.get("trace_path"),
        )
        config.validate()
        return config


def _parse_transform(value) -> TransformMode:
    try:
        if isinstance(value, str):
            if value == "identity":
                return TransformMode.identity()
            if value == "logit":
                return TransformMode.logit()
            raise ValueError(f"unknown transform {value!r}")
        if isinstance(value, dict):
            kind = value.get("kind")
            if kind == "identity":
                return TransformMode.identity()
            if kind == "logit":
                return TransformMode.logit(float(value.get("epsilon", 1e-6)))
            raise ValueError(f"unknown transform kind {kind!r}")
        raise ValueError(f"transform must be a string or object, got {value!r}")
    except ValueError as e:
        raise ConfigError("transform", str(e)) from None


def _resolve(config: CampaignConfig) -> tuple[tuple[ModelId, ...], Evaluator]:
    """Resolve the candidate set and build the evaluator back-end.

    When ``models`` is omitted, synthetic campaigns take the arm file's
    names in order and replay campaigns take the CSV's first-seen order;
    subprocess campaigns must name their models explicitly.
    """
    ev = config.evaluator
    if ev.kind == "synthetic":
        try:
            entries = load_arm_file(ev.arms_file)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            raise ConfigError("evaluator.arms_file", str(e)) from None
        names = config.models if config.models is not None else [n for n, _ in entries]
        models = _make_models(names)
        try:
            arms = build_arm_specs(entries, models)
        except ValueError as e:
            raise ConfigError("models", str(e)) from None
        return models, SyntheticEvaluator(arms, config.campaign_seed)
    if ev.kind == "replay":
        known = set(config.models) if config.models is not None else None
        try:
            pools = read_replay_csv(ev.csv_file, known=known)
        except OSError as e:
            raise ConfigError("evaluator.csv_file", str(e)) from None
        names = config.models if config.models is not None else list(pools.keys())
        models = _make_models(names)
        try:
            table = ReplayTable(pools, models, ExhaustionPolicy(ev.exhaustion))
        except ValueError as e:
            raise ConfigError("models", str(e)) from None
        return models, ReplayEvaluator(table, config.campaign_seed)
    if config.models is None:
        raise ConfigError("models", "required for the subprocess evaluator")
    models = _make_models(config.models)
    evaluator = SubprocessEvaluator(
        ev.command, [m.name for m in models], max_in_flight=ev.max_in_flight
    )
    return models, evaluator


def _make_models(names: Sequence[str]) -> tuple[ModelId, ...]:
    try:
        return make_model_ids(names)
    except ValueError as e:
        raise ConfigError("models", str(e)) from None


def _dispatch(
    config: CampaignConfig, models: tuple[ModelId, ...], evaluator: Evaluator
) -> SelectionResult:
    mode = config.mode
    seed = config.campaign_seed
    common = dict(mc_samples=config.mc_samples, transform=config.transform)
    if mode.kind == "fb":
        return sequential_halving(
            models, BudgetPolicy(mode.budget), evaluator, seed, transform=config.transform
        )
    if mode.kind == "baseline-fb":
        return nonadaptive_fixed_budget(
            models, BudgetPolicy(mode.budget), evaluator, seed, transform=config.transform
        )
    conf = ConfidencePolicy(delta=mode.delta, max_total_evals=mode.max_evals)
    if mode.kind == "fc":
        return ttts(models, conf, evaluator, seed, **common)
    if mode.kind == "baseline-fc":
        return nonadaptive_fixed_confidence(models, conf, evaluator, seed, **common)
    batch = BatchPolicy(
        batch_size=mode.batch_size,
        mode=BatchMode.SYNCHRONOUS if mode.sync else BatchMode.ASYNCHRONOUS,
    )
    return bts(models, conf, batch, evaluator, seed, **common)


def _header_dict(config: CampaignConfig, models: Optional[Sequence[ModelId]] = None) -> dict:
    # The header must be byte-identical across reruns of the same campaign
    # regardless of where each run writes its trace.
    d = config.to_dict()
    d.pop("trace_path", None)
    if d.get("models") is None and models is not None:
        d["models"] = [m.name for m in models]
    return {"config": d}


def write_trace(
    path: str,
    config: CampaignConfig,
    events: Sequence[TraceEvent],
    models: Optional[Sequence[ModelId]] = None,
) -> None:
    """Write the JSON-lines trace: one header line, then one line per event.

    The header embeds the resolved configuration, including the candidate
    set when it was derived from an evaluator source file.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header_dict(config, models)) + "\n")
        for ev in events:
            fh.write(json.dumps(ev.to_dict()) + "\n")


def format_summary(models: Sequence[ModelId], result: SelectionResult) -> str:
    lines = [
        f"chosen: {result.chosen.name}",
        f"terminated_by: {result.terminated_by.value}",
        f"total_evals: {result.total_evals}",
        "evals: " + " ".join(f"{m.name}={c}" for m, c in zip(models, result.eval_counts)),
        "pi: " + " ".join(f"{m.name}={p:.6f}" for m, p in zip(models, result.final_belief.pi)),
    ]
    return "\n".join(lines)


def run_campaign(config: CampaignConfig) -> tuple[SelectionResult, int]:
    """Validate, run, report: the one-campaign entry point.

    Prints the human-readable summary to stdout, writes the trace when a
    path is configured (including the partial trace on evaluator failure,
    before the failure propagates), and returns the result with its exit
    code: 0 for budget/confidence termination, 2 when the safeguard tripped.
    """
    config.validate()
    models, evaluator = _resolve(config)
    try:
        result = _dispatch(config, models, evaluator)
    except EVALUATOR_ERRORS as e:
        partial = getattr(e, "partial_trace", None)
        if config.trace_path and partial is not None:
            write_trace(config.trace_path, config, partial, models)
        raise
    finally:
        evaluator.close()
    if config.trace_path:
        write_trace(config.trace_path, config, result.trace, models)
    print(format_summary(models, result))
    code = 2 if result.terminated_by is TerminationReason.MAX_EVALS_SAFEGUARD else 0
    return result, code


@dataclass
class ReplicationReport:
    """Aggregate over repeated campaigns at consecutive seeds."""

    replications: int
    model_names: list[str]
    selection_counts: list[int]
    min_evals: int
    mean_evals: float
    max_evals: int
    true_best: Optional[str] = None
    correct: Optional[int] = None

    @property
    def correct_proportion(self) -> Optional[float]:
        if self.correct is None:
            return None
        return self.correct / self.replications

    def binomial_ci(self) -> Optional[tuple[float, float]]:
        """99% normal-approximation interval for the correct-selection rate."""
        p = self.correct_proportion
        if p is None:
            return None
        half = _Z99 * math.sqrt(p * (1.0 - p) / self.replications)
        return max(0.0, p - half), min(1.0, p + half)

    def format(self) -> str:
        lines = [
            f"replications: {self.replications}",
            f"total_evals: min={self.min_evals} mean={self.mean_evals:.2f} max={self.max_evals}",
            "selection_freq: "
            + " ".join(
                f"{name}={count / self.replications:.4f}"
                for name, count in zip(self.model_names, self.selection_counts)
            ),
        ]
        if self.correct is not None:
            lo, hi = self.binomial_ci()
            lines.append(
                f"correct: {self.correct_proportion:.4f} ({self.correct}/{self.replications}) "
                f"99% CI [{lo:.4f}, {hi:.4f}] true_best={self.true_best}"
            )
        return "\n".join(lines)


def run_replications(
    config: CampaignConfig,
    replications: int,
    true_best: Optional[str] = None,
    allow_subprocess: bool = False,
) -> ReplicationReport:
    """Run the campaign at seeds seed, seed+1, ... and aggregate the results.

    Refuses subprocess evaluators unless explicitly overridden: repeating a
    sweep against live training runs is rarely what anyone wants.
    """
    config.validate()
    if replications < 1:
        raise ConfigError("replications", f"must be positive, got {replications}")
    if config.evaluator.kind == "subprocess" and not allow_subprocess:
        raise ConfigError(
            "evaluator.kind",
            "replications against a subprocess evaluator are refused "
            "(pass --allow-exec to override)",
        )
    name_list: Optional[list[str]] = None
    counts: Optional[list[int]] = None
    totals: list[int] = []
    correct = 0
    for i in range(replications):
        rep = replace(config, campaign_seed=config.campaign_seed + i, trace_path=None)
        models, evaluator = _resolve(rep)
        try:
            result = _dispatch(rep, models, evaluator)
        finally:
            evaluator.close()
        if name_list is None:
            name_list = [m.name for m in models]
            counts = [0] * len(models)
            if true_best is not None and true_best not in name_list:
                raise ConfigError("true_best", f"{true_best!r} is not a candidate model")
        counts[result.chosen.index] += 1
        totals.append(result.total_evals)
        if true_best is not None and result.chosen.name == true_best:
            correct += 1
    return ReplicationReport(
        replications=replications,
        model_names=name_list,
        selection_counts=counts,
        min_evals=min(totals),
        mean_evals=sum(totals) / len(totals),
        max_evals=max(totals),
        true_best=true_best,
        correct=correct if true_best is not None else None,
    )


def _add_common_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="PATH", help="campaign config JSON (flags override it)")
    sp.add_argument("--seed", type=int, metavar="U64", help="campaign seed")
    sp.add_argument("--trace", metavar="PATH", help="write the JSON-lines trace here")
    sp.add_argument("--mc-samples", type=int, metavar="N", help="Monte-Carlo rounds per belief update")
    sp.add_argument("--transform", choices=["identity", "logit"], help="score transform")
    sp.add_argument("--models", metavar="a,b,c", help="comma-separated candidate model names")
    sp.add_argument("--synthetic", metavar="ARMS_JSON", help="synthetic evaluator arm file")
    sp.add_argument("--exec", dest="exec_cmd", metavar="CMD", help="subprocess evaluator command")
    sp.add_argument("--replay", metavar="SCORES_CSV", help="replay evaluator score file")


def _add_fc_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--delta", type=float, metavar="D", help="target error probability")
    sp.add_argument("--max-evals", type=int, metavar="M", help="total-evaluation safeguard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestarm",
        description="Adaptive selection of the best noisy candidate model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fb", help="fixed budget via sequential halving")
    sp.add_argument("--budget", type=int, metavar="T")
    _add_common_flags(sp)

    sp = sub.add_parser("fc", help="fixed confidence via top-two Thompson sampling")
    _add_fc_flags(sp)
    _add_common_flags(sp)

    sp = sub.add_parser("fc-batch", help="fixed confidence via batch Thompson sampling")
    _add_fc_flags(sp)
    sp.add_argument("--batch-size", type=int, metavar="B")
    sp.add_argument("--async", dest="async_mode", action="store_true", help="asynchronous workers")
    _add_common_flags(sp)

    sp = sub.add_parser("baseline-fb", help="non-adaptive equal budget split")
    sp.add_argument("--budget", type=int, metavar="T")
    _add_common_flags(sp)

    sp = sub.add_parser("baseline-fc", help="non-adaptive evaluate-all until confident")
    _add_fc_flags(sp)
    _add_common_flags(sp)

    sp = sub.add_parser("replicate", help="repeat a campaign over consecutive seeds")
    sp.add_argument("--mode", choices=MODE_KINDS, help="algorithm to replicate")
    sp.add_argument("--replications", type=int, required=True, metavar="R")
    sp.add_argument("--true-best", metavar="NAME", help="model treated as the true optimum")
    sp.add_argument("--allow-exec", action="store_true", help="permit replicating a subprocess campaign")
    sp.add_argument("--budget", type=int, metavar="T")
    _add_fc_flags(sp)
    sp.add_argument("--batch-size", type=int, metavar="B")
    sp.add_argument("--async", dest="async_mode", action="store_true")
    _add_common_flags(sp)

    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Merge the config file (if any) with flags; flags win."""
    data: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError("config", str(e)) from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError("config", "must be a JSON object")

    mode = dict(data.get("mode") or {})
    if args.command == "replicate":
        if args.mode:
            mode["kind"] = args.mode
        if "kind" not in mode:
            raise ConfigError("mode.kind", "replicate needs --mode or a config with one")
    else:
        mode["kind"] = args.command
    for flag, key in (("budget", "budget"), ("delta", "delta"), ("max_evals", "max_evals"),
                      ("batch_size", "batch_size")):
        value = getattr(args, flag, None)
        if value is not None:
            mode[key] = value
    if getattr(args, "async_mode", False):
        mode["sync"] = False

    evaluator = dict(data.get("evaluator") or {})
    picked = [f for f in ("synthetic", "exec_cmd", "replay") if getattr(args, f, None)]
    if len(picked) > 1:
        raise ConfigError("evaluator", "choose exactly one of --synthetic, --exec, --replay")
    if args.synthetic:
        if evaluator.get("kind") != "synthetic":
            evaluator = {"kind": "synthetic"}
        evaluator["arms_file"] = args.synthetic
    elif args.exec_cmd:
        if evaluator.get("kind") != "subprocess":
            evaluator = {"kind": "subprocess"}
        evaluator["command"] = args.exec_cmd
    elif args.replay:
        if evaluator.get("kind") != "replay":
            evaluator = {"kind": "replay"}
        evaluator["csv_file"] = args.replay
    if not evaluator.get("kind"):
        raise ConfigError("evaluator", "no evaluator configured (use --synthetic, --exec or --replay)")

    merged = dict(data)
    merged["mode"] = mode
    merged["evaluator"] = evaluator
    if args.models:
        merged["models"] = [m for m in args.models.split(",") if m]
    if args.seed is not None:
        merged["campaign_seed"] = args.seed
    if args.mc_samples is not None:
        merged["mc_samples"] = args.mc_samples
    if args.transform is not None:
        merged["transform"] = args.transform
    if args.trace is not None:
        merged["trace_path"] = args.trace
    return CampaignConfig.from_dict(merged)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "replicate":
            report = run_replications(
                config,
                replications=args.replications,
                true_best=args.true_best,
                allow_subprocess=args.allow_exec,
            )
            print(report.format())
            return 0
        _, code = run_campaign(config)
        return code
    except EVALUATOR_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        stderr = getattr(e, "stderr", None)
        if stderr:
            print(f"evaluator stderr:\n{stderr}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
