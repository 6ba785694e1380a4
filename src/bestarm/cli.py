"""Command-line front end: parse a campaign configuration, run the selected
algorithm against the configured evaluator, and emit the summary, the
JSON-lines trace, and (for replicated sweeps) the aggregate report.

Configuration is a single JSON document; most fields can also be set by a
command-line flag, and flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterator, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from .algorithms import (
    DEFAULT_MAX_TOTAL_EVALS,
    EventSink,
    bts,
    nonadaptive_fixed_budget,
    nonadaptive_fixed_confidence,
    sequential_halving,
    ttts,
)
from .core import (
    ConfigError,
    EvaluatorFailure,
    ModelId,
    SelectionResult,
    TerminationReason,
    TraceEvent,
)
from .evaluators import (
    Evaluator,
    ExhaustionPolicy,
    ReplayEvaluator,
    SubprocessEvaluator,
    SyntheticEvaluator,
    load_arm_file,
    read_replay_csv,
)
from .posterior import DEFAULT_MC_SAMPLES, IDENTITY, TransformMode

_MODE_HELP = {
    "fb": "fixed budget via sequential halving",
    "fc": "fixed confidence via top-two Thompson sampling",
    "fc-batch": "fixed confidence via batch Thompson sampling",
    "baseline-fb": "non-adaptive equal budget split",
    "baseline-fc": "non-adaptive evaluate-all until confident",
}
MODE_KINDS = tuple(_MODE_HELP)
EVALUATOR_KINDS = ("synthetic", "subprocess", "replay")
_CONFIDENCE_KINDS = ("fc", "fc-batch", "baseline-fc")

# 99% two-sided normal quantile, for the binomial interval in reports.
_Z99 = 2.5758293035489004

# How error messages name the JSON type of a leaf.
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list[str]: "a list of strings", type(None): "null"}


def _leaf(default=MISSING, *, kinds=None, required=False, check=None, load=None, dump=None,
          flag=None, **flag_args):
    """Declare one config leaf; its annotation is its type.

    ``kinds`` names the mode or evaluator kinds the leaf belongs to (None:
    all); only they ``check`` it (a predicate and what it demands), serialise
    it (unless None) and, if ``required``, demand it. ``load(path, value)`` and
    ``dump`` convert a leaf whose JSON form is not its type.
    """
    meta = dict(kinds=kinds, required=required, check=check, load=load, dump=dump,
                flag=flag, flag_args=flag_args)
    return field(default=default, metadata=meta)


# Checks: a predicate on a well-typed value, and what the value must be.
_POSITIVE = (lambda n: n >= 1, "must be positive")
_NON_EMPTY = (bool, "must not be empty")


def _one_of(choices):
    return (lambda v: v in choices, f"must be one of {choices}")


def _load_transform(path: str, value) -> TransformMode:
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        raise ConfigError(path, f"must be a string or object, got {value!r}")
    extra = [k for k in value if k not in ("kind", "epsilon")]
    if extra:
        raise ConfigError(f"{path}.{extra[0]}", "unknown key")
    epsilon = value.get("epsilon", 1e-6)
    if not _is_a(epsilon, float):
        raise ConfigError(f"{path}.epsilon", f"must be a number, got {epsilon!r}")
    kind = value.get("kind")
    try:
        return TransformMode.logit(epsilon) if kind == "logit" else TransformMode(kind)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


def _dump_transform(t: TransformMode) -> dict:
    return {"kind": t.kind, "epsilon": t.epsilon} if t.kind == "logit" else {"kind": t.kind}


class _Section:
    """A config section: validated and serialised by walking its declared leaves."""

    def validate(self, _path: str = "") -> None:
        kind = getattr(self, "kind", None)
        for f, hint in _fields(type(self)):
            name, value, meta = _path + f.name, getattr(self, f.name), f.metadata
            if _is_section(hint):
                value.validate(name + ".")
            elif not _is_a(value, hint):
                types = get_args(hint) if get_origin(hint) is Union else (hint,)
                must = " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in types)
                raise ConfigError(name, f"must be {must}, got {value!r}")
            elif meta["kinds"] is not None and kind not in meta["kinds"]:
                continue
            elif value is None:
                if meta["required"]:
                    raise ConfigError(name, f"required when kind is {kind!r}")
            elif meta["check"] and not meta["check"][0](value):
                raise ConfigError(name, f"{meta['check'][1]}, got {value!r}")

    def to_dict(self) -> dict:
        kind = getattr(self, "kind", None)
        out = {}
        for f, hint in _fields(type(self)):
            value, kinds = getattr(self, f.name), f.metadata.get("kinds")
            if kinds is not None and (kind not in kinds or value is None):
                continue
            if _is_section(hint):
                value = value.to_dict()
            elif f.metadata["dump"] and value is not None:
                value = f.metadata["dump"](value)
            out[f.name] = value
        return out


@dataclass
class ModeConfig(_Section):
    """Which algorithm runs, and its policy parameters."""

    kind: str = _leaf(check=_one_of(MODE_KINDS))
    budget: Optional[int] = _leaf(None, kinds=("fb", "baseline-fb"), required=True, check=_POSITIVE,
                                  flag="--budget", type=int, metavar="T", help="evaluation budget")
    delta: Optional[float] = _leaf(
        None, kinds=_CONFIDENCE_KINDS, required=True,
        check=(lambda d: 0.0 < d < 1.0, "must be in (0, 1)"),
        flag="--delta", type=float, metavar="D", help="target error probability")
    max_evals: int = _leaf(DEFAULT_MAX_TOTAL_EVALS, kinds=_CONFIDENCE_KINDS, check=_POSITIVE,
                           flag="--max-evals", type=int, metavar="M", help="total-evaluation safeguard")
    batch_size: Optional[int] = _leaf(None, kinds=("fc-batch",), required=True, check=_POSITIVE,
                                      flag="--batch-size", type=int, metavar="B", help="batch size")
    sync: bool = _leaf(True, kinds=("fc-batch",), flag="--async", action="store_const", const=False,
                       help="asynchronous workers")


@dataclass
class EvaluatorConfig(_Section):
    """Which score back-end serves the campaign."""

    kind: str = _leaf(check=_one_of(EVALUATOR_KINDS))
    arms_file: Optional[str] = _leaf(None, kinds=("synthetic",), required=True, check=_NON_EMPTY,
                                     flag="--synthetic", metavar="ARMS_JSON",
                                     help="synthetic evaluator arm file")
    command: Optional[str] = _leaf(None, kinds=("subprocess",), required=True, check=_NON_EMPTY,
                                   flag="--exec", metavar="CMD", help="subprocess evaluator command")
    max_in_flight: Optional[int] = _leaf(None, kinds=("subprocess",), check=_POSITIVE)
    csv_file: Optional[str] = _leaf(None, kinds=("replay",), required=True, check=_NON_EMPTY,
                                    flag="--replay", metavar="SCORES_CSV",
                                    help="replay evaluator score file")
    exhaustion: str = _leaf(ExhaustionPolicy.RESAMPLE.value, kinds=("replay",),
                            check=_one_of(tuple(p.value for p in ExhaustionPolicy)))
    timeout: Optional[float] = _leaf(None, kinds=("subprocess",),
                                     check=(lambda t: 0 < t < math.inf, "must be a positive number of seconds"),
                                     flag="--timeout", type=float, metavar="SECONDS",
                                     help="longest wait for any reply of the evaluator child")


@dataclass
class CampaignConfig(_Section):
    """Full resolved configuration of one selection campaign."""

    mode: ModeConfig
    evaluator: EvaluatorConfig
    models: Optional[list[str]] = _leaf(
        None, check=_NON_EMPTY, dump=list, flag="--models", metavar="a,b,c",
        type=lambda text: [m for m in text.split(",") if m] if text else None,
        help="comma-separated candidate model names")
    campaign_seed: int = _leaf(0, check=(lambda s: 0 <= s < 2**64, "must fit in 64 bits"),
                               flag="--seed", type=int, metavar="U64", help="campaign seed")
    mc_samples: int = _leaf(DEFAULT_MC_SAMPLES, check=_POSITIVE, flag="--mc-samples", type=int,
                            metavar="N", help="Monte-Carlo rounds per belief update")
    transform: TransformMode = _leaf(IDENTITY, load=_load_transform, dump=_dump_transform,
                                     flag="--transform", choices=["identity", "logit"],
                                     help="score transform")
    trace_path: Optional[str] = _leaf(None, flag="--trace", metavar="PATH",
                                      help="write the JSON-lines trace here")

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        config = _from_dict(cls, data)
        config.validate()
        return config


@functools.cache
def _fields(cls) -> list:
    """The dataclass fields of a config class, each with its resolved type."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def _is_section(hint) -> bool:
    return isinstance(hint, type) and issubclass(hint, _Section)


def _is_a(value, hint) -> bool:
    """Whether a JSON value has a leaf's type: a bool is no number, an int is a float."""
    if get_origin(hint) is Union:
        return any(_is_a(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_is_a(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _from_dict(cls, data, path: str = ""):
    if not isinstance(data, dict):
        raise ConfigError(path.rstrip(".") or "config", "must be a JSON object")
    extra = [k for k in data if k not in {f.name for f in fields(cls)}]
    if extra:
        raise ConfigError(f"{path}{extra[0]}", "unknown key")
    values = {}
    for f, hint in _fields(cls):
        name = path + f.name
        if f.name not in data:
            if f.default is MISSING:
                check = f.metadata.get("check")
                raise ConfigError(name, f"required, {check[1]}" if check else "required")
        elif _is_section(hint):
            values[f.name] = _from_dict(hint, data[f.name], name + ".")
        else:
            load = f.metadata["load"]
            values[f.name] = load(name, data[f.name]) if load else data[f.name]
    return cls(**values)


@contextlib.contextmanager
def _leaf_errors(section: str, cls) -> Iterator[None]:
    """Re-raise a ConfigError that names a leaf of ``cls`` under its config path."""
    try:
        yield
    except ConfigError as e:
        if e.field_name not in {f.name for f in fields(cls)}:
            raise
        raise ConfigError(f"{section}.{e.field_name}", e.message) from None


def _resolve(config: CampaignConfig) -> Evaluator:
    """Build the evaluator back-end, which owns the candidate set.

    When ``models`` is omitted, synthetic campaigns take the arm file's
    names in order and replay campaigns take the CSV's first-seen order;
    subprocess campaigns must name their models explicitly.
    """
    ev, names = config.evaluator, config.models
    with _leaf_errors("evaluator", EvaluatorConfig):
        if ev.kind == "synthetic":
            try:
                dists = load_arm_file(ev.arms_file)
            except (OSError, ValueError) as e:  # a JSONDecodeError is a ValueError
                raise ConfigError("arms_file", str(e)) from None
            return SyntheticEvaluator(dists, list(dists) if names is None else names,
                                      config.campaign_seed)
        if ev.kind == "replay":
            try:
                pools = read_replay_csv(ev.csv_file, known=None if names is None else set(names))
            except OSError as e:
                raise ConfigError("csv_file", str(e)) from None
            return ReplayEvaluator(pools, list(pools) if names is None else names,
                                   config.campaign_seed, ExhaustionPolicy(ev.exhaustion))
        if names is None:
            raise ConfigError("models", "required for the subprocess evaluator")
        return SubprocessEvaluator(ev.command, names, max_in_flight=ev.max_in_flight,
                                   timeout=ev.timeout)


def _candidate_names(config: CampaignConfig) -> list[str]:
    """The names of the candidates; an evaluator built to learn them is closed."""
    if config.models is not None:
        return list(config.models)
    evaluator = _resolve(config)
    evaluator.close()
    return [m.name for m in evaluator.models]


def _dispatch(config: CampaignConfig, evaluator: Evaluator,
              on_event: Optional[EventSink]) -> SelectionResult:
    """Run the mode's algorithm with the mode's leaves as its keywords.

    The algorithm is looked up in this module's namespace at each call, so
    a wrapper set on ``bestarm.cli.ttts`` and the like sees every campaign.
    A ConfigError naming a mode leaf is re-raised under its config path.
    """
    mode = config.mode
    algorithm = {"fb": sequential_halving, "baseline-fb": nonadaptive_fixed_budget, "fc": ttts,
                 "baseline-fc": nonadaptive_fixed_confidence, "fc-batch": bts}[mode.kind]
    params = {f.name: getattr(mode, f.name) for f, _ in _fields(ModeConfig)
              if mode.kind in (f.metadata["kinds"] or ())}
    if mode.kind in _CONFIDENCE_KINDS:
        params["mc_samples"] = config.mc_samples
    with _leaf_errors("mode", ModeConfig):
        return algorithm(evaluator, config.campaign_seed, transform=config.transform,
                         on_event=on_event, **params)


def _header_dict(config: CampaignConfig, models: Sequence[ModelId]) -> dict:
    # The header must be byte-identical across reruns of the same campaign
    # regardless of where each run writes its trace.
    d = config.to_dict()
    d.pop("trace_path", None)
    d["models"] = [m.name for m in models]
    return {"config": d}


@contextlib.contextmanager
def write_trace(path: str, config: CampaignConfig, models: Sequence[ModelId]) -> Iterator[EventSink]:
    """Open the JSON-lines trace and write its header; yield the event writer.

    The header embeds the resolved configuration, with the evaluator's
    candidate set as its ``models``. The writer writes and flushes one line
    per event, so the file holds every event emitted so far even if the
    campaign dies.
    """
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as e:
        raise ConfigError("trace_path", str(e)) from None
    def write_line(obj: dict) -> None:
        try:
            fh.write(json.dumps(obj) + "\n")
            fh.flush()
        except OSError as e:
            raise ConfigError("trace_path", str(e)) from None

    with fh:
        write_line(_header_dict(config, models))
        yield lambda event: write_line(event.to_dict())


def format_summary(models: Sequence[ModelId], result: SelectionResult) -> str:
    lines = [
        f"chosen: {result.chosen.name}",
        f"terminated_by: {result.terminated_by.value}",
        f"total_evals: {result.total_evals}",
        "evals: " + " ".join(f"{m.name}={c}" for m, c in zip(models, result.eval_counts)),
        "pi: " + " ".join(f"{m.name}={p:.6f}" for m, p in zip(models, result.final_belief.pi)),
    ]
    return "\n".join(lines)


def _run(config: CampaignConfig) -> tuple[tuple[ModelId, ...], SelectionResult]:
    """Resolve, open the trace (if configured), dispatch, close the evaluator."""
    evaluator = _resolve(config)
    models = evaluator.models
    try:
        trace = write_trace(config.trace_path, config, models) if config.trace_path else contextlib.nullcontext()
        with trace as on_event:
            return models, _dispatch(config, evaluator, on_event)
    finally:
        evaluator.close()


def _validate_run(config: CampaignConfig) -> None:
    """Validate the config, and refuse a Monte-Carlo belief too coarse for delta.

    A belief's pi has a standard error of up to 0.5/sqrt(mc_samples); above
    delta/2, a few lucky rows can pass the stop test. The algorithms accept
    any mc_samples; this check guards only campaigns run from a config.
    """
    config.validate()
    mode = config.mode
    if mode.kind in _CONFIDENCE_KINDS and 0.5 / math.sqrt(config.mc_samples) > mode.delta / 2:
        raise ConfigError(
            "mc_samples",
            f"must be at least 1/delta^2 = {math.ceil(1 / mode.delta**2)} for delta {mode.delta}, "
            f"so that 0.5/sqrt(mc_samples) is at most delta/2, got {config.mc_samples}",
        )


def run_campaign(config: CampaignConfig) -> tuple[SelectionResult, int]:
    """Validate, run, report: the one-campaign entry point.

    Streams the trace when a path is configured (so a failed or interrupted
    campaign leaves every event emitted so far), prints the human-readable
    summary to stdout, and returns the result with its exit code: 0 for
    budget/confidence termination, 2 when the safeguard tripped.
    """
    _validate_run(config)
    models, result = _run(config)
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
        """99% Wilson score interval for the correct-selection rate.

        Unlike the normal-approximation (Wald) interval it keeps a width at
        a proportion of 0 or 1, the usual outcome of a delta-guarantee sweep.
        """
        p = self.correct_proportion
        if p is None:
            return None
        n, z2 = self.replications, _Z99 * _Z99
        center = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = _Z99 / (1 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n))
        return max(0.0, center - half), min(1.0, center + half)

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
    sweep against live training runs is rarely what anyone wants. Refuses a
    trace path, since the replications write no trace.
    """
    _validate_run(config)
    if config.trace_path is not None:
        raise ConfigError("trace_path", "replicate writes no trace; trace a single campaign instead")
    if replications < 1:
        raise ConfigError("replications", f"must be positive, got {replications}")
    if config.evaluator.kind == "subprocess" and not allow_subprocess:
        raise ConfigError(
            "evaluator.kind",
            "replications against a subprocess evaluator are refused "
            "(pass --allow-exec to override)",
        )
    if true_best is not None and true_best not in _candidate_names(config):
        raise ConfigError("true_best", f"{true_best!r} is not a candidate model")
    name_list: Optional[list[str]] = None
    counts: Optional[list[int]] = None
    totals: list[int] = []
    correct = 0
    for i in range(replications):
        rep = replace(config, campaign_seed=config.campaign_seed + i)
        models, result = _run(rep)
        if name_list is None:
            name_list = [m.name for m in models]
            counts = [0] * len(models)
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


def _add_flags(sp: argparse.ArgumentParser, command: str, cls=CampaignConfig, path="") -> None:
    """Add the leaves' flags, each with its leaf's dotted path as dest; a
    subcommand that is one of a section's kinds gets only that kind's flags."""
    names_kind = any(command in (f.metadata.get("kinds") or ()) for f, _ in _fields(cls))
    for f, hint in _fields(cls):
        if _is_section(hint):
            _add_flags(sp, command, hint, f"{path}{f.name}.")
        elif f.metadata["flag"] and not (names_kind and command not in f.metadata["kinds"]):
            sp.add_argument(f.metadata["flag"], dest=path + f.name, **f.metadata["flag_args"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestarm",
        description="Adaptive selection of the best noisy candidate model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in {**_MODE_HELP, "replicate": "repeat a campaign over consecutive seeds"}.items():
        sp = sub.add_parser(command, help=help_text)
        if command == "replicate":
            sp.add_argument("--mode", dest="mode.kind", choices=MODE_KINDS, help="algorithm to replicate")
            sp.add_argument("--replications", type=int, required=True, metavar="R")
            sp.add_argument("--true-best", metavar="NAME", help="model treated as the true optimum")
            sp.add_argument("--allow-exec", action="store_true", help="permit replicating a subprocess campaign")
        else:
            sp.set_defaults(**{"mode.kind": command})
        sp.add_argument("--config", metavar="PATH", help="campaign config JSON (flags override it)")
        _add_flags(sp, command)
    return parser


def _with_flags(cls, data, args: argparse.Namespace, path=""):
    """Lay the flags given in ``args`` over one section of the config file.

    Where no flag sets the section's kind, the flag of a leaf required by
    some kinds implies the first of them, so at most one such flag may be
    given; a flag of an optional leaf keeps the section's kind.
    """
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError(path.rstrip(".") or "config", "must be a JSON object")
    implies = [f for f, _ in _fields(cls) if f.metadata.get("kinds") and f.metadata["required"]
               and not hasattr(args, path + "kind")]
    out, implied = dict(data), 0
    for f, hint in _fields(cls):
        name = path + f.name
        if _is_section(hint):
            out[f.name] = _with_flags(hint, out.get(f.name), args, name + ".")
        elif getattr(args, name, None) is not None:
            if f in implies:
                implied += 1
                if out.get("kind") not in f.metadata["kinds"]:
                    out = {"kind": f.metadata["kinds"][0]}
            out[f.name] = getattr(args, name)
    if implied > 1:
        flags = [f.metadata["flag"] for f in implies if f.metadata["flag"]]
        raise ConfigError(path.rstrip("."), f"choose exactly one of {', '.join(flags)}")
    return out


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
    return CampaignConfig.from_dict(_with_flags(CampaignConfig, data, args))


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
    except (EvaluatorFailure, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, EvaluatorFailure) and e.stderr:
            print(f"evaluator stderr:\n{e.stderr}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
