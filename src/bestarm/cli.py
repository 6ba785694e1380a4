"""Command-line front end: parse a campaign configuration, run the selected
algorithm against the configured evaluator, and emit the summary, the
JSON-lines trace, and (for replicated sweeps) the aggregate report.

Configuration is a single JSON document; most fields can also be set by a
command-line flag, and flags win.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Callable, Iterator, Literal, Optional, Sequence, Union, get_args, get_origin

from .algorithms import (  # the entry points are looked up by name in _run
    DEFAULT_MAX_TOTAL_EVALS,
    EventSink,
    bts,
    check_arguments,
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
    make_model_ids,
    require_positive_int,
)
from .evaluators import (
    EXHAUSTION_POLICIES,
    Evaluator,
    ReplayEvaluator,
    SubprocessEvaluator,
    SyntheticEvaluator,
    load_arm_file,
    read_json,
    read_replay_csv,
)
from .posterior import DEFAULT_MC_SAMPLES, TransformMode

# Each mode kind's subcommand help, and the name of its entry point.
_MODES = {
    "fb": ("fixed budget via sequential halving", "sequential_halving"),
    "fc": ("fixed confidence via top-two Thompson sampling", "ttts"),
    "fc-batch": ("fixed confidence via batch Thompson sampling", "bts"),
    "baseline-fb": ("non-adaptive equal budget split", "nonadaptive_fixed_budget"),
    "baseline-fc": ("non-adaptive evaluate-all until confident", "nonadaptive_fixed_confidence"),
}
_CONFIDENCE_KINDS = ("fc", "fc-batch", "baseline-fc")

# 99% two-sided normal quantile, for the binomial interval in reports.
_Z99 = 2.5758293035489004

# How error messages name the JSON type of a leaf.
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list[str]: "a list of strings", type(None): "null"}


def _leaf(default=MISSING, *, kinds=None, required=False, flag=None, **flag_args):
    """Declare one config leaf; its annotation is its type.

    ``kinds`` names the section kinds the leaf belongs to (None: all); only
    they serialise it (unless None), accept its ``flag`` and, if ``required``,
    demand it.
    """
    meta = dict(kinds=kinds, required=required, flag=flag, flag_args=flag_args)
    return field(default=default, metadata=meta)


class _Section:
    """A config section: built and checked by ``_from_dict``, serialised here."""

    def to_dict(self) -> dict:
        kind = getattr(self, "kind", None)
        out = {}
        for f in fields(self):
            value, kinds = getattr(self, f.name), f.metadata.get("kinds")
            if kinds is not None and (kind not in kinds or value is None):
                continue
            out[f.name] = value.to_dict() if _is_section(f.type) else value
        return out


@dataclass
class ModeConfig(_Section):
    """Which algorithm runs, and its policy parameters."""

    kind: Literal[tuple(_MODES)] = _leaf()
    budget: Optional[int] = _leaf(None, kinds=("fb", "baseline-fb"), required=True,
                                  flag="--budget", type=int, metavar="T", help="evaluation budget")
    delta: Optional[float] = _leaf(None, kinds=_CONFIDENCE_KINDS, required=True, flag="--delta",
                                   type=float, metavar="D", help="target error probability")
    max_evals: int = _leaf(DEFAULT_MAX_TOTAL_EVALS, kinds=_CONFIDENCE_KINDS,
                           flag="--max-evals", type=int, metavar="M", help="total-evaluation safeguard")
    batch_size: Optional[int] = _leaf(None, kinds=("fc-batch",), required=True,
                                      flag="--batch-size", type=int, metavar="B", help="batch size")
    sync: bool = _leaf(True, kinds=("fc-batch",), flag="--async", action="store_const", const=False,
                       help="asynchronous workers")


@dataclass
class EvaluatorConfig(_Section):
    """Which score back-end serves the campaign."""

    kind: Literal["synthetic", "subprocess", "replay"] = _leaf()
    arms_file: Optional[str] = _leaf(None, kinds=("synthetic",), required=True,
                                     flag="--synthetic", metavar="ARMS_JSON",
                                     help="synthetic evaluator arm file")
    command: Optional[str] = _leaf(None, kinds=("subprocess",), required=True,
                                   flag="--exec", metavar="CMD", help="subprocess evaluator command")
    csv_file: Optional[str] = _leaf(None, kinds=("replay",), required=True,
                                    flag="--replay", metavar="SCORES_CSV",
                                    help="replay evaluator score file")
    exhaustion: Literal[EXHAUSTION_POLICIES] = _leaf("resample", kinds=("replay",))
    timeout: Optional[float] = _leaf(None, kinds=("subprocess",), flag="--timeout", type=float,
                                     metavar="SECONDS",
                                     help="longest wait for any reply of the evaluator child")


# Frozen, so that an instance can be the default of CampaignConfig.transform.
@dataclass(frozen=True)
class TransformConfig(_Section):
    """Which transform each score passes through as it is folded in."""

    kind: Literal["identity", "logit"] = _leaf(flag="--transform", choices=["identity", "logit"],
                                               help="score transform")
    epsilon: float = _leaf(1e-6, kinds=("logit",))


@dataclass
class CampaignConfig(_Section):
    """Full resolved configuration of one selection campaign."""

    mode: ModeConfig
    evaluator: EvaluatorConfig
    models: Optional[list[str]] = _leaf(
        None, flag="--models", metavar="a,b,c",
        type=lambda text: [m for m in text.split(",") if m], help="comma-separated candidate model names")
    campaign_seed: int = _leaf(0, flag="--seed", type=int, metavar="U64", help="campaign seed")
    mc_samples: int = _leaf(DEFAULT_MC_SAMPLES, flag="--mc-samples", type=int,
                            metavar="N", help="Monte-Carlo rounds per belief update")
    transform: TransformConfig = TransformConfig("identity")
    trace_path: Optional[str] = _leaf(None, flag="--trace", metavar="PATH",
                                      help="write the JSON-lines trace here")

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        return _from_dict(cls, data)


def _is_section(hint) -> bool:
    return isinstance(hint, type) and issubclass(hint, _Section)


def _is_a(value, hint) -> bool:
    """Whether a JSON value has a leaf's type: a bool is no number, an int is a float."""
    if get_origin(hint) is Literal:
        return isinstance(value, str) and value in get_args(hint)
    if get_origin(hint) is Union:
        return any(_is_a(value, h) for h in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_is_a(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _type_name(hint) -> str:
    if get_origin(hint) is Literal:
        return f"one of {get_args(hint)}"
    types = get_args(hint) if get_origin(hint) is Union else (hint,)
    return " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in types)


def _from_dict(cls, data, path: str = "", args: Optional[argparse.Namespace] = None):
    """Build and check a config section from its JSON form or a section of its
    class: it is an object; flags in ``args`` lie over it (a null inner section is
    empty, an absent one its default or empty; a flag of a leaf some kinds require
    sets the kind to the first, unless a flag sets it); it has no unknown key; each
    leaf passes its required, type and kind checks, leaving its value to the library.
    A leaf of another kind is unused and reset to its default, and refused if a flag set it."""
    fs = fields(cls)
    if isinstance(data, cls) or data is None and args is not None and path:
        data = {} if data is None else vars(data)
    if not isinstance(data, dict):
        raise ConfigError(path.rstrip(".") or "config", "must be a JSON object")
    if args is not None:
        data, implied = dict(data), 0
        for f in fs:
            flag, kinds = getattr(args, path + f.name, None), f.metadata.get("kinds")
            if _is_section(f.type):
                data.setdefault(f.name, None if f.default is MISSING else f.default)
            elif flag is not None:
                if kinds and f.metadata["required"] and not hasattr(args, path + "kind"):
                    implied += 1
                    data["kind"] = kinds[0]
                data[f.name] = flag
        if implied > 1:
            flags = ", ".join(f.metadata["flag"] for f in fs if f.metadata.get("required"))
            raise ConfigError(path.rstrip("."), f"choose exactly one of {flags}")
    extra = [k for k in data if k not in {f.name for f in fs}]
    if extra:
        raise ConfigError(f"{path}{extra[0]}", "unknown key")
    values = {}
    for f in fs:
        name, meta, kind = path + f.name, f.metadata, values.get("kind")
        if f.name not in data and f.default is MISSING:
            raise ConfigError(name, "required" if _is_section(f.type)
                              else f"required, must be {_type_name(f.type)}")
        value = data.get(f.name, f.default)
        if _is_section(f.type):
            value = _from_dict(f.type, value, name + ".", args)
        elif not _is_a(value, f.type):
            raise ConfigError(name, f"must be {_type_name(f.type)}, got {value!r}")
        elif value is None and meta["required"] and kind in meta["kinds"]:
            raise ConfigError(name, f"required when kind is {kind!r}")
        elif meta["kinds"] and kind not in meta["kinds"]:
            if getattr(args, name, None) is not None:
                raise ConfigError(name, f"{meta['flag']} does not apply when kind is {kind!r}")
            value = f.default
        values[f.name] = value
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


def _read(leaf: str, path: str, reader: Callable):
    """Return ``reader(path)``. A file it cannot open, decode, parse or accept
    (bad UTF-8, over-deep JSON, a refused entry or line) is refused on ``leaf``."""
    try:
        return reader(path)
    except json.JSONDecodeError as e:
        raise ConfigError(leaf, f"invalid JSON: {e}") from None
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError(leaf, str(e)) from None


def _load_data(config: CampaignConfig) -> tuple[list[str], Callable[[], Evaluator]]:
    """Read the evaluator's data file once; return the candidates' names
    (``models`` when given, else the arm file's or replay CSV's names in order;
    a subprocess campaign must give them) and ``build``, which makes a fresh
    evaluator back-end of them, the owner of the candidate set."""
    ev = config.evaluator
    if ev.kind == "synthetic":
        data = _read("evaluator.arms_file", ev.arms_file, load_arm_file)
        make = partial(SyntheticEvaluator, data)
    elif ev.kind == "replay":
        data = _read("evaluator.csv_file", ev.csv_file, read_replay_csv)
        make = partial(ReplayEvaluator, data, exhaustion=ev.exhaustion)
    elif config.models is None:
        raise ConfigError("models", "required for the subprocess evaluator")
    else:
        make = partial(SubprocessEvaluator, ev.command, timeout=ev.timeout)
    names = list(data if config.models is None else config.models)
    return names, partial(make, names)


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file; a missing file, or a path with a NUL byte, is no input file."""
    try:
        return os.path.samefile(path, other)
    except (OSError, ValueError):
        return False


@contextlib.contextmanager
def write_trace(path: str, config: CampaignConfig, models: Sequence[ModelId]) -> Iterator[EventSink]:
    """Open the JSON-lines trace and write its header; yield the event writer.

    The header embeds the resolved configuration, with the evaluator's
    candidate set as its ``models``. The writer writes and flushes one line
    per event, so the file holds every event emitted so far even if the
    campaign dies. A ``path`` that is the run's arm file or replay CSV is
    refused before anything is opened, since the trace would replace it.
    """
    ev = config.evaluator
    leaf = {"synthetic": "arms_file", "replay": "csv_file"}.get(ev.kind)
    if leaf is not None and _same_file(path, getattr(ev, leaf)):
        raise ConfigError("trace_path", f"{path!r} is evaluator.{leaf}, the run's input file")
    try:
        fh = open(path, "w", encoding="utf-8")
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path
        raise ConfigError("trace_path", str(e)) from None
    def write_line(obj: dict) -> None:
        try:
            fh.write(json.dumps(obj) + "\n")
            fh.flush()
        except OSError as e:
            raise ConfigError("trace_path", str(e)) from None

    # The header must be byte-identical across reruns of the same campaign
    # regardless of where each run writes its trace.
    header = config.to_dict()
    header.pop("trace_path", None)
    header["models"] = [m.name for m in models]
    with fh:
        write_line({"config": header})
        yield write_line


def format_summary(result: SelectionResult) -> str:
    models = result.models
    lines = [
        f"chosen: {result.chosen.name}",
        f"terminated_by: {result.terminated_by.value}",
        f"total_evals: {result.total_evals}",
        "evals: " + " ".join(f"{m.name}={c}" for m, c in zip(models, result.eval_counts)),
        "pi: " + " ".join(f"{m.name}={p:.6f}" for m, p in zip(models, result.final_belief.pi)),
    ]
    return "\n".join(lines)


def _run(config: CampaignConfig, build: Callable[[], Evaluator]) -> SelectionResult:
    """Build the transform, then the evaluator with ``build``, check the call, open the
    trace (if configured), then run the mode's entry point with the mode's leaves as its keywords.

    The entry point is looked up in this module's namespace at each call, so
    a wrapper set on ``bestarm.cli.ttts`` and the like sees every campaign.
    A ConfigError naming a leaf of the transform, evaluator or mode section is
    re-raised under its config path.
    """
    mode, entry = config.mode, _MODES[config.mode.kind][1]
    params = {f.name: getattr(mode, f.name) for f in fields(mode)
              if mode.kind in (f.metadata["kinds"] or ())}
    if mode.kind in _CONFIDENCE_KINDS:
        params["mc_samples"] = config.mc_samples
    with _leaf_errors("transform", TransformConfig):
        params["transform"] = TransformMode(**config.transform.to_dict())
    with _leaf_errors("evaluator", EvaluatorConfig):
        evaluator = build()
    try:
        with _leaf_errors("mode", ModeConfig):
            check_arguments(entry, evaluator, config.campaign_seed, **params)
            trace = (contextlib.nullcontext() if config.trace_path is None
                     else write_trace(config.trace_path, config, evaluator.models))
            with trace as on_event:
                return globals()[entry](evaluator, config.campaign_seed, on_event=on_event, **params)
    finally:
        evaluator.close()


def run_campaign(config: CampaignConfig) -> tuple[SelectionResult, int]:
    """Check a copy, run it, report: the one-campaign entry point.

    Streams the trace when a path is configured (so a failed or interrupted
    campaign leaves every event emitted so far), prints the human-readable
    summary to stdout, and returns the result with its exit code: 0 for
    budget/confidence termination, 2 when the safeguard tripped.
    """
    config = _from_dict(CampaignConfig, config)
    result = _run(config, _load_data(config)[1])
    print(format_summary(result), flush=True)
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
    config = _from_dict(CampaignConfig, config)
    if config.trace_path is not None:
        raise ConfigError("trace_path", "replicate writes no trace; trace a single campaign instead")
    require_positive_int("replications", replications)
    if config.campaign_seed + replications > 2**64:
        raise ConfigError("campaign_seed", f"must leave {replications} consecutive seeds below 2^64 "
                          f"for the replications, got {config.campaign_seed}")
    if config.evaluator.kind == "subprocess" and not allow_subprocess:
        raise ConfigError(
            "evaluator.kind",
            "replications against a subprocess evaluator are refused "
            "(pass --allow-exec to override)",
        )
    # Parsed once; each seed still gets its own fresh evaluator.
    names, build = _load_data(config)
    # The candidates are refused, naming models, before true_best is judged.
    make_model_ids(names)
    if true_best is not None and true_best not in names:
        raise ConfigError("true_best", f"{true_best!r} is not a candidate model")
    counts = [0] * len(names)
    totals: list[int] = []
    correct = 0
    for i in range(replications):
        result = _run(replace(config, campaign_seed=config.campaign_seed + i), build)
        counts[result.chosen.index] += 1
        totals.append(result.total_evals)
        correct += result.chosen.name == true_best
    return ReplicationReport(
        replications=replications,
        model_names=names,
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
    names_kind = any(command in (f.metadata.get("kinds") or ()) for f in fields(cls))
    for f in fields(cls):
        if _is_section(f.type):
            _add_flags(sp, command, f.type, f"{path}{f.name}.")
        elif f.metadata["flag"] and not (names_kind and command not in f.metadata["kinds"]):
            sp.add_argument(f.metadata["flag"], dest=path + f.name, **f.metadata["flag_args"])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, as any error does; 2 means the safeguard tripped
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bestarm",
        description="Adaptive selection of the best noisy candidate model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    replicate = ("repeat a campaign over consecutive seeds", None)
    for command, (help_text, _) in {**_MODES, "replicate": replicate}.items():
        sp = sub.add_parser(command, help=help_text)
        if command == "replicate":
            sp.add_argument("--mode", dest="mode.kind", choices=list(_MODES), help="algorithm to replicate")
            sp.add_argument("--replications", type=int, required=True, metavar="R")
            sp.add_argument("--true-best", metavar="NAME", help="model treated as the true optimum")
            sp.add_argument("--allow-exec", action="store_true", help="permit replicating a subprocess campaign")
        else:
            sp.set_defaults(**{"mode.kind": command})
        sp.add_argument("--config", metavar="PATH", help="campaign config JSON (flags override it)")
        _add_flags(sp, command)
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Merge the config file (if any), read by ``read_json``, with flags; flags
    win. A trace path that is the config file is refused, as it would replace it."""
    data = {} if args.config is None else _read("config", args.config, read_json)
    config = _from_dict(CampaignConfig, data, args=args)
    if args.config is not None and config.trace_path is not None and _same_file(config.trace_path, args.config):
        raise ConfigError("trace_path", f"{config.trace_path!r} is the --config file, "
                          "the run's input file")
    return config


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
            print(report.format(), flush=True)
            return 0
        _, code = run_campaign(config)
        return code
    except (EvaluatorFailure, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, EvaluatorFailure) and e.stderr:
            print(f"evaluator stderr:\n{e.stderr}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader has gone; keep the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
