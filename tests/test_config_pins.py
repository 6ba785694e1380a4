"""Pinned serialisations of the campaign config.

The golden digests hash only a trace's event lines, so they cannot see the
header line that records the configuration. These tests pin, byte for byte:

* the trace header of every (mode, evaluator) config of the golden traces,
  with the temporary directory and the child command replaced by
  placeholders;
* the ``to_dict`` JSON of one ``config_from_args`` result per subcommand;
* the set of flags each subcommand accepts.
"""

import json
import os
import shlex
import sys

import pytest

from bestarm.cli import CampaignConfig, build_parser, config_from_args, run_campaign
from test_golden_traces import ECHO_CHILD, EVALUATORS, MODELS, MODES, sources  # noqa: F401

HEADERS = {
    "fb/synthetic": '{"config": {"mode": {"kind": "fb", "budget": 40}, "evaluator": {"kind": "synthetic", "arms_file": "<tmp>/arms.json"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fb/replay": '{"config": {"mode": {"kind": "fb", "budget": 40}, "evaluator": {"kind": "replay", "csv_file": "<tmp>/scores.csv", "exhaustion": "resample"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fb/subprocess": '{"config": {"mode": {"kind": "fb", "budget": 40}, "evaluator": {"kind": "subprocess", "command": "<command>"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "baseline-fb/synthetic": '{"config": {"mode": {"kind": "baseline-fb", "budget": 40}, "evaluator": {"kind": "synthetic", "arms_file": "<tmp>/arms.json"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "baseline-fb/replay": '{"config": {"mode": {"kind": "baseline-fb", "budget": 40}, "evaluator": {"kind": "replay", "csv_file": "<tmp>/scores.csv", "exhaustion": "resample"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "baseline-fb/subprocess": '{"config": {"mode": {"kind": "baseline-fb", "budget": 40}, "evaluator": {"kind": "subprocess", "command": "<command>"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc/synthetic": '{"config": {"mode": {"kind": "fc", "delta": 0.1, "max_evals": 60}, "evaluator": {"kind": "synthetic", "arms_file": "<tmp>/arms.json"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc/replay": '{"config": {"mode": {"kind": "fc", "delta": 0.1, "max_evals": 60}, "evaluator": {"kind": "replay", "csv_file": "<tmp>/scores.csv", "exhaustion": "resample"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc/subprocess": '{"config": {"mode": {"kind": "fc", "delta": 0.1, "max_evals": 60}, "evaluator": {"kind": "subprocess", "command": "<command>"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "baseline-fc/synthetic": '{"config": {"mode": {"kind": "baseline-fc", "delta": 0.1, "max_evals": 60}, "evaluator": {"kind": "synthetic", "arms_file": "<tmp>/arms.json"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "baseline-fc/replay": '{"config": {"mode": {"kind": "baseline-fc", "delta": 0.1, "max_evals": 60}, "evaluator": {"kind": "replay", "csv_file": "<tmp>/scores.csv", "exhaustion": "resample"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "baseline-fc/subprocess": '{"config": {"mode": {"kind": "baseline-fc", "delta": 0.1, "max_evals": 60}, "evaluator": {"kind": "subprocess", "command": "<command>"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc-batch-sync/synthetic": '{"config": {"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": true}, "evaluator": {"kind": "synthetic", "arms_file": "<tmp>/arms.json"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc-batch-sync/replay": '{"config": {"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": true}, "evaluator": {"kind": "replay", "csv_file": "<tmp>/scores.csv", "exhaustion": "resample"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc-batch-sync/subprocess": '{"config": {"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": true}, "evaluator": {"kind": "subprocess", "command": "<command>"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc-batch-async/synthetic": '{"config": {"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": false}, "evaluator": {"kind": "synthetic", "arms_file": "<tmp>/arms.json"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc-batch-async/replay": '{"config": {"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": false}, "evaluator": {"kind": "replay", "csv_file": "<tmp>/scores.csv", "exhaustion": "resample"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
    "fc-batch-async/subprocess": '{"config": {"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": false}, "evaluator": {"kind": "subprocess", "command": "<command>"}, "models": ["a", "b", "c", "d"], "campaign_seed": 3, "mc_samples": 2000, "transform": {"kind": "identity"}}}',
}

# argv, and the config file's contents when one is passed with --config.
ARGS = {
    "fb": (["fb", "--budget", "30", "--synthetic", "arms.json", "--seed", "5", "--mc-samples", "2000",
            "--transform", "logit", "--models", "a,,b", "--trace", "t.jsonl"], None),
    "fc": (["fc", "--delta", "0.05", "--max-evals", "500", "--exec", "python3 child.py",
            "--models", "a,b"], None),
    "fc-config": (["fc", "--replay", "new.csv", "--max-evals", "99"],
                  {"mode": {"kind": "fb", "budget": 5, "delta": 0.3},
                   "evaluator": {"kind": "replay", "csv_file": "old.csv", "exhaustion": "cycle"},
                   "campaign_seed": 4, "transform": {"kind": "logit", "epsilon": 0.01}}),
    "fc-batch": (["fc-batch", "--delta", "0.1", "--batch-size", "4", "--async", "--replay", "scores.csv",
                  "--seed", "9"], None),
    "baseline-fb": (["baseline-fb", "--budget", "12", "--replay", "scores.csv", "--transform", "identity"], None),
    "baseline-fc": (["baseline-fc", "--delta", "0.2", "--synthetic", "arms.json", "--mc-samples", "1000"], None),
    "replicate": (["replicate", "--mode", "fc-batch", "--replications", "3", "--delta", "0.1",
                   "--batch-size", "2", "--synthetic", "arms.json", "--true-best", "a"], None),
}

CONFIGS = {
    "fb": '{"mode": {"kind": "fb", "budget": 30}, "evaluator": {"kind": "synthetic", "arms_file": "arms.json"}, "models": ["a", "b"], "campaign_seed": 5, "mc_samples": 2000, "transform": {"kind": "logit", "epsilon": 1e-06}, "trace_path": "t.jsonl"}',
    "fc": '{"mode": {"kind": "fc", "delta": 0.05, "max_evals": 500}, "evaluator": {"kind": "subprocess", "command": "python3 child.py"}, "models": ["a", "b"], "campaign_seed": 0, "mc_samples": 100000, "transform": {"kind": "identity"}, "trace_path": null}',
    "fc-config": '{"mode": {"kind": "fc", "delta": 0.3, "max_evals": 99}, "evaluator": {"kind": "replay", "csv_file": "new.csv", "exhaustion": "cycle"}, "models": null, "campaign_seed": 4, "mc_samples": 100000, "transform": {"kind": "logit", "epsilon": 0.01}, "trace_path": null}',
    "fc-batch": '{"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 10000, "batch_size": 4, "sync": false}, "evaluator": {"kind": "replay", "csv_file": "scores.csv", "exhaustion": "resample"}, "models": null, "campaign_seed": 9, "mc_samples": 100000, "transform": {"kind": "identity"}, "trace_path": null}',
    "baseline-fb": '{"mode": {"kind": "baseline-fb", "budget": 12}, "evaluator": {"kind": "replay", "csv_file": "scores.csv", "exhaustion": "resample"}, "models": null, "campaign_seed": 0, "mc_samples": 100000, "transform": {"kind": "identity"}, "trace_path": null}',
    "baseline-fc": '{"mode": {"kind": "baseline-fc", "delta": 0.2, "max_evals": 10000}, "evaluator": {"kind": "synthetic", "arms_file": "arms.json"}, "models": null, "campaign_seed": 0, "mc_samples": 1000, "transform": {"kind": "identity"}, "trace_path": null}',
    "replicate": '{"mode": {"kind": "fc-batch", "delta": 0.1, "max_evals": 10000, "batch_size": 2, "sync": true}, "evaluator": {"kind": "synthetic", "arms_file": "arms.json"}, "models": null, "campaign_seed": 0, "mc_samples": 100000, "transform": {"kind": "identity"}, "trace_path": null}',
}

_COMMON = ["--config", "--exec", "--help", "--mc-samples", "--models", "--replay", "--seed",
           "--synthetic", "--timeout", "--trace", "--transform", "-h"]
FLAGS = {
    "fb": ["--budget"] + _COMMON,
    "fc": ["--delta", "--max-evals"] + _COMMON,
    "fc-batch": ["--async", "--batch-size", "--delta", "--max-evals"] + _COMMON,
    "baseline-fb": ["--budget"] + _COMMON,
    "baseline-fc": ["--delta", "--max-evals"] + _COMMON,
    "replicate": ["--allow-exec", "--async", "--batch-size", "--budget", "--delta", "--max-evals",
                  "--mode", "--replications", "--true-best"] + _COMMON,
}


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("mode", list(MODES))
def test_trace_header_is_pinned(mode, evaluator, sources, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    config = CampaignConfig.from_dict(
        {
            "mode": MODES[mode],
            "evaluator": sources[evaluator],
            "models": MODELS,
            "campaign_seed": 3,
            "mc_samples": 2000,
            "trace_path": str(trace),
        }
    )
    run_campaign(config)
    capsys.readouterr()
    header = trace.read_text(encoding="utf-8").splitlines()[0]
    header = header.replace(shlex.join([sys.executable, ECHO_CHILD]), "<command>")
    header = header.replace(os.path.dirname(sources["synthetic"]["arms_file"]), "<tmp>")
    assert header == HEADERS[f"{mode}/{evaluator}"]


@pytest.mark.parametrize("case", list(ARGS))
def test_config_from_args_is_pinned(case, tmp_path):
    argv, data = ARGS[case]
    if data is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        argv = argv + ["--config", str(path)]
    config = config_from_args(build_parser().parse_args(argv))
    assert json.dumps(config.to_dict()) == CONFIGS[case]


def test_each_subcommand_accepts_the_pinned_flags():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert list(subcommands) == list(FLAGS)
    for name, sp in subcommands.items():
        assert sorted(o for a in sp._actions for o in a.option_strings) == sorted(FLAGS[name]), name
