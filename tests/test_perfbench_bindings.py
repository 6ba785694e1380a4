"""perfbench's layer spans still bind to bestarm.

``perfbench/spans.py`` wraps bestarm's functions by name. A campaign run
with its spans installed must write the same trace as a plain run, and
record a span at every layer the per-layer metrics read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from bestarm import CampaignConfig, algorithms, cli, evaluators

TESTS = Path(__file__).resolve().parent
PERFBENCH = str(TESTS.parent / "perfbench")
ECHO_CHILD = TESTS / "echo_child.py"
ARMS = [{"name": f"m{i}", "family": "gaussian", "mean": mean, "sd": 0.01}
        for i, mean in enumerate((0.65, 0.69, 0.71))]


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)


def run_both(spans, config: dict, tmp_path, capsys) -> set:
    """Run the campaign plain and traced; return the traced run's span names,
    each alone and paired with its parent's."""
    traces = [tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"]
    cli.run_campaign(CampaignConfig.from_dict({**config, "trace_path": str(traces[0])}))
    tracer = spans.Tracer()
    with tracer.installed(cli, algorithms, evaluators):
        cli.run_campaign(CampaignConfig.from_dict({**config, "trace_path": str(traces[1])}))
    capsys.readouterr()
    assert traces[0].read_bytes() == traces[1].read_bytes()
    return ({s[spans.NAME] for s in tracer.spans}
            | {(s[spans.NAME], tracer.spans[s[spans.PARENT]][spans.NAME])
               for s in tracer.spans if s[spans.PARENT] >= 0})


def test_synthetic_campaign_records_every_in_process_layer(spans, tmp_path, capsys):
    arms = tmp_path / "arms.json"
    arms.write_text(json.dumps(ARMS))
    names = run_both(spans, {"mode": {"kind": "fc", "delta": 0.2},
                             "evaluator": {"kind": "synthetic", "arms_file": str(arms)},
                             "campaign_seed": 11, "mc_samples": 500}, tmp_path, capsys)
    assert {"cli.run_campaign", "cli.write_trace", "algorithms.ttts", "posterior.estimate_pi",
            "core.rng_stream", "evaluators.submit", "evaluators.collect"} <= names
    # The synthetic draws are bound in evaluators, the belief's in algorithms.
    assert {("core.rng_stream", "evaluators.submit"),
            ("posterior.estimate_pi", "algorithms.ttts")} <= names


def test_subprocess_campaign_records_the_spawn_and_round_trips(spans, tmp_path, capsys):
    names = run_both(spans, {"mode": {"kind": "fc-batch", "delta": 0.2, "batch_size": 4,
                                      "max_evals": 24},
                             "evaluator": {"kind": "subprocess",
                                           "command": f"{sys.executable} {ECHO_CHILD}"},
                             "models": ["a", "b", "c"], "mc_samples": 500}, tmp_path, capsys)
    assert {"cli.run_campaign", "cli.write_trace", "algorithms.bts", "posterior.estimate_pi",
            "core.rng_stream", "evaluators.spawn", "evaluators.submit",
            "evaluators.collect"} <= names
