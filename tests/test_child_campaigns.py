"""Campaigns against the scripted child ``echo_child.py``, on the golden set-up.

The golden digests use a child that answers in request order and scores a
request by its id alone, so they can see neither the fold order nor the
seeds a request carries. Here a reordering child must leave every event line
unchanged, and a logging child must receive each request with the model the
trace evaluates and the seeds the campaign draws for it.
"""

import json
import shlex
import sys

import pytest

from bestarm import StreamPurpose, rng_stream
from bestarm.cli import CampaignConfig, run_campaign
from test_golden_traces import ECHO_CHILD, MODELS, MODES, SEEDS


def run_against_child(mode, seed, child_flags, trace):
    """Run the golden campaign ``mode`` at ``seed`` against the echo child
    with ``child_flags``; return the trace's events as JSON lines."""
    command = shlex.join([sys.executable, ECHO_CHILD, *child_flags])
    config = CampaignConfig.from_dict({
        "mode": MODES[mode],
        "evaluator": {"kind": "subprocess", "command": command},
        "models": MODELS,
        "campaign_seed": seed,
        "mc_samples": 2000,
        "trace_path": str(trace),
    })
    run_campaign(config)
    return trace.read_bytes().splitlines()[1:]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", [m for m in MODES if m != "fc-batch-async"])
def test_a_reordering_child_leaves_every_event_line_unchanged(mode, seed, tmp_path, capsys):
    # Asynchronous BTS draws each model from the belief its last fold left,
    # so its trace follows the completion order by design.
    in_order, reordered = (
        run_against_child(mode, seed, ["--max-in-flight", "4", *flags], tmp_path / f"{i}.jsonl")
        for i, flags in enumerate([[], ["--reorder"]]))
    capsys.readouterr()
    assert in_order == reordered


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["fc", "fc-batch-sync"])
def test_each_request_reaches_the_child_with_its_model_and_seeds(mode, seed, tmp_path, capsys):
    log = tmp_path / "requests.jsonl"
    events = [json.loads(line)
              for line in run_against_child(mode, seed, ["--log", str(log)], tmp_path / "t.jsonl")]
    capsys.readouterr()
    evaluated = {e["request"]: e["model"] for e in events if e["kind"] == "evaluated"}
    requests = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert sorted(evaluated) == list(range(len(requests)))
    # Request k carries the k-th raw output of each seed stream, as it does in-process.
    splits, model_seeds = (rng_stream(seed, purpose).bit_generator.random_raw(len(requests)).tolist()
                           for purpose in (StreamPurpose.SPLIT_SEED, StreamPurpose.MODEL_SEED))
    assert requests == [{"id": k, "model": evaluated[k], "split_seed": splits[k],
                         "model_seed": model_seeds[k]} for k in range(len(requests))]
