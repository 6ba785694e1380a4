"""Golden traces: pinned SHA-256 digests of campaign traces.

Every mode runs against every evaluator back-end at two seeds, and the event
lines of each trace must hash to the digest recorded here. A child that fails
the first attempt of every request must give the subprocess digest, since
every mode resubmits a failed evaluation once with the same seeds. The header
line is left out of the digest because it embeds the arm file, the CSV file
and the child command with absolute paths, which change with the checkout.
The campaign's in-memory trace must equal the file's parsed event lines.

A change that alters any digest changes campaign behaviour; it must say why
in its commit message before the digest here is updated.
"""

import hashlib
import json
import os
import shlex
import sys

import pytest

from bestarm.cli import CampaignConfig, run_campaign

ECHO_CHILD = os.path.join(os.path.dirname(__file__), "echo_child.py")

MODELS = ["a", "b", "c", "d"]
MEANS = [0.60, 0.66, 0.70, 0.72]
REPLAY_SCORES = {
    "a": [0.58, 0.63, 0.61, 0.55, 0.60],
    "b": [0.69, 0.64, 0.66, 0.62],
    "c": [0.71, 0.66, 0.73, 0.70, 0.69, 0.72],
    "d": [0.74, 0.70, 0.72],
}

MODES = {
    "fb": {"kind": "fb", "budget": 40},
    "baseline-fb": {"kind": "baseline-fb", "budget": 40},
    "fc": {"kind": "fc", "delta": 0.1, "max_evals": 60},
    "baseline-fc": {"kind": "baseline-fc", "delta": 0.1, "max_evals": 60},
    "fc-batch-sync": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": True},
    "fc-batch-async": {"kind": "fc-batch", "delta": 0.1, "max_evals": 60, "batch_size": 3, "sync": False},
}
EVALUATORS = ("synthetic", "replay", "subprocess")
SEEDS = (3, 11)

DIGESTS = {
    "fb/synthetic/3": "134f4d92a639c133143ec963ee776a686ee82889267d918aa406d87d6cbd6083",
    "fb/synthetic/11": "d1c0d26f2cd0e88f91088b2d8761905026be7f46e5d136813baa2d90bdb02393",
    "fb/replay/3": "255ee605302875fd72c2fcda5773da09caebef43b85a8e0416f627a81028fae5",
    "fb/replay/11": "a2ba650154fbe56aaffbc2417f113e8c1147c373968d4e455fa13037dde7b481",
    "fb/subprocess/3": "b3ff983cf3418fe7b1020e5a3b41bf339990c890c4c60c1644d106c1cf423743",
    "fb/subprocess/11": "b3ff983cf3418fe7b1020e5a3b41bf339990c890c4c60c1644d106c1cf423743",
    "baseline-fb/synthetic/3": "5c41c82a62fb94fbc8410131efbf5c2ecda31729d14e0898105420fb469cca75",
    "baseline-fb/synthetic/11": "a34e985d37be6316bc11acfad7d84607b39b3ca48ad1d3df19f000251ba7941b",
    "baseline-fb/replay/3": "cfd5752e48e097a858e5f0e8f15b7f40639b5b636cb4a718a1c8f85e01dc6a4b",
    "baseline-fb/replay/11": "f2f8eac502e003a2d2167449b09c7d0334a69d2fc3d3ffd4be8b65d98e282bad",
    "baseline-fb/subprocess/3": "3b1157dd92b28240c2bbf7f4c5b4107b9baeb3ee1b446f80dab21d9ca10814f0",
    "baseline-fb/subprocess/11": "3b1157dd92b28240c2bbf7f4c5b4107b9baeb3ee1b446f80dab21d9ca10814f0",
    "fc/synthetic/3": "d315877fac2fcc329d371e816d1d175ba1053359ff0a0e224ef42fa403443f01",
    "fc/synthetic/11": "0538392d7811a2ec42592ad63124eb30098668d745f0244acddf2a78e33e43bc",
    "fc/replay/3": "dcc910a6b6d6f3f7f8318be63e09ef32794b4886f73febb84fbe869205090329",
    "fc/replay/11": "126daaa355288fe58361913d287be1dd8f6ee5b06a7d6ee38e753f8c902d5e1a",
    "fc/subprocess/3": "bd2534b83388032ace81cef424a97afbc041b93dfee4920aa5df44a27cdc44ee",
    "fc/subprocess/11": "6595e646a7665f931e8a5df52a3565508c2109883195a172476e6ff7598371a3",
    "baseline-fc/synthetic/3": "6af8d228d465ac67daef2042b9aa5b2ffad3a3418cc2d4adc798bc207177a11d",
    "baseline-fc/synthetic/11": "4a7894c464623b09a9bc66871426e9416bc30b19ffbb03dc3bdbb44382772fc3",
    "baseline-fc/replay/3": "747ddbc56fc9868a95f5abffa28e04c44c0b2ab4ecf6602c0192b191cedc0541",
    "baseline-fc/replay/11": "5dbe5eec57206c269fde185f89a682126453eec3aca51e9e333cb467d4d08052",
    "baseline-fc/subprocess/3": "928a937320241ddea38072dae510866f1bca7fbf7fda326dac2292362184097c",
    "baseline-fc/subprocess/11": "29795273229a6ad91d215d5d2cb6741cda5bf917c6b9e8c9e4dc3b40bc16d318",
    "fc-batch-sync/synthetic/3": "55244aeb53f5538e99d48ef05e67c29aa6f6ebf5302fbe1a8a1eaa9b7b578dc1",
    "fc-batch-sync/synthetic/11": "d76fdb2d02539b807b9ce49a1d2869c4f17ff853b9b2445284ee811fe32849fc",
    "fc-batch-sync/replay/3": "1b29ecf0567783a6bd6c53a6c53ac0ecb0fd6144587763ed20e4b2789c8cebf4",
    "fc-batch-sync/replay/11": "a71d243ddbe39a6656168520bc954da79f00f8e87509834f3cc0a9f8c3615b6c",
    "fc-batch-sync/subprocess/3": "8f9bc3e4c4503001d5bc3abccf4af918a1572cb98f487f7577f6efcd2715b25f",
    "fc-batch-sync/subprocess/11": "306701824d273cc13f954f42124a62c32130efa31d9b2e1dd062116bd23f7d00",
    "fc-batch-async/synthetic/3": "acc8d7ab23caa4afe1bb5230c1c3ae84ed10ee89953f50ffc9c91fecc4a43fad",
    "fc-batch-async/synthetic/11": "7de923cc3a689687e125f826482fa06a589590385f148d83bee00fdfae5dcf0b",
    "fc-batch-async/replay/3": "590e52496d6ad24679cdf16d749d9859820c9729cb0292d00545cb524e383c1c",
    "fc-batch-async/replay/11": "350e91730f9be30677a0c08b387a8f602aa240d265c771ba11d2b7c0be3df086",
    "fc-batch-async/subprocess/3": "ef139b8ef3a4ce629ae9b0ef5267003754cc1ac856c02bea305e4118640f84ca",
    "fc-batch-async/subprocess/11": "c85a088d3b7b53245adc08c47c4a96986b8721a852e5e78590992e7d59d6da09",
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    arms = root / "arms.json"
    arms.write_text(
        json.dumps(
            [{"name": m, "family": "gaussian", "mean": mu, "sd": 0.03} for m, mu in zip(MODELS, MEANS)]
        )
    )
    scores = root / "scores.csv"
    scores.write_text(
        "model,score\n"
        + "".join(f"{m},{s}\n" for m in MODELS for s in REPLAY_SCORES[m])
    )
    return {
        "synthetic": {"kind": "synthetic", "arms_file": str(arms)},
        "replay": {"kind": "replay", "csv_file": str(scores)},
        "subprocess": {"kind": "subprocess", "command": shlex.join([sys.executable, ECHO_CHILD])},
        "subprocess-flaky": {"kind": "subprocess",
                             "command": shlex.join([sys.executable, ECHO_CHILD, "--flaky"])},
    }


def event_digest(path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(lines[1:])).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("evaluator", [*EVALUATORS, "subprocess-flaky"])
@pytest.mark.parametrize("mode", list(MODES))
def test_trace_matches_golden_digest(mode, evaluator, seed, sources, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    config = CampaignConfig.from_dict(
        {
            "mode": MODES[mode],
            "evaluator": sources[evaluator],
            "models": MODELS,
            "campaign_seed": seed,
            "mc_samples": 2000,
            "trace_path": str(trace),
        }
    )
    result, _ = run_campaign(config)
    capsys.readouterr()
    assert event_digest(trace) == DIGESTS[f"{mode}/{evaluator.removesuffix('-flaky')}/{seed}"]
    # The in-memory trace holds the same events as the file's lines.
    lines = trace.read_bytes().splitlines()
    assert list(result.trace) == [json.loads(line) for line in lines[1:]]
