"""Golden traces: pinned SHA-256 digests of campaign traces.

Every mode runs against every evaluator back-end at two seeds, and the event
lines of each trace must hash to the digest recorded here. The header line is
left out of the digest because it embeds the arm file, the CSV file and the
child command with absolute paths, which change with the checkout.

A change that alters any digest changes campaign behaviour; it must say why
in its commit message before the digest here is updated.
"""

import hashlib
import json
import os
import shlex
import sys

import pytest

from bestarm import CampaignConfig, run_campaign

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
    "fb/synthetic/3": "75d51c629ffa05a3a6c85a7a1ad52af1b154cc43ef6567c83ee19ba7282f1aec",
    "fb/synthetic/11": "852e8b61912877e7b7d55fd8dbd2787f235ea47fcec916661cc79e54f3fb33b9",
    "fb/replay/3": "83c888df65ed565cccfb860d7ddaf51a24b93a2b3b16eea75c9eb7ed132d3175",
    "fb/replay/11": "a7ba632a9c9f633675366a1af419214ec63d6b15ffdbd9bd0bc3db7de0351c66",
    "fb/subprocess/3": "b3ff983cf3418fe7b1020e5a3b41bf339990c890c4c60c1644d106c1cf423743",
    "fb/subprocess/11": "b3ff983cf3418fe7b1020e5a3b41bf339990c890c4c60c1644d106c1cf423743",
    "baseline-fb/synthetic/3": "d0d040335f9155ad034e50e80628886357b6596c8831e1eb38fa1bbd15ea5f16",
    "baseline-fb/synthetic/11": "671fb8ce4fb63e80ca3e68f2189805897ce63f94db1906d7a8d9a0f10f40cec1",
    "baseline-fb/replay/3": "7417e6ce653c368d0a4743b086de46e94ee280930e149bcde3f5840bc2015f48",
    "baseline-fb/replay/11": "6f6964c4f3a1b85b00ca3cbc15dd83864a8e9c897c5453543e4e4125468a6e45",
    "baseline-fb/subprocess/3": "3b1157dd92b28240c2bbf7f4c5b4107b9baeb3ee1b446f80dab21d9ca10814f0",
    "baseline-fb/subprocess/11": "3b1157dd92b28240c2bbf7f4c5b4107b9baeb3ee1b446f80dab21d9ca10814f0",
    "fc/synthetic/3": "845a58c40442a792d89af0016ec0ce7b18a67c2d90a7100558dbaf999e6f8562",
    "fc/synthetic/11": "6bfe9dffcf9586d5dea3a775be80e28525637a7d088c23c2a8a6066e3e706f9d",
    "fc/replay/3": "5b20fe1bf5f07486dd068cdd1103860f65fc6ced22d9751e1de4d818e00b9b50",
    "fc/replay/11": "b4bdea83261a8ab7916b4dabfc0aad8e948161369892367b122df4ec2280808e",
    "fc/subprocess/3": "bd2534b83388032ace81cef424a97afbc041b93dfee4920aa5df44a27cdc44ee",
    "fc/subprocess/11": "6595e646a7665f931e8a5df52a3565508c2109883195a172476e6ff7598371a3",
    "baseline-fc/synthetic/3": "ee3d855228bd1faecc9adbdfb514e744290f29125ad332ddcd8de16f161c9209",
    "baseline-fc/synthetic/11": "f1100c4ed9ad8084b569b4af90e2a6ec265f449fda2693435fe4033f9bcd5fbd",
    "baseline-fc/replay/3": "a5f5345159c41568cdb23f64d07a607fa6c522d8da22002a706b4c032685db80",
    "baseline-fc/replay/11": "07807c5b005302352e34aec53c2ba92d030b80d5878ebf142085d5c6f87d73db",
    "baseline-fc/subprocess/3": "928a937320241ddea38072dae510866f1bca7fbf7fda326dac2292362184097c",
    "baseline-fc/subprocess/11": "29795273229a6ad91d215d5d2cb6741cda5bf917c6b9e8c9e4dc3b40bc16d318",
    "fc-batch-sync/synthetic/3": "25bb1946bbc903cedf8b9eabc772bb6bd87bd433ed0e9e7f3bc3f658adc26864",
    "fc-batch-sync/synthetic/11": "806c80ddc80c49e06546548c2f6d80e42843da9bef00a5b726059604f7eaacf4",
    "fc-batch-sync/replay/3": "96e0823fe985069728b0826dc57a34b8a1ec810d25f0eacfadc4de6e535120e4",
    "fc-batch-sync/replay/11": "c570668c48f606b11799afa958a2cbd17a022a299a97fccef31e7e2cd577a47f",
    "fc-batch-sync/subprocess/3": "8f9bc3e4c4503001d5bc3abccf4af918a1572cb98f487f7577f6efcd2715b25f",
    "fc-batch-sync/subprocess/11": "306701824d273cc13f954f42124a62c32130efa31d9b2e1dd062116bd23f7d00",
    "fc-batch-async/synthetic/3": "f608b7019f198cc536de668bb1a5142476e4e8504998f0b5650c49cab148a1b6",
    "fc-batch-async/synthetic/11": "d9e92dc48d7c420c58b49941d136b7977ee99fc6888735fba756ea8f107b274d",
    "fc-batch-async/replay/3": "9ad2dfb9a71f18cea54fee8c04c55644492a330b1cb7cf4bdf206d4d7b7db6f1",
    "fc-batch-async/replay/11": "92d8ac178eccc128c7cafd2d407d4a4129017579b12cb9d8ec7d76c9c235a37d",
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
    }


def event_digest(path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(lines[1:])).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("evaluator", EVALUATORS)
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
    run_campaign(config)
    capsys.readouterr()
    assert event_digest(trace) == DIGESTS[f"{mode}/{evaluator}/{seed}"]
