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
    "fc/synthetic/3": "5380d830dd5be541407947ef5fde32743918c7fc51a66a5dd83bb3c0f7fd4cd2",
    "fc/synthetic/11": "ce4a7d0f2b7d7a60db53a025c0251782a16dbfa4a7edb6811a2b48da28c4043a",
    "fc/replay/3": "ca75d0656428e78e22b41e0f942a625d315cd887260bb5cb5f7b9c734d35cb0b",
    "fc/replay/11": "3b429eadecb6da31677cf7ec948b6da076715825ebdecd430a3a7db7d0c81139",
    "fc/subprocess/3": "b574ef79d6050602b7bad77d166e01640e06d8b740e688140204158e3575b0f7",
    "fc/subprocess/11": "4fc8b64e4c9943a4e4ce22b764690d1aecf59213f5c3dc5dbf04cc9957e9e28d",
    "baseline-fc/synthetic/3": "596ac05255ef1ee87b1410a6ad2150e2129e178a25fbbb9657adbd780333e257",
    "baseline-fc/synthetic/11": "21bbb478fe35030976566542be32b6ed49d6c1193ee23396b2ed7a777498c3f0",
    "baseline-fc/replay/3": "8d14dd67822764e9a21dc8548f556a9e47ab07dd671d554737be71ee7cfbad98",
    "baseline-fc/replay/11": "6c0891d9eb55f9fe1b4a07f88c3a8ca008dacefca1e0d8fab7c344347451df18",
    "baseline-fc/subprocess/3": "1f981f6e8221eebfd0cf6569fb0cb565baf196cacf2323c9005263ff5a802c2c",
    "baseline-fc/subprocess/11": "1e164159f1998ef54f760e20fd871e32c8a26b373fd09d1012d861a7a4cd55e4",
    "fc-batch-sync/synthetic/3": "ec3d8835390a6ad79c886b0ebdecbf7ba3aae6e8bd0c5e5ae29d3f460e34507e",
    "fc-batch-sync/synthetic/11": "6699e267b063ff52a3660ae393a38af0165aa2292a95bece92570918929dc9ec",
    "fc-batch-sync/replay/3": "3a5646b631048510decf55ad53eff9faace5131608e96c18dd6e8e7dab8843c7",
    "fc-batch-sync/replay/11": "fe506d56c9843b9ea4c65ed3cff3c92f89e1e313783771a0fb71502d5c334242",
    "fc-batch-sync/subprocess/3": "ff7ac0b80b2cc862ba9de168ef4bfdfaf24e687c08ba84f5f786f688b4839399",
    "fc-batch-sync/subprocess/11": "8274eafc1945dd0d7b968a006f50d423c5275a7cba05179be2b0e3fdcd1b48ea",
    "fc-batch-async/synthetic/3": "441732eb45333c19ede8292a886bb9434167ee90c7ce1ebc081af1d69b8da29e",
    "fc-batch-async/synthetic/11": "c100124ff42d3de5d9a5d6dc840e9f8235dc68365bd321c038ac3babc3005ec4",
    "fc-batch-async/replay/3": "6253a12e357f215a2425545adea10288e787d22ef77e620d8f0b5d34b2304564",
    "fc-batch-async/replay/11": "dd36bb8d9225bb2b775eb761fdc622bb827af9d5ff79f2533386935a7a0c4fe4",
    "fc-batch-async/subprocess/3": "a702579fa15759ab01f27bbc715a6282e9ea5ecc2d75d6aa19f8b5361284f959",
    "fc-batch-async/subprocess/11": "35c48a8afb38bb412237a4d121dabd492e33f8f46c6bcd7e679c59269441f957",
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
