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
    "fc/synthetic/3": "db5dbe4521c581f20c1f616d331113a4d41052bb96e9fea50a4e9d8abacd4b47",
    "fc/synthetic/11": "d86082eda2d7c3c73b2d505dc0d8b8400f49414695fcc2710d200ad1875cda53",
    "fc/replay/3": "81cc10ab32fff288fe3e611708e03cfbd55ac69749466102aff3c1224e6c300e",
    "fc/replay/11": "2cc10a15c949e3e1da4f22f2cd8b65b6fb099d8c9dd468488982b861d43376ef",
    "fc/subprocess/3": "9d9f85e9d112382d7ae1401f62b4e113fade09055c09d11a670c1b91e7c81a00",
    "fc/subprocess/11": "8fdfab9dbd61cc8fc8f99360190e41feb1fa25f9bca0ce6164d18613ce1b1577",
    "baseline-fc/synthetic/3": "78fed4226ec3ef6a83b13c3cdb7fcfecc0ca877e8d6566fe9703a03271ec65a5",
    "baseline-fc/synthetic/11": "6ceb3283e7ba74b815675c0311e6d60e32a2510cb7adcf46bf0ecc318f7a6142",
    "baseline-fc/replay/3": "5ceb869d514b03b3c02d6daca414988f39a2deaae2b5ed40cab2d5684475e4bf",
    "baseline-fc/replay/11": "67d1470bf23a1ba4c4f5df58d626d2958a2909010164c4de43b8f614a8091b52",
    "baseline-fc/subprocess/3": "7abe7b770eb2d0f8c1fe70d900f93285279734cf394d885c567b6ffdf017aee7",
    "baseline-fc/subprocess/11": "42610109013dab8d32e0a7b1be9e417cbb47f24857ce9e78228043fcfb2ce9b6",
    "fc-batch-sync/synthetic/3": "cc368b5a33f30978e9bb14617d78d2a8fece9d47d9c1afca4f49cebc99926eff",
    "fc-batch-sync/synthetic/11": "701431675f33ef6017775e9ad37f3345cda9491c6f217a432c62c951b4b10e3c",
    "fc-batch-sync/replay/3": "2caad0c9608daeb1188421ab71a8cf0d52609b4dd9357aadf92ec4ff9e51da0d",
    "fc-batch-sync/replay/11": "d2e2bd98405ab55fac43edc2a3648f45534e2296421918fe99bdb30720940524",
    "fc-batch-sync/subprocess/3": "ae7d579511980b77e46b9b56f35a870aa5ac62aca9c9c05e00d60655f8ab7e96",
    "fc-batch-sync/subprocess/11": "1e0889d2244a42f54dc302f4f2070ff0a750bffd87a49075a2bcf35e614ad41e",
    "fc-batch-async/synthetic/3": "011758d3020d8c3936361ba1e95365074a0b0ae1a3e6b4008aba2889d83431e7",
    "fc-batch-async/synthetic/11": "c2dbd1e6721792c4040ce83d92e64c32d9a31e0604972aa44c100c7d56db8acf",
    "fc-batch-async/replay/3": "6fb6bcce4f8bed567b93815c9819b61694b4e6317940ec174f9b33b1cd680a01",
    "fc-batch-async/replay/11": "fb3e44cdf68321d1a8f9da2836f5b8b1a515862ff25a782529d436388f4e0af7",
    "fc-batch-async/subprocess/3": "3c9c5598a8b2bb5eedaab6908f8555ddcbddc1e68a018ea6313d52177f9c37bc",
    "fc-batch-async/subprocess/11": "7a200c5e8655a54dead7423e2e4b15c9b2a3bb8499c564467b84d22ebfb8bef3",
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
