import copy
import io
import json
import os
import signal
import subprocess as sp
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestarm import ConfigError, cli
from bestarm.cli import (
    CampaignConfig,
    ReplicationReport,
    build_parser,
    config_from_args,
    main,
    run_campaign,
    run_replications,
)
from bestarm.evaluators import SyntheticEvaluator

ECHO_CHILD = os.path.join(os.path.dirname(__file__), "echo_child.py")

FIG_ARMS = [
    {"name": "m0", "family": "gaussian", "mean": 0.65, "sd": 0.01},
    {"name": "m1", "family": "gaussian", "mean": 0.69, "sd": 0.01},
    {"name": "m2", "family": "gaussian", "mean": 0.69, "sd": 0.01},
    {"name": "m3", "family": "gaussian", "mean": 0.70, "sd": 0.01},
    {"name": "m4", "family": "gaussian", "mean": 0.71, "sd": 0.01},
]


@pytest.fixture
def arms_file(tmp_path):
    path = tmp_path / "arms.json"
    path.write_text(json.dumps(FIG_ARMS))
    return str(path)


@pytest.fixture
def pair_arms_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            [
                {"name": "lo", "family": "gaussian", "mean": 0.5, "sd": 0.01},
                {"name": "hi", "family": "gaussian", "mean": 0.6, "sd": 0.01},
            ]
        )
    )
    return str(path)


def fc_config(arms_file, **overrides):
    data = {
        "mode": {"kind": "fc", "delta": 0.2, "max_evals": 10_000},
        "evaluator": {"kind": "synthetic", "arms_file": arms_file},
        "campaign_seed": 7,
        "mc_samples": 4000,
    }
    data.update(overrides)
    return CampaignConfig.from_dict(data)


class TestConfig:
    def test_round_trip_identity(self, arms_file):
        config = fc_config(arms_file, trace_path="t.jsonl", transform="logit")
        reparsed = CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert reparsed == config

    def test_round_trip_produces_bit_identical_trace(self, arms_file, tmp_path, capsys):
        config = fc_config(arms_file, trace_path=str(tmp_path / "a.jsonl"))
        reparsed = CampaignConfig.from_dict(config.to_dict())
        reparsed.trace_path = str(tmp_path / "b.jsonl")
        run_campaign(config)
        run_campaign(reparsed)
        capsys.readouterr()
        a = (tmp_path / "a.jsonl").read_bytes()
        b = (tmp_path / "b.jsonl").read_bytes()
        assert a == b

    def test_flag_overrides_config_file(self, arms_file, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "mode": {"kind": "fc", "delta": 0.05},
                    "evaluator": {"kind": "synthetic", "arms_file": arms_file},
                    "campaign_seed": 1,
                }
            )
        )
        args = build_parser().parse_args(
            ["fc", "--config", str(config_path), "--delta", "0.2", "--seed", "9"]
        )
        config = config_from_args(args)
        assert config.mode.delta == 0.2
        assert config.campaign_seed == 9
        assert config.evaluator.arms_file == arms_file

    def test_models_flag_parsing(self, arms_file):
        args = build_parser().parse_args(
            ["fc", "--delta", "0.1", "--synthetic", arms_file, "--models", "m4,m3"]
        )
        config = config_from_args(args)
        assert config.models == ["m4", "m3"]

    def test_validation_names_offending_field(self, arms_file, capsys, monkeypatch):
        # The config checks types only; the library refuses the range.
        submitted = []
        monkeypatch.setattr(SyntheticEvaluator, "submit", lambda self, req: submitted.append(req))
        assert main(["fc", "--delta", "1.7", "--synthetic", arms_file]) == 1
        assert "error: mode.delta: must be in (0, 1), got 1.7" in capsys.readouterr().err
        assert submitted == []
        with pytest.raises(ConfigError, match="evaluator.csv_file"):
            CampaignConfig.from_dict(
                {"mode": {"kind": "fc", "delta": 0.1}, "evaluator": {"kind": "replay"}}
            )

    def test_conflicting_evaluator_flags_rejected(self, arms_file):
        args = build_parser().parse_args(
            ["fc", "--delta", "0.1", "--synthetic", arms_file, "--replay", "scores.csv"]
        )
        with pytest.raises(ConfigError, match="evaluator"):
            config_from_args(args)


POSITIVE = st.integers(1, 2**40)
DELTA = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
NAMES = st.text(min_size=1, max_size=12)
VALID_CONFIGS = st.fixed_dictionaries(
    {
        "mode": st.one_of(
            st.fixed_dictionaries({"kind": st.sampled_from(["fb", "baseline-fb"]), "budget": POSITIVE}),
            st.fixed_dictionaries({"kind": st.sampled_from(["fc", "baseline-fc"]), "delta": DELTA},
                                  optional={"max_evals": POSITIVE}),
            st.fixed_dictionaries({"kind": st.just("fc-batch"), "delta": DELTA, "batch_size": POSITIVE},
                                  optional={"max_evals": POSITIVE, "sync": st.booleans()}),
        ),
        "evaluator": st.one_of(
            st.fixed_dictionaries({"kind": st.just("synthetic"), "arms_file": NAMES}),
            st.fixed_dictionaries({"kind": st.just("subprocess"), "command": NAMES}),
            st.fixed_dictionaries({"kind": st.just("replay"), "csv_file": NAMES},
                                  optional={"exhaustion": st.sampled_from(["resample", "cycle", "error"])}),
        ),
    },
    optional={
        "models": st.one_of(st.none(), st.lists(NAMES, min_size=1, max_size=5)),
        "campaign_seed": st.integers(0, 2**64 - 1),
        "mc_samples": POSITIVE,
        "transform": st.one_of(
            st.sampled_from(["identity", "logit"]),
            st.fixed_dictionaries({"kind": st.just("logit"),
                                   "epsilon": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)}),
            st.fixed_dictionaries({"kind": st.just("identity"), "epsilon": st.floats(0.0, 1.0)}),
        ),
        "trace_path": st.one_of(st.none(), NAMES),
    },
)


class TestConfigSchema:
    @settings(max_examples=300, deadline=None)
    @given(VALID_CONFIGS)
    def test_to_dict_round_trips(self, data):
        config = CampaignConfig.from_dict(data)
        assert CampaignConfig.from_dict(config.to_dict()) == config
        assert CampaignConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    # (subcommand, evaluator kind, dotted path, value put there): each value has
    # the wrong type for its leaf, or its key is unknown.
    @pytest.mark.parametrize(
        "command, evaluator, path, value",
        [
            ("replicate", "synthetic", "mode.kind", 5),
            ("fb", "synthetic", "mode.budget", "10"),
            ("fb", "synthetic", "mode.budget", 20.5),
            ("fb", "synthetic", "mode.budget", True),
            ("fc", "synthetic", "mode.delta", "0.1"),
            ("fc", "synthetic", "mode.delta", True),
            ("fc", "synthetic", "mode.max_evals", "100"),
            ("fc", "synthetic", "mode.max_evals", 100.0),
            ("fc", "synthetic", "mode.max_evals", True),
            ("fc-batch", "synthetic", "mode.batch_size", "2"),
            ("fc-batch", "synthetic", "mode.batch_size", 2.0),
            ("fc-batch", "synthetic", "mode.batch_size", False),
            ("fc-batch", "synthetic", "mode.sync", "false"),
            ("fc-batch", "synthetic", "mode.sync", 0),
            ("fc", "synthetic", "evaluator.kind", 1),
            ("fc", "synthetic", "evaluator.arms_file", 5),
            ("fc", "subprocess", "evaluator.command", ["python3"]),
            # The child's handshake alone sets the pipeline depth: an unknown key.
            ("fc", "subprocess", "evaluator.max_in_flight", "2"),
            ("fc", "subprocess", "evaluator.max_in_flight", 2.5),
            ("fc", "subprocess", "evaluator.max_in_flight", True),
            ("fc", "replay", "evaluator.csv_file", 5),
            ("fc", "replay", "evaluator.exhaustion", 1),
            ("fc", "synthetic", "models", "abc"),
            ("fc", "synthetic", "models", ["a", 1]),
            ("fc", "synthetic", "campaign_seed", True),
            ("fc", "synthetic", "campaign_seed", "7"),
            ("fc", "synthetic", "campaign_seed", 7.0),
            ("fc", "synthetic", "mc_samples", "1000"),
            ("fc", "synthetic", "mc_samples", 1000.0),
            ("fc", "synthetic", "mc_samples", False),
            ("fc", "synthetic", "transform", 5),
            ("fc", "synthetic", "transform.epsilon", "0.01"),
            ("fc", "synthetic", "trace_path", 5),
            ("fc", "synthetic", "max_evals", 50),
            ("fc-batch", "synthetic", "batch_size", 2),
            ("fc", "synthetic", "mode.max_eval", 50),
            ("fc", "synthetic", "evaluator.arm_file", "arms.json"),
            ("fc", "synthetic", "transform.eps", 0.1),
        ],
    )
    def test_wrong_type_or_unknown_key_exits_one_naming_path(
        self, command, evaluator, path, value, tmp_path, capsys
    ):
        data = {
            "mode": {"fb": {"kind": "fb", "budget": 10},
                     "fc-batch": {"kind": "fc-batch", "delta": 0.1, "batch_size": 2}}.get(
                         command, {"kind": "fc", "delta": 0.1}),
            "evaluator": {"synthetic": {"kind": "synthetic", "arms_file": "arms.json"},
                          "subprocess": {"kind": "subprocess", "command": "child"},
                          "replay": {"kind": "replay", "csv_file": "scores.csv"}}[evaluator],
            "models": ["a", "b"],
            "transform": {"kind": "logit", "epsilon": 0.01},
        }
        *parents, leaf = path.split(".")
        section = data
        for key in parents:
            section = section[key]
        section[leaf] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        argv = [command, "--config", str(config_path)]
        code = main(argv + ["--replications", "1"] if command == "replicate" else argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {path}: " in err
        assert "must be" in err or "unknown key" in err
        assert "Traceback" not in err


class TestOneWalk:
    """A config file, the flags laid over it and a config handed to the
    runners are built and checked by one walk, section by section."""

    @pytest.mark.parametrize("run", [run_campaign, lambda config: run_replications(config, 1)],
                             ids=["run_campaign", "run_replications"])
    def test_runners_leave_their_config_as_it_was(self, run, pair_arms_file, capsys):
        config = CampaignConfig(cli.ModeConfig(kind="fc", delta=0.2),
                                cli.EvaluatorConfig(kind="synthetic", arms_file=pair_arms_file),
                                mc_samples=500, transform="logit")
        before = copy.deepcopy(config)
        run(config)
        assert config == before

    def test_runners_refuse_a_config_instance_as_a_file(self, pair_arms_file):
        config = CampaignConfig(cli.ModeConfig(kind="fc", delta="0.2"),
                                cli.EvaluatorConfig(kind="synthetic", arms_file=pair_arms_file))
        with pytest.raises(ConfigError, match=r"^mode\.delta: must be a number or null, got '0\.2'$"):
            run_campaign(config)

    # Each file also holds a bad mode.delta; the mode section comes first.
    @pytest.mark.parametrize("evaluator, flags", [
        ({"kind": "synthetic", "arms_file": "arms.json", "bogus": 1}, []),
        (None, ["--synthetic", "arms.json", "--replay", "scores.csv"]),
    ], ids=["unknown-evaluator-key", "two-evaluator-flags"])
    def test_sections_are_refused_in_table_order(self, evaluator, flags, tmp_path, capsys):
        data = {"mode": {"kind": "fc", "delta": "x"}}
        if evaluator is not None:
            data["evaluator"] = evaluator
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["fc", "--config", str(path), *flags]) == 1
        assert capsys.readouterr().err == "error: mode.delta: must be a number or null, got 'x'\n"

    def test_flags_fill_a_null_section(self, pair_arms_file, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"mode": null}')
        argv = ["fc", "--delta", "0.2", "--synthetic", pair_arms_file, "--mc-samples", "500"]
        assert main(argv + ["--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("chosen: hi\n")
        with pytest.raises(ConfigError, match="^mode: must be a JSON object$"):
            CampaignConfig.from_dict({"mode": None, "evaluator": {"kind": "synthetic",
                                                                   "arms_file": pair_arms_file}})

    def test_a_kind_flag_ignores_another_kinds_keys(self, pair_arms_file, tmp_path, capsys):
        # The flag sets evaluator.kind over a valid subprocess section; its keys
        # are checked, then left out of the header, as if there were no file.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"evaluator": {"kind": "subprocess",
                                                  "command": "python3 child.py", "timeout": 5}}))
        argv = ["fc", "--delta", "0.2", "--synthetic", pair_arms_file, "--mc-samples", "500"]
        traces = [tmp_path / "plain.jsonl", tmp_path / "over-file.jsonl"]
        assert main(argv + ["--trace", str(traces[0])]) == 0
        assert main(argv + ["--trace", str(traces[1]), "--config", str(path)]) == 0
        capsys.readouterr()
        headers = [t.read_text().splitlines()[0] for t in traces]
        assert headers[0] == headers[1]
        assert json.loads(headers[1])["config"]["evaluator"] == {"kind": "synthetic",
                                                                 "arms_file": pair_arms_file}


class TestRunCampaign:
    def test_summary_matches_result(self, arms_file, capsys):
        config = fc_config(arms_file)
        result, code = run_campaign(config)
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert lines["chosen"] == result.chosen.name
        assert lines["terminated_by"] == result.terminated_by.value
        assert int(lines["total_evals"]) == result.total_evals
        printed_pi = [float(tok.split("=")[1]) for tok in lines["pi"].split()]
        assert printed_pi == [round(p, 6) for p in result.final_belief.pi]
        printed_counts = [int(tok.split("=")[1]) for tok in lines["evals"].split()]
        assert printed_counts == list(result.eval_counts)

    def test_trace_file_complete(self, arms_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        config = fc_config(arms_file, trace_path=str(trace_path))
        result, _ = run_campaign(config)
        capsys.readouterr()
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        header, events = lines[0], lines[1:]
        assert "config" in header
        assert header["config"]["campaign_seed"] == 7
        assert header["config"]["models"] == ["m0", "m1", "m2", "m3", "m4"]
        assert "trace_path" not in header["config"]
        evaluated = [e for e in events if e["kind"] == "evaluated"]
        assert len(evaluated) == result.total_evals
        assert len(events) == len(result.trace)
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)

    def test_selects_best_arm_with_high_confidence(self, arms_file, capsys):
        config = fc_config(arms_file, mode={"kind": "fc", "delta": 0.05}, campaign_seed=11,
                           mc_samples=10_000)
        result, code = run_campaign(config)
        capsys.readouterr()
        assert code == 0
        assert result.chosen.name == "m4"
        assert max(result.final_belief.pi) > 0.95

    def test_single_candidate_fixed_confidence(self, arms_file, capsys):
        config = fc_config(arms_file, models=["m4"], mc_samples=1000)
        result, code = run_campaign(config)
        capsys.readouterr()
        assert code == 0
        assert result.total_evals == 3

    def test_safeguard_exit_code(self, tmp_path, capsys):
        arms = tmp_path / "tied.json"
        arms.write_text(
            json.dumps(
                [
                    {"name": "a", "family": "gaussian", "mean": 0.5, "sd": 1e-12},
                    {"name": "b", "family": "gaussian", "mean": 0.5, "sd": 1e-12},
                ]
            )
        )
        config = CampaignConfig.from_dict(
            {
                "mode": {"kind": "fc", "delta": 0.05, "max_evals": 6},
                "evaluator": {"kind": "synthetic", "arms_file": str(arms)},
                "campaign_seed": 2,
                "mc_samples": 2000,
            }
        )
        result, code = run_campaign(config)
        capsys.readouterr()
        assert code == 2
        assert result.terminated_by.value == "max_evals_safeguard"


class TestMain:
    def test_fc_happy_path(self, arms_file, capsys):
        code = main(
            ["fc", "--delta", "0.2", "--synthetic", arms_file, "--seed", "3",
             "--mc-samples", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen:" in out

    def test_fb_budget_too_small_exits_one(self, tmp_path, capsys):
        arms = tmp_path / "twelve.json"
        arms.write_text(
            json.dumps(
                [{"name": f"m{i}", "family": "gaussian", "mean": 0.5 + i / 100, "sd": 0.01}
                 for i in range(12)]
            )
        )
        code = main(["fb", "--budget", "10", "--synthetic", str(arms)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: mode.budget: budget too small" in captured.err

    def test_baseline_fb_budget_below_one_per_model_exits_one(self, tmp_path, capsys):
        arms = tmp_path / "three.json"
        arms.write_text(
            json.dumps(
                [{"name": n, "family": "gaussian", "mean": 0.5, "sd": 0.01} for n in "abc"]
            )
        )
        code = main(["baseline-fb", "--budget", "2", "--synthetic", str(arms)])
        captured = capsys.readouterr()
        assert code == 1
        assert "budget too small" in captured.err and "got 2" in captured.err
        assert "error: mode.budget: " in captured.err
        assert captured.out == ""

    def test_fb_on_one_model_names_models(self, arms_file, capsys):
        code = main(["fb", "--budget", "10", "--synthetic", arms_file, "--models", "m0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: models: sequential halving needs at least 2 models, got 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("form", ["config", "flag"])
    def test_blank_model_name_exits_one_naming_models(self, form, pair_arms_file, tmp_path, capsys,
                                                      monkeypatch):
        submitted = []
        monkeypatch.setattr(SyntheticEvaluator, "submit", lambda self, req: submitted.append(req))
        if form == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"mode": {"kind": "fb", "budget": 10},
                                          "evaluator": {"kind": "synthetic",
                                                        "arms_file": pair_arms_file},
                                          "models": ["", " lo"]}))
            args, shown = ["fb", "--config", str(config)], "''"
        else:
            args, shown = ["fb", "--budget", "10", "--synthetic", pair_arms_file,
                           "--models", " ,hi"], "' '"
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: models: model names must be non-blank strings, got {shown}" in captured.err
        assert captured.out == "" and submitted == []

    def test_models_flag_orders_summary_and_trace(self, pair_arms_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main(["fc", "--delta", "0.2", "--synthetic", pair_arms_file, "--models", "hi,lo",
                     "--mc-samples", "500", "--trace", str(trace)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "chosen: hi"
        assert [line.split("=")[0] for line in out[3:5]] == ["evals: hi", "pi: hi"]
        assert all(" lo=" in line for line in out[3:5])
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines[0]["config"]["models"] == ["hi", "lo"]
        assert [e["model"] for e in lines[1:3]] == ["hi", "lo"]

    def test_duplicate_arm_name_names_the_arm_file(self, tmp_path, capsys):
        arms = tmp_path / "dup.json"
        arms.write_text(json.dumps([
            {"name": "a", "family": "gaussian", "mean": 0.9, "sd": 0.01},
            {"name": "b", "family": "gaussian", "mean": 0.5, "sd": 0.01},
            {"name": "a", "family": "gaussian", "mean": 0.1, "sd": 0.01},
        ]))
        for extra in (["--models", "a,b"], []):
            code = main(["fb", "--budget", "20", "--synthetic", str(arms)] + extra)
            captured = capsys.readouterr()
            assert code == 1
            assert "error: evaluator.arms_file: arm entry 2: duplicate name 'a'" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "arm, problem",
        [
            ({"name": None}, "name must be a non-empty string, got None"),
            ({"name": 7}, "name must be a non-empty string, got 7"),
            ({"name": ""}, "name must be a non-empty string, got ''"),
            ({"name": " "}, "name must be a non-empty string, got ' '"),
            ({"family": ["gaussian"]}, "unknown family ['gaussian']"),
        ],
    )
    def test_bad_arm_name_or_family_exits_one_naming_entry(self, arm, problem, tmp_path, capsys):
        arms = tmp_path / "arms.json"
        arms.write_text(json.dumps([{"name": "ok", "family": "gaussian", "mean": 0.5, "sd": 0.01},
                                    {"name": "bad", "family": "gaussian", "mean": 0.6, "sd": 0.01,
                                     **arm}]))
        code = main(["fc", "--delta", "0.2", "--synthetic", str(arms), "--mc-samples", "500"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: evaluator.arms_file: arm entry 1: {problem}" in err
        assert "Traceback" not in err

    def test_blank_replay_model_name_exits_one_naming_line(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,score\na,0.4\n,0.5\n")
        code = main(["fc", "--delta", "0.2", "--replay", str(scores), "--mc-samples", "500"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: evaluator.csv_file: {scores}:3: model name is empty" in err

    @pytest.mark.parametrize("command, problem", [("   ", "names no program"),
                                                  ("'unclosed", "No closing quotation")])
    def test_unusable_command_exits_one_before_spawning(self, command, problem, tmp_path, capsys,
                                                        monkeypatch):
        spawned = []
        monkeypatch.setattr(sp, "Popen", lambda *a, **k: spawned.append(a))
        trace = tmp_path / "t.jsonl"
        code = main(["fc", "--delta", "0.1", "--exec", command, "--models", "a,b",
                     "--mc-samples", "500", "--trace", str(trace)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: evaluator.command: " in err and problem in err
        assert "Traceback" not in err
        assert spawned == [] and not trace.exists()

    @pytest.mark.parametrize(
        "arm, param",
        [
            ({"family": "gaussian", "mean": float("nan"), "sd": 0.01}, "mean"),
            ({"family": "beta", "alpha": float("inf"), "beta": 2.0}, "alpha"),
            ({"family": "gaussian", "mean": "0.5", "sd": 0.01}, "mean"),
            ({"family": "gaussian", "mean": 0.5, "sd": True}, "sd"),
        ],
    )
    def test_bad_arm_parameter_exits_one_naming_entry(self, arm, param, tmp_path, capsys):
        arms = tmp_path / "arms.json"
        arms.write_text(
            json.dumps([{"name": "ok", "family": "gaussian", "mean": 0.5, "sd": 0.01},
                        {"name": "bad", **arm}])
        )
        code = main(["fc", "--delta", "0.2", "--synthetic", str(arms), "--mc-samples", "500"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"arm entry 1 (bad): {param} must be a finite number" in err
        assert "Traceback" not in err

    def test_missing_evaluator_exits_one(self, capsys):
        code = main(["fc", "--delta", "0.1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "evaluator" in captured.err

    def test_child_crash_exits_one_with_streamed_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "partial.jsonl"
        cmd = f"{sys.executable} {ECHO_CHILD} --crash-after 3 --const-score 0.5"
        code = main(
            ["fc", "--delta", "0.05", "--exec", cmd, "--models", "a,b",
             "--trace", str(trace_path), "--mc-samples", "1000"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert "config" in lines[0]
        evaluated = [e for e in lines[1:] if e["kind"] == "evaluated"]
        assert len(evaluated) <= 3

    @pytest.mark.parametrize("argv, code", [
        (["fc", "--delta", "x"], 1),
        (["fc", "--delta", "0.1", "--bogus"], 1),
        ([], 1),
        (["replicate", "--mode", "zz", "--replications", "2"], 1),
        (["fc", "--help"], 0),
    ], ids=["bad-value", "unknown-flag", "no-subcommand", "bad-choice", "help"])
    def test_a_refused_flag_exits_one_not_the_safeguards_two(self, argv, code):
        proc = sp.run([sys.executable, "-m", "bestarm.cli", *argv],
                      capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code:
            assert proc.stderr.startswith("usage: bestarm")
            assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
                proc.stderr.splitlines()[-1]]
        else:
            assert proc.stdout.startswith("usage: bestarm fc") and proc.stderr == ""

    @pytest.mark.parametrize("command", [["fc"], ["replicate", "--mode", "fc", "--replications", "2"]],
                             ids=["fc", "replicate"])
    def test_a_closed_stdout_exits_one_without_a_traceback(self, command, pair_arms_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = sp.run([sys.executable, "-m", "bestarm.cli", *command, "--delta", "0.2",
                           "--mc-samples", "500", "--synthetic", pair_arms_file],
                          stdout=write_end, stderr=sp.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_a_closed_stdout_leaves_no_descriptor_open(self, pair_arms_file, monkeypatch):
        read_end, write_end = os.pipe()

        class ClosedPipe(io.TextIOBase):
            def fileno(self):
                return write_end

            def write(self, text):
                raise BrokenPipeError("Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            before = len(os.listdir("/proc/self/fd"))
            code = main(["fc", "--delta", "0.2", "--mc-samples", "500", "--synthetic", pair_arms_file])
            after = len(os.listdir("/proc/self/fd"))
        finally:
            os.close(read_end)
            os.close(write_end)
        assert code == 1
        assert after == before

    def test_non_utf8_child_output_exits_one(self):
        # The child stays alive after its undecodable reply.
        reply = b'{"id": 0, "score": 0.5, "x": "\xff"}'
        cmd = f"{sys.executable} {ECHO_CHILD} --raw-reply {reply.hex()}"
        proc = sp.run(
            [sys.executable, "-m", "bestarm.cli", "fc", "--delta", "0.1", "--exec", cmd,
             "--models", "a,b", "--mc-samples", "500"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 1
        assert "malformed response line" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infeasible_truncated_gaussian_exits_one_with_header_only_trace(self, tmp_path):
        arms = tmp_path / "arms.json"
        arms.write_text(json.dumps([
            {"name": "ok", "family": "gaussian", "mean": 0.5, "sd": 0.01},
            {"name": "far", "family": "truncated_gaussian", "mean": 0, "sd": 0.01, "lo": 5, "hi": 6},
        ]))
        trace = tmp_path / "t.jsonl"
        proc = sp.run(
            [sys.executable, "-m", "bestarm.cli", "fc", "--delta", "0.1", "--synthetic", str(arms),
             "--mc-samples", "500", "--trace", str(trace)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "rejection sampling failed" in proc.stderr
        assert "(model far, request 1)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert "config" in lines[0]
        assert all(line["kind"] != "terminated" for line in lines[1:])

    def test_unwritable_trace_path_exits_one_before_evaluating(self, arms_file, tmp_path, capsys,
                                                               monkeypatch):
        submitted = []
        monkeypatch.setattr(SyntheticEvaluator, "submit", lambda self, req: submitted.append(req))
        code = main(["fc", "--delta", "0.2", "--synthetic", arms_file,
                     "--trace", str(tmp_path / "missing" / "t.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "trace_path" in captured.err
        assert captured.out == ""
        assert submitted == []

    def test_trace_write_error_mid_campaign_exits_one(self, arms_file, tmp_path, capsys,
                                                      monkeypatch):
        class FullDisk(io.StringIO):
            def write(self, text):
                if self.getvalue():
                    raise OSError(28, "No space left on device")
                return super().write(text)

        monkeypatch.setattr("bestarm.cli.open", lambda *a, **k: FullDisk(), raising=False)
        code = main(["fc", "--delta", "0.2", "--synthetic", arms_file,
                     "--trace", str(tmp_path / "t.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "trace_path" in captured.err
        assert "No space left on device" in captured.err

    def test_silent_child_times_out_and_exits_one(self):
        # The child never answers the handshake; without --timeout the run hangs.
        cmd = f"{sys.executable} -c 'import time; time.sleep(60)'"
        start = time.monotonic()
        proc = sp.run(
            [sys.executable, "-m", "bestarm.cli", "fc", "--delta", "0.1", "--exec", cmd,
             "--models", "a,b", "--timeout", "0.5"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1
        assert "timed out after 0.5s" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert time.monotonic() - start < 20

    @pytest.mark.parametrize("value", [0, -1.0, "5", True])
    def test_bad_timeout_exits_one_naming_path(self, value, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": {"kind": "fc", "delta": 0.1}, "models": ["a", "b"],
                                      "evaluator": {"kind": "subprocess", "command": "child",
                                                    "timeout": value}}))
        code = main(["fc", "--config", str(config)])
        assert code == 1
        assert "error: evaluator.timeout: " in capsys.readouterr().err

    @pytest.mark.parametrize("delta, mc_samples", [(0.1, 1), (0.1, 99), (0.05, 399), (0.01, 9999)])
    def test_mc_samples_coarser_than_delta_exits_one(self, delta, mc_samples, arms_file, tmp_path,
                                                     capsys, monkeypatch):
        submitted = []
        monkeypatch.setattr(SyntheticEvaluator, "submit", lambda self, req: submitted.append(req))
        trace = tmp_path / "t.jsonl"
        # replicate refuses a trace path first, so it runs without one.
        for command in (["fc", "--trace", str(trace)],
                        ["fc-batch", "--batch-size", "2", "--trace", str(trace)],
                        ["baseline-fc", "--trace", str(trace)],
                        ["replicate", "--mode", "fc", "--replications", "2"]):
            code = main(command + ["--delta", str(delta), "--mc-samples", str(mc_samples),
                                   "--synthetic", arms_file])
            err = capsys.readouterr().err
            assert code == 1, command
            assert f"error: mc_samples: must be at least 1/delta^2 = {round(1 / delta**2)} " in err
        assert submitted == []
        assert not trace.exists()

    def test_mc_samples_beyond_the_memory_cap_exits_one(self, arms_file, capsys, monkeypatch):
        submitted = []
        monkeypatch.setattr(SyntheticEvaluator, "submit", lambda self, req: submitted.append(req))
        for command in (["fc"], ["fc-batch", "--batch-size", "2"], ["baseline-fc"]):
            code = main(command + ["--delta", "0.1", "--mc-samples", str(10**13),
                                   "--synthetic", arms_file])
            err = capsys.readouterr().err
            assert code == 1, command
            assert "error: mc_samples: must be at most 26843545 for 5 models" in err
            assert "Traceback" not in err
        assert submitted == []

    def test_mc_samples_at_the_resolution_bound_runs(self, arms_file, capsys):
        code = main(["fc", "--delta", "0.1", "--mc-samples", "100", "--synthetic", arms_file])
        capsys.readouterr()
        assert code in (0, 2)

    def test_max_evals_below_initialization_names_config_path(self, arms_file, capsys):
        code = main(["fc", "--delta", "0.1", "--max-evals", "5", "--synthetic", arms_file])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: mode.max_evals: must be at least 3 evaluations per model" in err
        assert "max_total_evals" not in err

    def test_batch_deeper_than_child_names_config_path(self, capsys):
        cmd = f"{sys.executable} {ECHO_CHILD} --max-in-flight 2"
        code = main(["fc-batch", "--delta", "0.1", "--batch-size", "4", "--exec", cmd,
                     "--models", "a,b", "--mc-samples", "1000"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: mode.batch_size: evaluator supports at most 2 concurrent requests, got 4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, leaf", [
        (["fb", "--budget", "5"], "mode.budget"),
        (["fc", "--delta", "0.1", "--max-evals", "5"], "mode.max_evals"),
        (["fc-batch", "--delta", "0.1", "--batch-size", "20", "--models", "m0,m1,m2,m3",
          "--exec", f"{sys.executable} {ECHO_CHILD} --max-in-flight 2"], "mode.batch_size"),
    ])
    def test_refusal_after_the_evaluator_is_built_leaves_the_trace_path_alone(
            self, command, leaf, tmp_path, capsys):
        arms = tmp_path / "four.json"
        arms.write_text(json.dumps(FIG_ARMS[:4]))
        if "--exec" not in command:
            command = command + ["--synthetic", str(arms)]
        command = command + ["--mc-samples", "1000"]
        earlier = tmp_path / "earlier.jsonl"
        earlier.write_bytes(b'{"config": {}}\n{"seq": 0}\n')
        fresh = tmp_path / "fresh.jsonl"
        for trace in (earlier, fresh):
            code = main(command + ["--trace", str(trace)])
            err = capsys.readouterr().err
            assert code == 1
            assert f"error: {leaf}: " in err and "Traceback" not in err
        assert earlier.read_bytes() == b'{"config": {}}\n{"seq": 0}\n'
        assert not fresh.exists()

    def test_fb_runs_sequential_halving(self, arms_file, capsys):
        code = main(["fb", "--budget", "30", "--synthetic", arms_file, "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "terminated_by: budget_exhausted" in out

    def test_fc_batch_async(self, pair_arms_file, capsys):
        code = main(
            ["fc-batch", "--delta", "0.2", "--batch-size", "3", "--async",
             "--synthetic", pair_arms_file, "--seed", "8", "--mc-samples", "2000"]
        )
        capsys.readouterr()
        assert code == 0

    def test_baselines(self, pair_arms_file, capsys):
        assert main(["baseline-fb", "--budget", "10", "--synthetic", pair_arms_file]) == 0
        assert main(
            ["baseline-fc", "--delta", "0.2", "--synthetic", pair_arms_file,
             "--mc-samples", "2000"]
        ) == 0
        capsys.readouterr()

    def test_logit_transform_smoke(self, pair_arms_file, capsys):
        code = main(
            ["fc", "--delta", "0.2", "--synthetic", pair_arms_file,
             "--transform", "logit", "--mc-samples", "2000"]
        )
        capsys.readouterr()
        assert code == 0

    def test_replay_pool_exhaustion_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("model,score\na,0.5\na,0.6\na,0.7\nb,0.4\nb,0.5\nb,0.6\n")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "mode": {"kind": "fc", "delta": 0.01},
                    "evaluator": {"kind": "replay", "csv_file": str(csv_path),
                                  "exhaustion": "error"},
                    "mc_samples": 10_000,
                    "trace_path": str(tmp_path / "trace.jsonl"),
                }
            )
        )
        code = main(["fc", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "exhausted" in captured.err
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert "config" in json.loads(lines[0])

    def test_protocol_violation_exits_one(self, capsys):
        cmd = f"{sys.executable} {ECHO_CHILD} --wrong-id --max-in-flight 1"
        code = main(
            ["fc", "--delta", "0.1", "--exec", cmd, "--models", "a,b",
             "--mc-samples", "1000"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "id" in captured.err

    def test_replay_campaign(self, tmp_path, capsys):
        csv_path = tmp_path / "scores.csv"
        rows = ["model,score"]
        rows += [f"a,{0.5 + 0.001 * i}" for i in range(10)]
        rows += [f"b,{0.7 + 0.001 * i}" for i in range(10)]
        csv_path.write_text("\n".join(rows) + "\n")
        code = main(
            ["fc", "--delta", "0.2", "--replay", str(csv_path), "--mc-samples", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen: b" in out

    @pytest.mark.parametrize("models, problem", [
        ([], "error: models: need at least 1 candidate model"),
        (["a", "zzz"], "error: models: no recorded scores for models: ['zzz']"),
    ])
    def test_refused_candidates_give_no_ignored_scores_warning(self, models, problem, tmp_path,
                                                               capsys, recwarn):
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text("model,score\na,0.5\na,0.52\na,0.51\nb,0.6\nb,0.61\nb,0.62\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": models}))
        code = main(["fc", "--delta", "0.2", "--replay", str(csv_path), "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert problem in err
        assert [str(w.message) for w in recwarn if "ignoring scores" in str(w.message)] == []


class TestCrossProcessDeterminism:
    def test_same_seed_same_trace_across_processes(self, arms_file, tmp_path):
        import subprocess as sp

        blobs = []
        for run in range(2):
            trace = tmp_path / f"run{run}.jsonl"
            proc = sp.run(
                [sys.executable, "-m", "bestarm.cli", "fc", "--delta", "0.2",
                 "--synthetic", arms_file, "--seed", "21", "--mc-samples", "2000",
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(trace.read_bytes())
        assert blobs[0] == blobs[1]


class TestInterrupt:
    def test_sigint_exits_130_and_keeps_the_streamed_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        cmd = f"{sys.executable} {ECHO_CHILD} --delay-ms 20"
        proc = sp.Popen(
            [sys.executable, "-m", "bestarm.cli", "fc", "--delta", "0.001", "--exec", cmd,
             "--models", "a,b", "--mc-samples", "1000000", "--trace", str(trace)],
            stdout=sp.PIPE, stderr=sp.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not trace.exists() or trace.read_text().count("\n") < 8:
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "trace did not reach 8 lines"
                time.sleep(0.02)
            # The campaign is still running, so those lines were streamed.
            assert proc.poll() is None
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(lines) >= 8
        assert "config" in lines[0]
        assert [e["seq"] for e in lines[1:]] == list(range(len(lines) - 1))


class TestReplications:
    def test_single_replication_matches_single_run(self, arms_file, capsys):
        config = fc_config(arms_file)
        result, _ = run_campaign(config)
        capsys.readouterr()
        report = run_replications(fc_config(arms_file), replications=1)
        assert report.min_evals == report.max_evals == result.total_evals
        assert report.mean_evals == result.total_evals
        assert report.selection_counts[result.chosen.index] == 1

    def test_replications_run_the_campaign_at_consecutive_seeds(self, arms_file, capsys):
        results = [run_campaign(fc_config(arms_file, campaign_seed=seed))[0] for seed in (7, 8, 9)]
        capsys.readouterr()
        report = run_replications(fc_config(arms_file), replications=3, true_best="m4")
        totals = [r.total_evals for r in results]
        assert report.model_names == [m.name for m in results[0].models]
        assert report.selection_counts == [sum(r.chosen.index == i for r in results)
                                           for i in range(len(FIG_ARMS))]
        assert (report.min_evals, report.mean_evals, report.max_evals) == (
            min(totals), sum(totals) / 3, max(totals))
        assert report.correct == sum(r.chosen.name == "m4" for r in results)
        assert len(set(totals)) > 1  # the seeds give different campaigns

    def test_report_aggregates(self, arms_file):
        report = run_replications(fc_config(arms_file), replications=5, true_best="m4")
        assert report.replications == 5
        assert sum(report.selection_counts) == 5
        assert report.min_evals <= report.mean_evals <= report.max_evals
        assert 0 <= report.correct <= 5
        lo, hi = report.binomial_ci()
        assert 0.0 <= lo <= hi <= 1.0
        text = report.format()
        assert "total_evals: min=" in text
        assert "correct:" in text

    def test_interval_keeps_a_width_at_all_correct(self):
        def report(n):
            return ReplicationReport(replications=n, model_names=["a"], selection_counts=[n],
                                     min_evals=1, mean_evals=1.0, max_evals=1, true_best="a",
                                     correct=n)

        lo, hi = report(500).binomial_ci()
        assert 0.98 < lo < 1.0 and hi == 1.0
        assert "99% CI [0.9869, 1.0000]" in report(500).format()
        lo, hi = report(5).binomial_ci()
        assert lo < 0.5 and hi == 1.0

    def test_refuses_subprocess_without_override(self, capsys):
        config = CampaignConfig.from_dict(
            {
                "mode": {"kind": "fc", "delta": 0.2},
                "evaluator": {"kind": "subprocess", "command": "whatever"},
                "models": ["a", "b"],
            }
        )
        with pytest.raises(ConfigError, match="allow-exec"):
            run_replications(config, replications=2)

    def test_replicate_cli(self, arms_file, capsys):
        code = main(
            ["replicate", "--mode", "fc", "--replications", "3", "--delta", "0.2",
             "--synthetic", arms_file, "--true-best", "m4", "--mc-samples", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replications: 3" in out
        assert "selection_freq:" in out

    def test_unknown_true_best_rejected(self, arms_file):
        with pytest.raises(ConfigError, match="true_best"):
            run_replications(fc_config(arms_file), replications=1, true_best="nope")

    def test_empty_models_are_named_before_true_best(self, arms_file):
        with pytest.raises(ConfigError, match="^models: need at least 1 candidate model"):
            run_replications(fc_config(arms_file, models=[]), replications=1, true_best="m0")

    @pytest.mark.parametrize("source", ["arm-file", "models", "csv", "exec"])
    def test_true_best_checked_before_any_campaign(self, source, arms_file, tmp_path, monkeypatch):
        # (evaluator, models, a name that is not a candidate, one that is)
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text("model,score\na,0.5\nb,0.6\n")
        evaluator, models, bad, good = {
            "arm-file": ({"kind": "synthetic", "arms_file": arms_file}, None, "nope", "m4"),
            "models": ({"kind": "synthetic", "arms_file": arms_file}, ["m3", "m4"], "m0", "m3"),
            "csv": ({"kind": "replay", "csv_file": str(csv_path)}, None, "c", "b"),
            "exec": ({"kind": "subprocess", "command": "never-started"}, ["a", "b"], "c", "a"),
        }[source]
        config = CampaignConfig.from_dict(
            {"mode": {"kind": "fc", "delta": 0.2}, "evaluator": evaluator, "models": models}
        )
        runs = []

        class CampaignStarted(Exception):
            pass

        def first_campaign(config, data):
            runs.append(config)
            raise CampaignStarted

        monkeypatch.setattr(cli, "_run", first_campaign)
        with pytest.raises(ConfigError, match="true_best"):
            run_replications(config, replications=2, true_best=bad, allow_subprocess=True)
        assert runs == []
        with pytest.raises(CampaignStarted):
            run_replications(config, replications=2, true_best=good, allow_subprocess=True)
        assert len(runs) == 1

    @pytest.mark.parametrize("replications, problem", [
        (0, "must be positive, got 0"),
        (-2, "must be positive, got -2"),
        (True, "must be an integer, got True"),
        (2.5, "must be an integer, got 2.5"),
        ("3", "must be an integer, got '3'"),
        (None, "must be an integer, got None"),
    ])
    def test_replications_not_a_positive_integer_is_refused_before_any_campaign(
            self, replications, problem, arms_file, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "_run", lambda config, data: runs.append(config))
        with pytest.raises(ConfigError) as caught:
            run_replications(fc_config(arms_file), replications)
        assert (caught.value.field_name, caught.value.message) == ("replications", problem)
        assert runs == []

    @pytest.mark.parametrize("seed, replications, refused", [
        (2**64 - 1, 2, True), (2**64 - 3, 5, True), (2**64 - 2, 2, False), (2**64 - 1, 1, False),
    ])
    def test_last_seed_beyond_64_bits_is_refused_before_any_campaign(
            self, seed, replications, refused, arms_file, capsys, monkeypatch):
        runs = []

        def first_campaign(config, data):
            runs.append(config.campaign_seed)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_run", first_campaign)
        code = main(["replicate", "--mode", "fc", "--replications", str(replications),
                     "--delta", "0.2", "--seed", str(seed), "--synthetic", arms_file])
        err = capsys.readouterr().err
        if refused:
            assert code == 1
            assert f"error: campaign_seed: must leave {replications} consecutive seeds" in err
            assert runs == []
        else:
            assert (code, runs) == (130, [seed])

    @pytest.mark.parametrize("source", ["arm-file", "models", "csv"])
    def test_data_file_is_parsed_once(self, source, arms_file, tmp_path, monkeypatch):
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text("model,score\na,0.5\na,0.52\na,0.51\nb,0.6\nb,0.61\nb,0.62\n")
        evaluator, models, parser = {
            "arm-file": ({"kind": "synthetic", "arms_file": arms_file}, None, "load_arm_file"),
            "models": ({"kind": "synthetic", "arms_file": arms_file}, ["m3", "m4"], "load_arm_file"),
            "csv": ({"kind": "replay", "csv_file": str(csv_path)}, None, "read_replay_csv"),
        }[source]
        config = CampaignConfig.from_dict({"mode": {"kind": "fc", "delta": 0.2}, "evaluator": evaluator,
                                           "models": models, "mc_samples": 2000})
        parse, calls = getattr(cli, parser), []
        monkeypatch.setattr(cli, parser, lambda *args, **kw: calls.append(args) or parse(*args, **kw))
        report = run_replications(config, replications=4)
        assert report.replications == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_replicate_refuses_a_trace_path(self, form, arms_file, tmp_path, capsys, monkeypatch):
        submitted = []
        monkeypatch.setattr(SyntheticEvaluator, "submit", lambda self, req: submitted.append(req))
        trace = tmp_path / "rep.jsonl"
        args = ["replicate", "--mode", "fb", "--replications", "2", "--budget", "30",
                "--synthetic", arms_file]
        if form == "flag":
            args += ["--trace", str(trace)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"trace_path": str(trace)}))
            args += ["--config", str(config)]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert "error: trace_path: replicate writes no trace" in captured.err
        assert captured.out == "" and submitted == [] and not trace.exists()

    def test_allow_exec_override(self, capsys):
        cmd = f"{sys.executable} {ECHO_CHILD} --const-score 0.5"
        code = main(
            ["replicate", "--mode", "fc", "--replications", "2", "--delta", "0.5",
             "--exec", cmd, "--models", "a,b", "--allow-exec", "--mc-samples", "500",
             "--max-evals", "12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replications: 2" in out

    def test_non_candidate_scores_are_warned_about_once_per_sweep(self, tmp_path):
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text("model,score\na,0.5\na,0.52\na,0.51\nb,0.6\nb,0.61\nb,0.62\n")
        # A subprocess, so that Python's default warning filter applies.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        proc = sp.run(
            [sys.executable, "-m", "bestarm.cli", "replicate", "--mode", "fc", "--replications", "3",
             "--delta", "0.2", "--replay", str(csv_path), "--models", "a", "--mc-samples", "500"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "replications: 3" in proc.stdout
        assert proc.stderr.count("ignoring scores for models that are not candidates: ['b']") == 1
