"""Every malformed input file and evaluator child ends ``main`` with exit 1
and one ``error:`` line, never a traceback.

A file's refusal names its leaf (``config``, ``evaluator.arms_file`` or
``evaluator.csv_file``), and the arm entry or CSV line where there is one.
"""

import errno
import json
import os
import re
import sys

import pytest

from bestarm.cli import main

ECHO_CHILD = os.path.join(os.path.dirname(__file__), "echo_child.py")

DEEP = "[" * 100_000 + "]" * 100_000
PAIR = [{"name": "a", "family": "gaussian", "mean": 0.5, "sd": 0.01},
        {"name": "b", "family": "gaussian", "mean": 0.6, "sd": 0.01}]


def refusal(argv, capsys) -> str:
    """Run ``main``, check it refused cleanly, and return its error line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    return errors[0]


def write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, str):
        content = content.encode()
    path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("content, expected", [
    (None, "error: config: [Errno 2] No such file or directory: "),
    ('{"mode": ', "error: config: invalid JSON: Expecting value: line 1 column 10"),
    (b'{"mode": {"kind": "fc"}}\xff', "error: config: 'utf-8' codec can't decode byte 0xff "),
    (DEEP, "error: config: maximum recursion depth exceeded"),
    ('{"campaign_seed": ' + "1" * 5000 + "}", "error: config: Exceeds the limit (4300 digits) "),
    ("[]", "error: config: must be a JSON object"),
    ('{"mode": 5}', "error: mode: must be a JSON object"),
    ("null", "error: config: must be a JSON object"),
], ids=["missing", "bad-json", "not-utf8", "deep", "long-int", "list", "mode-5", "null"])
def test_bad_config_file_names_config(content, expected, tmp_path, capsys):
    path = str(tmp_path / "config.json") if content is None else write(tmp_path, "config.json",
                                                                           content)
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    line = refusal(["fc", "--delta", "0.2", "--synthetic", arms, "--config", path], capsys)
    assert line.startswith(expected)


def test_a_parent_side_pipeline_depth_is_an_unknown_key(tmp_path, capsys):
    # The child's handshake alone sets the pipeline depth.
    config = write(tmp_path, "config.json", json.dumps({
        "evaluator": {"kind": "subprocess", "command": echo_child(), "max_in_flight": 2},
        "models": ["a", "b"]}))
    line = refusal(["fc", "--delta", "0.2", "--config", config], capsys)
    assert line == "error: evaluator.max_in_flight: unknown key"


@pytest.mark.parametrize("delta, expected", [
    ("1e-154", "error: mc_samples: must be at least 1/delta^2 = 1000000000000000"),
    ("1e-160", "error: mc_samples: must be at least 1/delta^2 for delta 1e-160, so that "),
    ("1e-300", "error: mc_samples: must be at least 1/delta^2 for delta 1e-300, so that "),
])
def test_tiny_delta_is_refused_by_the_resolution_guard(delta, expected, tmp_path, capsys):
    # Below about 1e-154, 1/delta^2 no longer fits in a float and is not named.
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    line = refusal(["fc", "--delta", delta, "--synthetic", arms, "--mc-samples", "1000"], capsys)
    assert line.startswith(expected)


def test_mc_samples_past_a_float_is_refused_by_the_draw_matrix_cap(tmp_path, capsys):
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    line = refusal(["fc", "--delta", "1e-300", "--synthetic", arms,
                    "--mc-samples", str(10**400)], capsys)
    assert line.startswith("error: mc_samples: must be at most 67108864 for 2 models, ")


def test_scores_whose_statistics_overflow_are_refused(tmp_path, capsys):
    # Each score is finite, but a model's second one overflows its sq_dev_sum.
    arms = write(tmp_path, "arms.json", json.dumps([
        {"name": "a", "family": "gaussian", "mean": 1e200, "sd": 1e199},
        {"name": "b", "family": "gaussian", "mean": 1.1e200, "sd": 1e199}]))
    trace = tmp_path / "trace.jsonl"
    line = refusal(["fc", "--delta", "0.1", "--mc-samples", "1000", "--synthetic", arms,
                    "--trace", str(trace)], capsys)
    assert line.startswith("error: statistics overflow after score ")
    evaluated = [e for e in map(json.loads, trace.read_text().splitlines()[1:])
                 if e["kind"] == "evaluated"]
    assert 1 <= len(evaluated) <= 3 * 2
    # Scores are folded in request order, so the refused one is the next request.
    assert re.search(rf" \(model [ab], request {len(evaluated)}\)$", line), line


@pytest.mark.parametrize("arms, expected", [
    ({}, "arm spec file must contain a JSON array"),
    ([5], "arm entry 0 must be an object with 'name' and 'family'"),
    ([{"name": "a", "family": "gaussian", "mean": 0.5}],
     "arm entry 0 (a): Gaussian.__init__() missing 1 required positional argument: 'sd'"),
    ([{"name": "a", "family": "gaussian", "mean": 0.5, "sd": 0.1, "skew": 1}],
     "arm entry 0 (a): Gaussian.__init__() got an unexpected keyword argument 'skew'"),
    ([{"name": "a", "family": "truncated_gaussian", "mean": 0.5, "sd": 0, "lo": 0, "hi": 1}],
     "arm entry 0 (a): sd must be positive, got 0"),
    ([*PAIR, {"name": "c", "family": "truncated_gaussian", "mean": 0.5, "sd": 0.1, "lo": 1,
              "hi": 1}],
     "arm entry 2 (c): need lo < hi, got [1, 1]"),
    ([*PAIR, {"name": "c", "family": "beta", "alpha": 2, "beta": -1}],
     "arm entry 2 (c): alpha and beta must be positive, got 2, -1"),
    ("[{", "invalid JSON: Expecting property name enclosed in double quotes"),
    (DEEP, "maximum recursion depth exceeded"),
], ids=["object", "number-entry", "missing-param", "unknown-param", "sd-0", "lo-hi", "beta",
        "bad-json", "deep"])
def test_bad_arm_file_names_arms_file_and_entry(arms, expected, tmp_path, capsys):
    content = arms if isinstance(arms, str) else json.dumps(arms)
    path = write(tmp_path, "arms.json", content)
    line = refusal(["fc", "--delta", "0.2", "--synthetic", path, "--mc-samples", "500"], capsys)
    assert line.startswith(f"error: evaluator.arms_file: {expected}")


@pytest.mark.parametrize("content, expected", [
    ("model,score\na\n", "{path}:2: expected 'model,score', got ['a']"),
    (b"model,score\na,0.5\xff\n", "'utf-8' codec can't decode byte 0xff "),
    ("model,score\na," + "1" * 200_000 + "\n", "{path}:2: field larger than field limit (131072)"),
    (None, "[Errno 2] No such file or directory: "),
], ids=["one-field", "not-utf8", "huge-field", "missing"])
def test_bad_replay_csv_names_csv_file_and_line(content, expected, tmp_path, capsys):
    path = str(tmp_path / "scores.csv") if content is None else write(tmp_path, "scores.csv",
                                                                          content)
    line = refusal(["fc", "--delta", "0.2", "--replay", path, "--mc-samples", "500"], capsys)
    assert line.startswith("error: evaluator.csv_file: " + expected.format(path=path))


def test_blank_replay_row_is_skipped(tmp_path, capsys):
    rows = [f"a,{0.5 + 0.001 * i}\n\nb,{0.7 + 0.001 * i}\n" for i in range(10)]
    path = write(tmp_path, "scores.csv", "model,score\n\n" + "".join(rows))
    code = main(["fc", "--delta", "0.2", "--replay", path, "--mc-samples", "500"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("chosen: b\n") and captured.err == ""


@pytest.mark.parametrize("flag, name, content", [
    ("--synthetic", "evaluator.arms_file", json.dumps(PAIR)),
    ("--replay", "evaluator.csv_file", "model,score\n" + "a,0.5\nb,0.7\n" * 5),
    ("--config", "the --config file", None),
], ids=["arms", "csv", "config"])
@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_trace_path_that_is_the_input_file_is_refused(flag, name, content, link, tmp_path, capsys):
    if content is None:  # a config naming a real arm file, so only the trace can refuse it
        arms = write(tmp_path, "arms.json", json.dumps(PAIR))
        content = json.dumps({"evaluator": {"kind": "synthetic", "arms_file": arms}})
    source = write(tmp_path, "input", content)
    trace = source
    if link:
        trace = str(tmp_path / "link")
        os.symlink(source, trace)
    line = refusal(["fc", "--delta", "0.2", flag, source, "--mc-samples", "500", "--trace", trace],
                   capsys)
    assert line == f"error: trace_path: {trace!r} is {name}, the run's input file"
    assert (tmp_path / "input").read_text() == content


def test_trace_path_with_a_nul_byte_is_refused(tmp_path, capsys):
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    config = write(tmp_path, "config.json", json.dumps({"trace_path": "t\u0000x"}))
    line = refusal(["fc", "--delta", "0.2", "--mc-samples", "500", "--synthetic", arms,
                    "--config", config], capsys)
    assert line == "error: trace_path: embedded null byte"


def echo_child(*flags):
    return " ".join([sys.executable, ECHO_CHILD, *flags])


@pytest.mark.parametrize("reply", [
    b'{"id": 0}', b'{"id": 0, "score": "0.5"}', b'{"id": 0, "score": 1e999}',
    b'{"id": 0, "score": NaN}',
], ids=["missing", "string", "1e999", "nan"])
def test_reply_without_a_finite_score_is_refused(reply, capsys):
    line = refusal(["fc", "--delta", "0.2", "--exec", echo_child("--raw-reply", reply.hex()),
                    "--models", "a,b", "--mc-samples", "500", "--timeout", "10"], capsys)
    assert line.startswith("error: response for id 0 has no finite score: ")


def test_reply_that_is_not_an_object_is_refused(capsys):
    line = refusal(["fc", "--delta", "0.2", "--exec", echo_child("--raw-reply", b"[0]".hex()),
                    "--models", "a,b", "--mc-samples", "500", "--timeout", "10"], capsys)
    assert line == "error: response must be a JSON object: b'[0]'"


def test_subprocess_without_models_is_refused(capsys):
    line = refusal(["fc", "--delta", "0.2", "--exec", echo_child(), "--mc-samples", "500"], capsys)
    assert line == "error: models: required for the subprocess evaluator"


def _not_executable_format(tmp_path):
    # Executable, but neither a binary format nor a script with a #! line.
    path = write(tmp_path, "child", b"\x00\x01\x02\x03")
    os.chmod(path, 0o755)
    return path


@pytest.mark.parametrize("program, code", [
    (lambda tmp_path: str(tmp_path / "no-such-child"), errno.ENOENT),
    (_not_executable_format, errno.ENOEXEC),
    (lambda tmp_path: os.path.join(write(tmp_path, "file", ""), "child"), errno.ENOTDIR),
], ids=["missing", "exec-format", "not-a-directory"])
def test_missing_program_is_refused(program, code, tmp_path, capsys):
    program = program(tmp_path)
    line = refusal(["fc", "--delta", "0.2", "--exec", program, "--models", "a,b",
                    "--mc-samples", "500"], capsys)
    assert line.startswith(f"error: evaluator.command: failed to spawn evaluator [{program!r}]: "
                           f"[Errno {code}] ")


def test_command_with_a_nul_byte_is_refused(tmp_path, capsys):
    config = write(tmp_path, "config.json", json.dumps({
        "evaluator": {"kind": "subprocess", "command": "py\u0000thon"}, "models": ["a", "b"]}))
    line = refusal(["fc", "--delta", "0.2", "--mc-samples", "500", "--config", config], capsys)
    assert line == ("error: evaluator.command: failed to spawn evaluator ['py\\x00thon']: "
                    "embedded null byte")


# An empty value is a value: it names a file that is not there, or no model.
FC = ["fc", "--delta", "0.1", "--mc-samples", "1000"]
REPLICATE = ["replicate", "--mode", "fc", "--replications", "2", "--delta", "0.1",
             "--mc-samples", "1000"]


@pytest.mark.parametrize("prefix, flag, expected", [
    (FC, "--trace", "error: trace_path: [Errno 2] No such file or directory: ''"),
    (FC, "--config", "error: config: [Errno 2] No such file or directory: ''"),
    (FC, "--models", "error: models: need at least 1 candidate model"),
    (REPLICATE, "--models", "error: models: need at least 1 candidate model"),
], ids=["trace", "config", "models", "replicate-models"])
def test_an_empty_value_is_refused(prefix, flag, expected, tmp_path, capsys):
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    line = refusal([*prefix, "--synthetic", arms, flag, ""], capsys)
    assert line == expected


# A kind flag sets evaluator.kind; the file's other evaluator keys are checked.
@pytest.mark.parametrize("extra, expected", [
    ({"bogus": 1}, "error: evaluator.bogus: unknown key"),
    ({"exhaustion": "nope"},
     "error: evaluator.exhaustion: must be one of ('error', 'cycle', 'resample'), got 'nope'"),
], ids=["unknown-key", "bad-exhaustion"])
def test_a_kind_flag_checks_the_files_evaluator_section(extra, expected, tmp_path, capsys):
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    config = write(tmp_path, "config.json", json.dumps(
        {"evaluator": {"kind": "replay", "csv_file": "x.csv", **extra}}))
    line = refusal(["fc", "--delta", "0.1", "--mc-samples", "1000", "--synthetic", arms,
                    "--config", config], capsys)
    assert line == expected


def test_a_key_repeated_in_the_config_file_is_refused(tmp_path, capsys):
    # JSON keeps the last value, so this ran at delta 0.5.
    config = write(tmp_path, "config.json",
                   '{"mode": {"kind": "fc", "delta": 0.05, "delta": 0.5}, "mc_samples": 1000}')
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    line = refusal(["fc", "--synthetic", arms, "--config", config], capsys)
    assert line == "error: config: duplicate key 'delta'"


def test_a_key_repeated_in_an_arm_entry_is_refused(tmp_path, capsys):
    # JSON keeps the last value, so a was the worse arm.
    arms = write(tmp_path, "arms.json",
                 '[{"name": "a", "family": "gaussian", "mean": 0.6, "mean": 0.4, "sd": 0.01},'
                 ' {"name": "b", "family": "gaussian", "mean": 0.5, "sd": 0.01}]')
    line = refusal(["fc", "--delta", "0.1", "--mc-samples", "1000", "--synthetic", arms], capsys)
    assert line == "error: evaluator.arms_file: duplicate key 'mean'"


@pytest.mark.parametrize("transform, expected", [
    ({}, "error: transform.kind: required, must be one of ('identity', 'logit')"),
    ({"epsilon": 0.01}, "error: transform.kind: required, must be one of ('identity', 'logit')"),
    ({"kind": None}, "error: transform.kind: must be one of ('identity', 'logit'), got None"),
    ("cubic", "error: transform: must be a JSON object"),
    ("logit", "error: transform: must be a JSON object"),
    ({"kind": "logit", "epsilon": 0.7}, "error: transform.epsilon: must be in (0, 0.5), got 0.7"),
], ids=["no-kind", "epsilon-only", "null-kind", "cubic", "logit-string", "epsilon"])
def test_a_bad_transform_is_refused(transform, expected, tmp_path, capsys):
    arms = write(tmp_path, "arms.json", json.dumps(PAIR))
    config = write(tmp_path, "config.json", json.dumps({"transform": transform}))
    line = refusal(["fc", "--delta", "0.1", "--mc-samples", "1000", "--synthetic", arms,
                    "--config", config], capsys)
    assert line == expected


# A flag sets a leaf; a leaf its section's kind does not use is refused, before
# any file is read, so the arm file here need not exist.
@pytest.mark.parametrize("argv, expected", [
    ([*FC, "--synthetic", "no-such-arms.json", "--timeout", "5"],
     "error: evaluator.timeout: --timeout does not apply when kind is 'synthetic'"),
    ([*FC, "--replay", "no-such-scores.csv", "--timeout", "5"],
     "error: evaluator.timeout: --timeout does not apply when kind is 'replay'"),
    ([*REPLICATE, "--synthetic", "no-such-arms.json", "--budget", "7"],
     "error: mode.budget: --budget does not apply when kind is 'fc'"),
    ([*REPLICATE, "--synthetic", "no-such-arms.json", "--async"],
     "error: mode.sync: --async does not apply when kind is 'fc'"),
], ids=["timeout-synthetic", "timeout-replay", "replicate-budget", "replicate-async"])
def test_a_flag_for_another_kind_is_refused(argv, expected, capsys):
    assert refusal(argv, capsys) == expected
