"""Every malformed input file and evaluator child ends ``main`` with exit 1
and one ``error:`` line, never a traceback.

A file's refusal names its leaf (``config``, ``evaluator.arms_file`` or
``evaluator.csv_file``), and the arm entry or CSV line where there is one.
"""

import json
import os
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


def test_missing_program_is_refused(tmp_path, capsys):
    program = str(tmp_path / "no-such-child")
    line = refusal(["fc", "--delta", "0.2", "--exec", program, "--models", "a,b",
                    "--mc-samples", "500"], capsys)
    assert line.startswith(f"error: evaluator.command: failed to spawn evaluator [{program!r}]: "
                           "[Errno 2] ")
