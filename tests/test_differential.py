"""The library refuses what the config refuses, naming the same leaf.

Each drawn config runs through ``main`` and through the library entry point
called with the same values on the same arm file. Either both refuse, the
CLI naming ``mode.delta`` where the library names ``delta`` (a top-level
leaf has the same name in both), or both run and give the same trace.

The CLI-only rules are left out. Every config has valid kinds and runs one
campaign, never ``replicate``. A valid delta is at least 0.1 and a valid
mc_samples at least 100, so the Monte-Carlo resolution guard never refuses.
Only the leaves the mode's kind takes are drawn, since the library has no
keyword for the others; mc_samples is one of them only for the
fixed-confidence kinds.

At most one leaf is out of range or wrongly typed. With several, the two
may name different ones: the config checks ``transform`` as it reads the
file, before the mode, and counts a budget below 1 as out of range where
the library counts it as too small for the candidates, after the seed.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from bestarm import (
    ConfigError,
    SyntheticEvaluator,
    TransformMode,
    bts,
    nonadaptive_fixed_budget,
    nonadaptive_fixed_confidence,
    sequential_halving,
    ttts,
)
from bestarm.cli import main
from bestarm.evaluators import load_arm_file

ENTRY_POINTS = {
    "fb": sequential_halving,
    "baseline-fb": nonadaptive_fixed_budget,
    "fc": ttts,
    "baseline-fc": nonadaptive_fixed_confidence,
    "fc-batch": bts,
}
MODE_LEAVES = {
    "fb": ["budget"],
    "baseline-fb": ["budget"],
    "fc": ["delta", "max_evals"],
    "baseline-fc": ["delta", "max_evals"],
    "fc-batch": ["delta", "max_evals", "batch_size", "sync"],
}

# Values each leaf accepts on two or three arms.
GOOD = {
    "budget": st.integers(6, 30),
    "delta": st.sampled_from([0.1, 0.25, 0.5]),
    "max_evals": st.integers(9, 30),
    "batch_size": st.integers(1, 3),
    "sync": st.booleans(),
    "campaign_seed": st.one_of(st.integers(0, 1000), st.just(2**64 - 1)),
    "mc_samples": st.integers(100, 300),
    "transform": st.sampled_from(["identity", "logit", {"kind": "logit", "epsilon": 0.01}]),
}
# Values of the wrong type, out of range, or too small for the candidates.
BAD = {
    "budget": [0, -3, 1, 5, 10.0, "10", None, True],
    "delta": [0, 1, -0.1, 1.5, "0.1", None, True, [0.1]],
    "max_evals": [0, -1, 5, 8, 20.0, "20", None, False],
    "batch_size": [0, -2, 2.0, "2", None, True],
    "sync": ["false", 0, 1, None],
    "campaign_seed": [-1, 2**64, 1.5, "7", None, True],
    "mc_samples": [0, -5, 150.0, "200", None, True, 10**9],
    "transform": [5, None, "cubic", ["logit"], {"kind": "logit", "epsilon": 0.7},
                  {"kind": "identity", "scale": 2}],
}
ARMS = [{"name": n, "family": "gaussian", "mean": mu, "sd": 0.05}
        for n, mu in (("a", 0.5), ("b", 0.55), ("c", 0.6))]


@st.composite
def cases(draw):
    """A mode kind, the number of arms, and the config's mode and top-level leaves."""
    kind = draw(st.sampled_from(list(ENTRY_POINTS)))
    leaves = MODE_LEAVES[kind] + ["campaign_seed", "transform"]
    if kind not in ("fb", "baseline-fb"):
        leaves.append("mc_samples")
    values = {name: draw(GOOD[name]) for name in leaves}
    bad = draw(st.one_of(st.none(), st.sampled_from(leaves)))
    if bad is not None:
        values[bad] = draw(st.sampled_from(BAD[bad]))
    return kind, draw(st.integers(2, 3)), values


def library_transform(value):
    """The TransformMode the config reads from ``value``, or ``value`` itself
    where the config refuses it."""
    form = {"kind": value} if isinstance(value, str) else value
    if not isinstance(form, dict) or set(form) - {"kind", "epsilon"}:
        return value
    try:
        if form.get("kind") == "logit":
            return TransformMode.logit(form.get("epsilon", 1e-6))
        return TransformMode(form.get("kind"))
    except ValueError:
        return value


def run_cli(kind, values, arms_path, workdir):
    """main's exit code, and the leaf it names or the trace's events."""
    mode = {"kind": kind, **{k: values[k] for k in MODE_LEAVES[kind]}}
    top = {k: v for k, v in values.items() if k not in mode}
    trace = os.path.join(workdir, "trace.jsonl")
    config = {"mode": mode, "evaluator": {"kind": "synthetic", "arms_file": arms_path},
              "trace_path": trace, **top}
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([kind, "--config", config_path])
    if code == 1:
        path = err.getvalue().removeprefix("error: ").split(": ", 1)[0]
        # A key inside the transform object, such as transform.epsilon, is
        # part of the transform leaf.
        return code, path if path.startswith("mode.") else path.split(".")[0]
    with open(trace, encoding="utf-8") as fh:
        return code, [json.loads(line) for line in fh][1:]


def run_library(kind, values, arms_path):
    """The leaf the library refuses, or its trace's events."""
    arms = load_arm_file(arms_path)
    evaluator = SyntheticEvaluator(arms, list(arms))
    params = {k: v for k, v in values.items() if k != "campaign_seed"}
    params["transform"] = library_transform(params["transform"])
    try:
        result = ENTRY_POINTS[kind](evaluator, values["campaign_seed"], **params)
    except ConfigError as e:
        return "mode." + e.field_name if e.field_name in MODE_LEAVES[kind] else e.field_name
    return [e.to_dict() for e in result.trace]


@settings(max_examples=200, deadline=None)
@given(cases())
def test_main_and_the_library_refuse_the_same_leaf_or_run_the_same_campaign(case):
    kind, n_arms, values = case
    with tempfile.TemporaryDirectory() as workdir:
        arms_path = os.path.join(workdir, "arms.json")
        with open(arms_path, "w", encoding="utf-8") as fh:
            json.dump(ARMS[:n_arms], fh)
        code, cli_outcome = run_cli(kind, values, arms_path, workdir)
        library_outcome = run_library(kind, values, arms_path)
    assert cli_outcome == library_outcome, (code, values)
