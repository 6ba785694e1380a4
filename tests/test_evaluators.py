import gc
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats as scistats

from bestarm import (
    Beta,
    ConfigError,
    EvaluationError,
    EvaluationRequest,
    EvaluatorFailure,
    EventKind,
    Gaussian,
    ReplayEvaluator,
    StreamPurpose,
    SubprocessEvaluator,
    SyntheticEvaluator,
    TruncatedGaussian,
    make_model_ids,
    read_replay_csv,
    ttts,
)
from bestarm import evaluators
from bestarm.evaluators import parse_arm_entries

ECHO_CHILD = os.path.join(os.path.dirname(__file__), "echo_child.py")


def echo_command(*flags):
    return [sys.executable, ECHO_CHILD, *flags]


def request(model, sequence, split_seed=None, model_seed=None):
    """A request whose seeds default to its sequence, so that distinct
    sequences get distinct in-process draws."""
    return EvaluationRequest(
        model=model,
        split_seed=sequence if split_seed is None else split_seed,
        model_seed=sequence if model_seed is None else model_seed,
        sequence=sequence,
    )


def evaluate(ev, req):
    """Submit one request and wait for its score."""
    ev.submit(req)
    return ev.collect()


def child_score(rid):
    return ((rid * 2654435761) % 2**32) / 2**32


# A `python -c` child that completes the handshake and then runs ``then``.
HANDSHAKE = ("import os, sys, time; sys.stdin.readline(); "
             "print('{\"ok\": true, \"max_in_flight\": 1}', flush=True); ")


class TestArmSpecs:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Gaussian(mean=0.5, sd=0.0)
        with pytest.raises(ValueError):
            TruncatedGaussian(mean=0.5, sd=0.1, lo=1.0, hi=0.0)
        with pytest.raises(ValueError):
            Beta(alpha=0.0, beta=1.0)

    def test_parse_entries(self):
        entries = parse_arm_entries(
            [
                {"name": "a", "family": "gaussian", "mean": 0.7, "sd": 0.01},
                {"name": "b", "family": "beta", "alpha": 2.0, "beta": 5.0},
                {"name": "c", "family": "truncated_gaussian", "mean": 0.5, "sd": 0.2,
                 "lo": 0.0, "hi": 1.0},
            ]
        )
        assert list(entries) == ["a", "b", "c"]
        assert entries["a"] == Gaussian(mean=0.7, sd=0.01)

    def test_parse_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="arm entry 2: duplicate name 'a'"):
            parse_arm_entries([
                {"name": "a", "family": "gaussian", "mean": 0.9, "sd": 0.01},
                {"name": "b", "family": "gaussian", "mean": 0.5, "sd": 0.01},
                {"name": "a", "family": "gaussian", "mean": 0.1, "sd": 0.01},
            ])

    @pytest.mark.parametrize("family", ["poisson", ["gaussian"]])
    def test_parse_rejects_unknown_family(self, family):
        with pytest.raises(ValueError, match="family"):
            parse_arm_entries([{"name": "a", "family": family, "lam": 3}])

    @pytest.mark.parametrize("name", [None, 7, "", " "])
    def test_parse_rejects_a_name_that_is_not_a_non_empty_string(self, name):
        with pytest.raises(ValueError, match="arm entry 0: name must be a non-empty string"):
            parse_arm_entries([{"name": name, "family": "gaussian", "mean": 0.5, "sd": 0.1}])

    def test_build_requires_arm_per_model(self):
        with pytest.raises(ValueError, match="b"):
            SyntheticEvaluator({"a": Gaussian(0.7, 0.01)}, ["a", "b"])


BUILDERS = {
    "synthetic": lambda names: SyntheticEvaluator(
        {"a": Gaussian(0.5, 0.1), "b": Gaussian(0.6, 0.1)}, names),
    "replay": lambda names: ReplayEvaluator({"a": [0.5], "b": [0.6]}, names),
    "subprocess": lambda names: SubprocessEvaluator(echo_command(), names),
}


class TestCandidateSet:
    """Each back-end builds its candidates from the names it is given."""

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_models_follow_the_names(self, kind):
        ev = BUILDERS[kind](["b", "a"])
        try:
            assert ev.models == make_model_ids(["b", "a"])
        finally:
            ev.close()

    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize(
        "names, problem",
        [
            (["a", "b", "a"], "duplicate model names: ['a']"),
            (["a", ""], "model names must be non-blank strings, got ''"),
            (["a", " "], "model names must be non-blank strings, got ' '"),
            (["a", None], "model names must be non-blank strings, got None"),
            ([], "need at least 1 candidate model"),
        ],
        ids=["duplicate", "empty", "blank", "not-a-string", "none"],
    )
    def test_bad_names_raise_on_models_before_any_spawn(self, kind, names, problem, monkeypatch):
        spawned = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: spawned.append(a))
        with pytest.raises(ConfigError) as caught:
            BUILDERS[kind](names)
        assert (caught.value.field_name, caught.value.message) == ("models", problem)
        assert spawned == []

    @pytest.mark.parametrize("command", ["   ", "'unclosed"])
    def test_unusable_command_raises_on_command_before_spawning(self, command, monkeypatch):
        spawned = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: spawned.append(a))
        with pytest.raises(ConfigError) as caught:
            SubprocessEvaluator(command, ["a"])
        assert caught.value.field_name == "command"
        assert spawned == []

    @pytest.mark.parametrize(
        "leaf, value, problem",
        [
            ("timeout", 0, "must be a positive number of seconds, got 0"),
            ("timeout", -1, "must be a positive number of seconds, got -1"),
            ("timeout", float("nan"), "must be a positive number of seconds, got nan"),
            ("timeout", float("inf"), "must be a positive number of seconds, got inf"),
        ],
    )
    def test_bad_depth_or_timeout_raises_on_it_before_spawning(self, leaf, value, problem,
                                                                monkeypatch):
        spawned = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: spawned.append(a))
        with pytest.raises(ConfigError) as caught:
            SubprocessEvaluator(echo_command(), ["a"], **{leaf: value})
        assert (caught.value.field_name, caught.value.message) == (leaf, problem)
        assert spawned == []


class TestSyntheticEvaluator:
    def make(self, mean=0.71, sd=0.01):
        (model,) = make_model_ids(["m"])
        return model, SyntheticEvaluator({"m": Gaussian(mean=mean, sd=sd)}, ["m"])

    def test_deterministic_across_instances(self):
        model, ev1 = self.make()
        _, ev2 = self.make()
        for seq in (0, 1, 99):
            s1 = evaluate(ev1, request(model, seq)).score
            s2 = evaluate(ev2, request(model, seq)).score
            assert s1 == s2

    def test_independent_of_dispatch_order(self):
        model, ev1 = self.make()
        _, ev2 = self.make()
        forward = {seq: evaluate(ev1, request(model, seq)).score for seq in range(5)}
        backward = {seq: evaluate(ev2, request(model, seq)).score for seq in reversed(range(5))}
        assert forward == backward

    def test_equal_seeds_give_equal_scores_whatever_the_sequence_or_a_retry(self):
        model, ev = self.make()
        requests = [request(model, seq, split_seed=5, model_seed=6) for seq in (0, 1, 99)]
        scores = {evaluate(ev, req).score for req in [*requests, requests[0]]}
        assert len(scores) == 1

    def test_each_seed_of_the_request_moves_the_score(self):
        model, ev = self.make()
        score = evaluate(ev, request(model, 0, split_seed=5, model_seed=6)).score
        assert evaluate(ev, request(model, 0, split_seed=7, model_seed=6)).score != score
        assert evaluate(ev, request(model, 0, split_seed=5, model_seed=7)).score != score

    def test_score_is_the_draw_keyed_by_split_seed_model_and_model_seed(self):
        ev = SyntheticEvaluator({"a": Gaussian(0.5, 0.1), "b": Gaussian(0.6, 0.1)}, ["a", "b"])
        split, model_seed = 2**64 - 1, 12345
        req = request(ev.models[1], 9, split_seed=split, model_seed=model_seed)
        key = np.random.SeedSequence(split, spawn_key=(int(StreamPurpose.SYNTHETIC), 1, model_seed))
        assert evaluate(ev, req).score == float(np.random.default_rng(key).normal(0.6, 0.1))

    def test_campaigns_on_one_evaluator_get_fresh_scores(self):
        dists = {name: Gaussian(mu, 0.01) for name, mu in zip("abc", (0.5, 0.6, 0.7))}
        ev = SyntheticEvaluator(dists, list(dists))
        firsts = set()
        for seed in range(20):
            # max_evals=9 stops each campaign after its 3 evaluations per model.
            result = ttts(ev, seed, delta=0.1, max_evals=9, mc_samples=1000)
            firsts.add(tuple(e["score"] for e in result.trace
                             if e["kind"] == EventKind.EVALUATED))
        assert len(firsts) == 20

    def test_gaussian_sample_mean(self):
        model, ev = self.make(mean=0.71, sd=0.01)
        scores = [evaluate(ev, request(model, seq)).score for seq in range(100_000)]
        tol = 4 * 0.01 / np.sqrt(100_000)
        assert np.mean(scores) == pytest.approx(0.71, abs=tol)

    def test_degenerate_arm(self):
        model, ev = self.make(mean=0.66, sd=1e-12)
        scores = [evaluate(ev, request(model, seq)).score for seq in range(100)]
        assert max(abs(s - 0.66) for s in scores) < 1e-9

    def test_truncated_support(self):
        (model,) = make_model_ids(["m"])
        ev = SyntheticEvaluator({"m": TruncatedGaussian(0.5, 0.2, 0.0, 1.0)}, ["m"])
        scores = [evaluate(ev, request(model, seq)).score for seq in range(2000)]
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_truncated_rejection_cap(self):
        # support effectively disjoint from the parent distribution
        dist = TruncatedGaussian(0.0, 1e-9, 5.0, 6.0)
        with pytest.raises(RuntimeError, match="rejection"):
            dist.sample(np.random.default_rng(1))

    @pytest.mark.parametrize(
        "dist,cdf",
        [
            (Gaussian(0.6, 0.05), scistats.norm(loc=0.6, scale=0.05).cdf),
            (Beta(2.0, 5.0), scistats.beta(2.0, 5.0).cdf),
            (
                TruncatedGaussian(0.5, 0.2, 0.0, 1.0),
                scistats.truncnorm(
                    (0.0 - 0.5) / 0.2, (1.0 - 0.5) / 0.2, loc=0.5, scale=0.2
                ).cdf,
            ),
        ],
        ids=["gaussian", "beta", "truncated_gaussian"],
    )
    def test_distributional_fidelity(self, dist, cdf):
        (model,) = make_model_ids(["m"])
        ev = SyntheticEvaluator({"m": dist}, ["m"])
        scores = np.array([evaluate(ev, request(model, seq)).score for seq in range(100_000)])
        assert scistats.kstest(scores, cdf).pvalue > 0.001


class TestReplay:
    def test_ordered_replay(self):
        models = make_model_ids(["m1"])
        ev = ReplayEvaluator({"m1": [0.6, 0.7]}, ["m1"], "error")
        assert evaluate(ev, request(models[0], 0)).score == 0.6
        assert evaluate(ev, request(models[0], 1)).score == 0.7

    def test_cycle_wraps(self):
        models = make_model_ids(["m1"])
        ev = ReplayEvaluator({"m1": [0.6, 0.7]}, ["m1"], "cycle")
        scores = [evaluate(ev, request(models[0], seq)).score for seq in range(3)]
        assert scores == [0.6, 0.7, 0.6]

    def test_error_policy_raises(self):
        models = make_model_ids(["m1"])
        ev = ReplayEvaluator({"m1": [0.6, 0.7]}, ["m1"], "error")
        evaluate(ev, request(models[0], 0))
        evaluate(ev, request(models[0], 1))
        with pytest.raises(EvaluatorFailure, match="replay pool for m1 exhausted after 2 scores"):
            evaluate(ev, request(models[0], 2))

    def test_resample_mean_converges_to_pool_mean(self):
        rng = np.random.default_rng(4)
        pool = rng.normal(0.7, 0.05, size=40).tolist()
        models = make_model_ids(["m1"])
        ev = ReplayEvaluator({"m1": pool}, ["m1"], "resample")
        n = 10_000
        scores = [evaluate(ev, request(models[0], seq)).score for seq in range(n)]
        pool_mean, pool_sd = np.mean(pool), np.std(pool)
        assert np.mean(scores) == pytest.approx(pool_mean, abs=4 * pool_sd / np.sqrt(n))

    def test_resample_is_request_keyed(self):
        pool = [0.1, 0.2, 0.3, 0.4, 0.5]
        models = make_model_ids(["m1"])
        scores = {}
        for attempt in range(2):
            ev = ReplayEvaluator({"m1": pool}, ["m1"], "resample")
            for seq in range(5, 10):  # past exhaustion immediately
                ev.submit(request(models[0], seq))
            got = {s.request.sequence: s.score for s in (ev.collect() for _ in range(5))}
            scores[attempt] = got
        assert scores[0] == scores[1]

    def test_resample_is_keyed_by_the_request_seeds(self):
        pool = [0.1 * k for k in range(1, 10)]
        ev = ReplayEvaluator({"a": [0.5], "b": pool}, ["a", "b"], "resample")
        model = ev.models[1]
        for seq in range(len(pool)):  # use up the recorded scores
            evaluate(ev, request(model, seq))
        scores = [evaluate(ev, request(model, seq, split_seed=21, model_seed=34)).score
                  for seq in (9, 40)]
        key = np.random.SeedSequence(21, spawn_key=(int(StreamPurpose.REPLAY), 1, 34))
        assert scores == [pool[int(np.random.default_rng(key).integers(len(pool)))]] * 2

    @pytest.mark.parametrize("policy", ["bad", None, 2])
    def test_unknown_exhaustion_policy_is_refused(self, policy):
        with pytest.raises(ConfigError) as caught:
            ReplayEvaluator({"m1": [0.6]}, ["m1"], policy)
        assert (caught.value.field_name, caught.value.message) == (
            "exhaustion", f"must be one of ('error', 'cycle', 'resample'), got {policy!r}")

    def test_requires_scores_for_every_model(self):
        with pytest.raises(ValueError, match="m2"):
            ReplayEvaluator({"m1": [0.6]}, ["m1", "m2"])

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("model,score\nm1,0.6\nm2,0.8\nm1,0.7\n")
        pools = read_replay_csv(str(path))
        assert pools == {"m1": [0.6, 0.7], "m2": [0.8]}

    def test_csv_unknown_models_warn(self):
        with pytest.warns(UserWarning, match=r"not candidates: \['mystery'\]"):
            ev = ReplayEvaluator({"m1": [0.6], "mystery": [0.9]}, ["m1"])
        assert [m.name for m in ev.models] == ["m1"]
        assert [evaluate(ev, request(ev.models[0], seq)).score for seq in range(5)] == [0.6] * 5

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("name,value\nm1,0.6\n")
        with pytest.raises(ValueError, match="header"):
            read_replay_csv(str(path))

    def test_csv_rejects_bad_score(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("model,score\nm1,abc\n")
        with pytest.raises(ValueError, match="abc"):
            read_replay_csv(str(path))

    @pytest.mark.parametrize("name", ["", "  "])
    def test_csv_rejects_blank_model_name(self, tmp_path, name):
        path = tmp_path / "scores.csv"
        path.write_text(f"model,score\nm1,0.6\n{name},0.5\n")
        with pytest.raises(ValueError, match=r"scores\.csv:3: model name is empty"):
            read_replay_csv(str(path))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite_score(self, tmp_path, score):
        path = tmp_path / "scores.csv"
        path.write_text(f"model,score\nm1,0.6\nm1,{score}\n")
        with pytest.raises(ValueError, match=r"scores\.csv:3: .*not finite"):
            read_replay_csv(str(path))


class TestSubprocessEvaluator:
    def make(self, *flags, models=("tdlstm", "ian"), **kwargs):
        names = list(models)
        ids = make_model_ids(names)
        ev = SubprocessEvaluator(echo_command(*flags), names, **kwargs)
        return ids, ev

    def test_round_trip(self):
        ids, ev = self.make("--const-score", "0.6631")
        try:
            req = EvaluationRequest(model=ids[0], split_seed=123, model_seed=456, sequence=7)
            score = evaluate(ev, req)
            assert score.score == 0.6631
            assert score.request is req
        finally:
            ev.close()

    def test_error_response(self):
        ids, ev = self.make("--error-model", "tdlstm")
        try:
            with pytest.raises(EvaluationError, match="OOM"):
                evaluate(ev, request(ids[0], 7))
        finally:
            ev.close()

    def test_unknown_id_is_protocol_error(self):
        ids, ev = self.make("--wrong-id")
        try:
            with pytest.raises(EvaluatorFailure, match="does not match any outstanding request"):
                evaluate(ev, request(ids[0], 7))
        finally:
            ev.close()

    @pytest.mark.parametrize("rid", ["[1]", "true"])
    def test_non_integer_id_is_protocol_error(self, rid):
        # Request 1 is outstanding, so a bool id must not be taken for it.
        ids, ev = self.make("--id-json", rid)
        try:
            with pytest.raises(EvaluatorFailure, match="does not match any outstanding request"):
                evaluate(ev, request(ids[0], 1))
        finally:
            ev.close()

    def test_non_utf8_reply_is_protocol_error(self):
        # The child stays alive after replying, so this must not wait on its exit.
        ids, ev = self.make("--raw-reply", b'{"id": 0, "score": 0.5, "x": "\xff"}'.hex(), timeout=10)
        try:
            with pytest.raises(EvaluatorFailure, match="malformed response line"):
                evaluate(ev, request(ids[0], 0))
        finally:
            ev.close()

    def test_repeated_key_in_a_reply_is_protocol_error(self):
        # JSON keeps the last value, so this was taken as score 0.9.
        reply = b'{"id": 0, "score": 0.5, "score": 0.9}'
        ids, ev = self.make("--raw-reply", reply.hex(), timeout=10)
        try:
            with pytest.raises(EvaluatorFailure,
                               match=r"^malformed response line \(duplicate key 'score'\): "):
                evaluate(ev, request(ids[0], 0))
        finally:
            ev.close()

    def test_repeated_key_in_the_handshake_is_protocol_error(self):
        child = ("import sys; sys.stdin.readline(); "
                 "print('{\"ok\": true, \"max_in_flight\": 1, \"max_in_flight\": 4}', flush=True); "
                 "sys.stdin.read()")
        with pytest.raises(EvaluatorFailure, match=r"\(duplicate key 'max_in_flight'\)"):
            SubprocessEvaluator([sys.executable, "-c", child], ["a"], timeout=10)

    def test_bad_handshake(self):
        with pytest.raises(EvaluatorFailure, match="handshake rejected"):
            self.make("--bad-handshake")

    def test_bool_handshake_depth_is_protocol_error(self):
        child = ("import sys; sys.stdin.readline(); "
                 "print('{\"ok\": true, \"max_in_flight\": true}', flush=True); sys.stdin.read()")
        with pytest.raises(EvaluatorFailure, match="max_in_flight must be a positive integer"):
            SubprocessEvaluator([sys.executable, "-c", child], ["a"], timeout=10)

    # The handshake is the only source of the pipeline depth.
    @pytest.mark.parametrize("reply", ['{"ok": true, "max_in_flight": 0}',
                                       '{"ok": true, "max_in_flight": -1}',
                                       '{"ok": true, "max_in_flight": 1.5}',
                                       '{"ok": true, "max_in_flight": "4"}',
                                       '{"ok": true}'],
                             ids=["zero", "negative", "fraction", "string", "missing"])
    def test_bad_handshake_depth_is_protocol_error(self, reply):
        child = f"import sys; sys.stdin.readline(); print({reply!r}, flush=True); sys.stdin.read()"
        with pytest.raises(EvaluatorFailure, match="max_in_flight must be a positive integer"):
            SubprocessEvaluator([sys.executable, "-c", child], ["a"], timeout=10)

    @pytest.mark.parametrize("command", [[], "", "   "])
    def test_empty_command_is_refused(self, command):
        with pytest.raises(ValueError, match="names no program"):
            SubprocessEvaluator(command, ["a"])

    @pytest.mark.parametrize("ending", ["close", "crash-then-close", "bad-handshake"])
    def test_no_pipe_outlives_the_evaluator(self, ending):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            if ending == "bad-handshake":
                with pytest.raises(EvaluatorFailure, match="handshake rejected"):
                    self.make("--bad-handshake")
            else:
                ids, ev = self.make(*(["--crash-after", "1"] if ending == "crash-then-close" else []))
                if ending == "crash-then-close":
                    evaluate(ev, request(ids[0], 1))
                    with pytest.raises(EvaluatorFailure):
                        evaluate(ev, request(ids[0], 2))
                ev.close()
                del ev
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_starts_no_thread(self):
        before = threading.active_count()
        ids, ev = self.make()
        try:
            evaluate(ev, request(ids[0], 0))
            assert threading.active_count() == before
        finally:
            ev.close()

    def test_reply_written_in_two_parts_is_one_line(self):
        ids, ev = self.make("--split-reply-ms", "100", timeout=10)
        try:
            assert evaluate(ev, request(ids[0], 3)).score == child_score(3)
        finally:
            ev.close()

    def test_timeout_bounds_the_whole_line(self):
        # Each part of the handshake reply comes within the timeout, the line does not.
        with pytest.raises(EvaluatorFailure, match="timed out after 0.2s"):
            self.make("--split-reply-ms", "1000", timeout=0.2)

    def test_close_does_not_wait_for_a_grandchild_holding_stdout(self):
        ids, ev = self.make("--grandchild-s", "3")
        evaluate(ev, request(ids[0], 0))
        start = time.monotonic()
        ev.close()
        assert time.monotonic() - start < 2.0
        assert ev._child.stdout.closed

    def test_advertised_capacity(self):
        _, ev = self.make("--max-in-flight", "3")
        try:
            assert ev.max_in_flight == 3
        finally:
            ev.close()

    def test_submit_past_capacity_rejected(self):
        ids, ev = self.make("--max-in-flight", "1")
        try:
            ev.submit(request(ids[0], 0))
            with pytest.raises(RuntimeError, match="pipeline depth"):
                ev.submit(request(ids[0], 1))
            ev.collect()
        finally:
            ev.close()

    def test_pipelined_reordered_responses_match_by_id(self):
        ids, ev = self.make("--reorder", "--max-in-flight", "8")
        try:
            results = {}
            submitted = 0
            collected = 0
            total = 200
            while collected < total:
                while submitted < total and submitted - collected < ev.max_in_flight:
                    ev.submit(request(ids[submitted % 2], submitted))
                    submitted += 1
                score = ev.collect()
                results[score.request.sequence] = score.score
                collected += 1
            assert len(results) == total
            for seq, score in results.items():
                assert score == child_score(seq)
        finally:
            ev.close()

    def test_child_crash_surfaces_stderr(self):
        ids, ev = self.make("--crash-after", "2")
        try:
            evaluate(ev, request(ids[0], 0))
            evaluate(ev, request(ids[0], 1))
            with pytest.raises(EvaluatorFailure) as exc_info:
                evaluate(ev, request(ids[0], 2))
            assert "boom" in (exc_info.value.stderr or "")
        finally:
            ev.close()

    def test_crash_after_a_full_pipe_of_stderr_keeps_its_last_line(self):
        # 100 KiB would fill a 64 KiB pipe that nobody reads.
        ids, ev = self.make("--crash-after", "0", "--stderr-kib", "100")
        try:
            with pytest.raises(EvaluatorFailure) as exc_info:
                evaluate(ev, request(ids[0], 0))
            stderr = exc_info.value.stderr or ""
            assert len(stderr) > 100 * 1024
            assert stderr.endswith("boom: simulated crash")
        finally:
            ev.close()

    def test_timeout(self):
        ids, ev = self.make("--delay-ms", "3000", timeout=0.3)
        try:
            with pytest.raises(EvaluatorFailure, match="timed out"):
                evaluate(ev, request(ids[0], 0))
        finally:
            ev.close()

    def test_clean_shutdown(self):
        ids, ev = self.make()
        evaluate(ev, request(ids[0], 0))
        ev.close()
        assert ev._child.returncode == 0

    def test_second_close_is_a_no_op(self, monkeypatch):
        ids, ev = self.make()
        evaluate(ev, request(ids[0], 0))
        ev.close()
        monkeypatch.setattr(ev, "_send", lambda obj: pytest.fail("sent after close"))
        monkeypatch.setattr(ev, "_release", lambda: pytest.fail("released twice"))
        ev.close()
        assert ev._child.returncode == 0

    def test_close_kills_a_child_that_ignores_shutdown_and_end_of_input(self, monkeypatch):
        monkeypatch.setattr(evaluators, "_EXIT_WAIT_S", 0.2)
        child = HANDSHAKE + "[None for _ in sys.stdin]; time.sleep(60)"
        ev = SubprocessEvaluator([sys.executable, "-c", child], ["a"], timeout=10)
        start = time.monotonic()
        ev.close()
        assert time.monotonic() - start < 1.0
        assert ev._child.returncode == -signal.SIGKILL
        assert ev._child.stdout.closed

    def test_child_that_closes_its_output_but_runs_on_fails_collect(self, monkeypatch):
        monkeypatch.setattr(evaluators, "_EXIT_WAIT_S", 0.2)
        child = HANDSHAKE + "os.close(1); time.sleep(60)"
        (model,) = make_model_ids(["a"])
        ev = SubprocessEvaluator([sys.executable, "-c", child], ["a"], timeout=10)
        try:
            ev.submit(request(model, 0))
            with pytest.raises(EvaluatorFailure,
                               match="closed its output with 1 requests outstanding"):
                ev.collect()
        finally:
            start = time.monotonic()
            ev.close()
        assert time.monotonic() - start < 1.0
        assert ev._child.returncode == -signal.SIGKILL

    def test_flaky_child_errors_then_succeeds_on_retry(self):
        ids, ev = self.make("--flaky")
        try:
            req = request(ids[0], 5)
            with pytest.raises(EvaluationError):
                evaluate(ev, req)
            score = evaluate(ev, req)
            assert score.score == child_score(5)
        finally:
            ev.close()


@pytest.mark.parametrize("make", [
    lambda: SyntheticEvaluator({"a": Gaussian(0.5, 0.1)}, ["a"]),
    lambda: ReplayEvaluator({"a": [0.5]}, ["a"]),
    lambda: SubprocessEvaluator(echo_command(), ["a"], timeout=10),
], ids=["synthetic", "replay", "subprocess"])
def test_collect_with_nothing_pending_is_refused(make):
    ev = make()
    try:
        for _ in range(2):  # before any request and after the last one is collected
            with pytest.raises(RuntimeError, match=r"^collect\(\) with no pending requests$"):
                ev.collect()
            evaluate(ev, request(ev.models[0], 0))
    finally:
        ev.close()


# A reply that is close to valid explores more of the parser than random bytes.
_REPLY_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([0, 10**400, -(10**400)]), st.lists(st.integers(), max_size=2),
)
_JSON_REPLIES = st.dictionaries(
    st.sampled_from(["id", "score", "error"]), _REPLY_VALUES, max_size=3
).map(lambda obj: json.dumps(obj).encode())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reply=st.one_of(st.binary(max_size=48), _JSON_REPLIES,
                      st.builds(bytes.__add__, _JSON_REPLIES, st.binary(max_size=4))))
def test_any_reply_gives_a_score_or_an_evaluator_failure(reply):
    (model,) = make_model_ids(["m"])
    ev = SubprocessEvaluator(echo_command("--raw-reply", reply.hex()), ["m"], timeout=10)
    try:
        try:
            score = evaluate(ev, request(model, 0))
        except EvaluatorFailure:
            return
        assert score.request.sequence == 0 and np.isfinite(score.score)
    finally:
        ev.close()
