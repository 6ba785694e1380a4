"""Evaluator back-ends: how the selection algorithms obtain noisy scores.

Three implementations of one contract:

* ``SyntheticEvaluator`` samples configured reward distributions, keyed so
  a request's (model index, split seed, model seed) is a fixed draw.
* ``ReplayEvaluator`` serves pre-recorded scores from a CSV pool.
* ``SubprocessEvaluator`` drives a long-lived external worker over
  line-delimited JSON on stdin/stdout, matching pipelined responses to
  requests strictly by id.
"""

from __future__ import annotations

import csv
import json
import math
import os
import select
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .core import (
    ConfigError,
    EvaluationError,
    EvaluationRequest,
    EvaluationScore,
    EvaluatorFailure,
    ModelId,
    StreamPurpose,
    make_model_ids,
    rng_stream,
)

PROTOCOL_VERSION = 1

# Rejection sampling cap for truncated distributions; hit only by badly
# mis-specified arms (support nearly disjoint from the parent distribution).
_MAX_REJECTIONS = 100_000

# Seconds an evaluator child gets to exit after closing its output or shutdown.
_EXIT_WAIT_S = 5.0


def _is_finite_number(value) -> bool:
    """Whether a JSON value is a finite number: a bool is not, and an int must fit a float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class Gaussian:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"sd must be positive, got {self.sd}")

    def sample(self, rng) -> float:
        return float(rng.normal(self.mean, self.sd))


@dataclass(frozen=True)
class TruncatedGaussian:
    mean: float
    sd: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError(f"sd must be positive, got {self.sd}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng) -> float:
        for _ in range(_MAX_REJECTIONS):
            x = float(rng.normal(self.mean, self.sd))
            if self.lo <= x <= self.hi:
                return x
        raise EvaluatorFailure(
            f"rejection sampling failed after {_MAX_REJECTIONS} draws for "
            f"truncated Gaussian({self.mean}, {self.sd}) on [{self.lo}, {self.hi}]"
        )


@dataclass(frozen=True)
class Beta:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"alpha and beta must be positive, got {self.alpha}, {self.beta}")

    def sample(self, rng) -> float:
        return float(rng.beta(self.alpha, self.beta))


Distribution = Union[Gaussian, TruncatedGaussian, Beta]

_FAMILIES = {"gaussian": Gaussian, "truncated_gaussian": TruncatedGaussian, "beta": Beta}


def parse_arm_entries(entries: list) -> dict[str, Distribution]:
    """Parse the arm file structure: a JSON array of named family records."""
    if not isinstance(entries, list):
        raise ValueError("arm spec file must contain a JSON array")
    out = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "name" not in entry or "family" not in entry:
            raise ValueError(f"arm entry {i} must be an object with 'name' and 'family'")
        name, family = entry["name"], entry["family"]
        if not isinstance(name, str) or not name.strip():
            raise ValueError(f"arm entry {i}: name must be a non-empty string, got {name!r}")
        if name in out:
            raise ValueError(f"arm entry {i}: duplicate name {name!r}")
        if not isinstance(family, str) or family not in _FAMILIES:
            raise ValueError(f"arm entry {i}: unknown family {family!r}")
        params = {k: v for k, v in entry.items() if k not in ("name", "family")}
        for k, v in params.items():
            if not _is_finite_number(v):
                raise ValueError(
                    f"arm entry {i} ({entry['name']}): {k} must be a finite number, got {v!r}"
                )
        try:
            dist = _FAMILIES[family](**params)
        except (TypeError, ValueError) as e:  # a missing or unknown parameter, or its range
            raise ValueError(f"arm entry {i} ({entry['name']}): {e}") from None
        out[name] = dist
    return out


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json(path: str):
    """Parse the UTF-8 JSON file at ``path``, refusing a key repeated within one object."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def load_arm_file(path: str) -> dict[str, Distribution]:
    """Read an arm file with ``read_json`` and parse it with ``parse_arm_entries``."""
    return parse_arm_entries(read_json(path))


class Evaluator(ABC):
    """The contract by which algorithms obtain scores.

    ``models`` is the candidate set the back-end serves, built from the
    names its constructor takes; a campaign on the evaluator selects among
    exactly these. ``submit`` enqueues a request, ``collect`` blocks for the
    next completed response (completion order, matched to its request), and
    ``pending`` counts the requests submitted and not yet collected. Every
    back-end states its pipeline depth as ``max_in_flight``; ``None`` means
    unlimited.
    """

    models: tuple[ModelId, ...]

    @property
    @abstractmethod
    def max_in_flight(self) -> Optional[int]: ...

    @abstractmethod
    def submit(self, request: EvaluationRequest) -> None: ...

    @abstractmethod
    def collect(self) -> EvaluationScore: ...

    @abstractmethod
    def pending(self) -> int: ...

    def close(self) -> None:
        """Release any resources; safe to call more than once."""


class _InOrderEvaluator(Evaluator):
    """In-process back-end whose responses complete in submit order.

    Each request is scored at submit time by the back-end's ``_score`` and
    queued; ``collect`` pops the queue. Submit order doubles as the
    deterministic scheduler for asynchronous batch campaigns.
    """

    def __init__(self, models: Sequence[str]):
        self.models = make_model_ids(models)
        self._queue: deque[EvaluationScore] = deque()

    @abstractmethod
    def _score(self, request: EvaluationRequest) -> float: ...

    @property
    def max_in_flight(self) -> Optional[int]:
        return None

    def submit(self, request: EvaluationRequest) -> None:
        self._queue.append(EvaluationScore(request=request, score=self._score(request)))

    def collect(self) -> EvaluationScore:
        if not self._queue:
            raise RuntimeError("collect() with no pending requests")
        return self._queue.popleft()

    def pending(self) -> int:
        return len(self._queue)


class SyntheticEvaluator(_InOrderEvaluator):
    """Scores drawn from per-model reward distributions.

    Each request's draw comes from a stream keyed by the request alone, its
    (split seed, model index, model seed), as the subprocess protocol asks of
    a child: a campaign's fresh request seeds get fresh scores, whatever the
    dispatch order.
    """

    def __init__(self, dists: Mapping[str, Distribution], models: Sequence[str]):
        super().__init__(models)
        missing = [m.name for m in self.models if m.name not in dists]
        if missing:
            raise ConfigError("models", f"no arm defined for models: {missing}")
        self._dists = {m.index: dists[m.name] for m in self.models}

    def _score(self, request: EvaluationRequest) -> float:
        rng = rng_stream(request.split_seed, StreamPurpose.SYNTHETIC, request.model.index,
                         request.model_seed)
        try:
            return self._dists[request.model.index].sample(rng)
        except EvaluatorFailure as e:  # an infeasible truncated Gaussian
            raise EvaluatorFailure(
                f"{e} (model {request.model.name}, request {request.sequence})") from None


# What a replay pool does once its recorded scores run out.
EXHAUSTION_POLICIES = ("error", "cycle", "resample")


def read_replay_csv(path: str) -> dict[str, list[float]]:
    """Read a "model,score" CSV into every model's ordered score list. A line
    error, the csv module's own included, names the line it ends on."""
    scores: dict[str, list[float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["model", "score"]:
                raise ValueError(f"{path}: expected CSV header 'model,score', got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"{path}:{reader.line_num}: expected 'model,score', got {row}")
                name = row[0].strip()
                if not name:
                    raise ValueError(f"{path}:{reader.line_num}: model name is empty")
                try:
                    value = float(row[1])
                except ValueError:
                    raise ValueError(f"{path}:{reader.line_num}: score {row[1]!r} is not a number") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{reader.line_num}: score {row[1]!r} is not finite")
                scores.setdefault(name, []).append(value)
        except csv.Error as e:
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None
    return scores


class ReplayEvaluator(_InOrderEvaluator):
    """Serves each model's recorded scores in order, then by the exhaustion policy."""

    def __init__(self, scores: Mapping[str, Sequence[float]], models: Sequence[str],
                 exhaustion: str = "resample"):
        super().__init__(models)
        if exhaustion not in EXHAUSTION_POLICIES:
            raise ConfigError("exhaustion", f"must be one of {EXHAUSTION_POLICIES}, got {exhaustion!r}")
        self._exhaustion = exhaustion
        empty = [m.name for m in self.models if not scores.get(m.name)]
        if empty:
            raise ConfigError("models", f"no recorded scores for models: {empty}")
        ignored = sorted(set(scores) - {m.name for m in self.models})
        if ignored:
            warnings.warn(f"ignoring scores for models that are not candidates: {ignored}")
        self._pools = {m.index: list(scores[m.name]) for m in self.models}
        self._cursors = {m.index: 0 for m in self.models}

    def _score(self, request: EvaluationRequest) -> float:
        idx = request.model.index
        pool, cursor = self._pools[idx], self._cursors[idx]
        if cursor < len(pool):
            self._cursors[idx] = cursor + 1
            return pool[cursor]
        if self._exhaustion == "error":
            raise EvaluatorFailure(
                f"replay pool for {request.model.name} exhausted after {len(pool)} scores"
            )
        if self._exhaustion == "cycle":
            self._cursors[idx] = cursor + 1
            return pool[cursor % len(pool)]
        rng = rng_stream(request.split_seed, StreamPurpose.REPLAY, idx, request.model_seed)
        return pool[int(rng.integers(len(pool)))]


class SubprocessEvaluator(Evaluator):
    """Long-lived external worker speaking line-delimited JSON.

    One child process serves the whole campaign (model setup costs are paid
    once). Requests carry the seeds the child must honor; responses are
    demultiplexed strictly by id, so the child may reply out of order up to
    the pipeline depth it advertises, the evaluator's ``max_in_flight``. Its
    stdout is read on the calling thread, through ``poll`` (POSIX only). Bad
    model names, a command that is blank or badly quoted and a ``timeout``
    that is not a positive number of seconds are refused before the child is
    spawned, and any failure to spawn the program, its errno named, as a bad
    ``command``.
    """

    def __init__(
        self,
        command: Union[str, Sequence[str]],
        models: Sequence[str],
        timeout: Optional[float] = None,
    ):
        self.models = make_model_ids(models)
        try:
            argv = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as e:  # unbalanced quotes
            raise ConfigError("command", str(e)) from None
        if not argv:
            raise ConfigError("command", f"command {command!r} names no program")
        if timeout is not None and not (_is_finite_number(timeout) and timeout > 0):
            raise ConfigError("timeout", f"must be a positive number of seconds, got {timeout!r}")
        self._timeout = timeout
        self._pending: dict[int, EvaluationRequest] = {}
        self._closed = False
        self._buffer = b""
        # A file, not a pipe: the child can never block on a full stderr.
        self._stderr = tempfile.TemporaryFile()
        try:
            self._child = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
        except (OSError, ValueError) as e:  # ValueError: a NUL byte in an argument
            self._stderr.close()
            raise ConfigError("command", f"failed to spawn evaluator {argv!r}: {e}") from None
        # poll, unlike select, takes descriptors past 1023.
        self._poll = select.poll()
        self._poll.register(self._child.stdout, select.POLLIN)

        try:
            self._send({"fiesta_protocol": PROTOCOL_VERSION, "models": [m.name for m in self.models]})
            reply = self._read_object()
            if reply.get("ok") is not True:
                raise EvaluatorFailure(f"handshake rejected: {reply}")
            advertised = reply.get("max_in_flight")
            if isinstance(advertised, bool) or not isinstance(advertised, int) or advertised < 1:
                raise EvaluatorFailure(f"handshake max_in_flight must be a positive integer: {reply}")
        except BaseException:
            self._kill()
            self._release()
            raise
        self._max_in_flight = advertised

    def _stderr_text(self) -> str:
        # pread leaves alone the file offset the child writes at.
        fd = self._stderr.fileno()
        return os.pread(fd, os.fstat(fd).st_size, 0).decode("utf-8", "replace").strip()

    def _send(self, obj: dict) -> None:
        try:
            self._child.stdin.write(json.dumps(obj).encode() + b"\n")
            self._child.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise EvaluatorFailure(
                f"evaluator child is not accepting requests ({e})", stderr=self._stderr_text()
            ) from e

    def _read_line(self) -> Optional[bytes]:
        """The child's next line, waited for at most the timeout, or None at
        end of file, where any bytes left are the last line. Lines stay bytes:
        ``_read_object`` decodes them, so bad UTF-8 is a protocol error."""
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        while b"\n" not in self._buffer:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic()) * 1000
            if not self._poll.poll(wait):
                raise EvaluatorFailure(
                    f"evaluator response timed out after {self._timeout}s",
                    stderr=self._stderr_text(),
                )
            chunk = os.read(self._child.stdout.fileno(), 65536)
            if not chunk:
                line, self._buffer = self._buffer, b""
                return line or None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    def _read_object(self) -> dict:
        line = self._read_line()
        if line is None:
            try:
                status = f"exited (code {self._child.wait(timeout=_EXIT_WAIT_S)})"
            except subprocess.TimeoutExpired:
                status = "closed its output"
            raise EvaluatorFailure(
                f"evaluator child {status} with {len(self._pending)} requests outstanding",
                stderr=self._stderr_text(),
            )
        # Refused as read_json refuses a file: not UTF-8 or JSON, a key repeated
        # within one object, an over-long int, deep nesting.
        try:
            obj = json.loads(line.decode("utf-8"), object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as e:
            raise EvaluatorFailure(f"malformed response line ({e}): {line.strip()!r}") from None
        if not isinstance(obj, dict):
            raise EvaluatorFailure(f"response must be a JSON object: {line.strip()!r}")
        return obj

    @property
    def max_in_flight(self) -> Optional[int]:
        return self._max_in_flight

    def submit(self, request: EvaluationRequest) -> None:
        if len(self._pending) >= self._max_in_flight:
            raise RuntimeError(
                f"submit() beyond the evaluator's pipeline depth ({self._max_in_flight})"
            )
        self._pending[request.sequence] = request
        self._send(
            {
                "id": request.sequence,
                "model": request.model.name,
                "split_seed": request.split_seed,
                "model_seed": request.model_seed,
            }
        )

    def collect(self) -> EvaluationScore:
        if not self._pending:
            raise RuntimeError("collect() with no pending requests")
        obj = self._read_object()
        rid = obj.get("id")
        # JSON true would otherwise match request 1, and a list is unhashable.
        if isinstance(rid, bool) or not isinstance(rid, int) or rid not in self._pending:
            raise EvaluatorFailure(f"response id {rid!r} does not match any outstanding request")
        request = self._pending.pop(rid)
        if "error" in obj:
            raise EvaluationError(request, str(obj["error"]))
        score = obj.get("score")
        if not _is_finite_number(score):
            raise EvaluatorFailure(f"response for id {rid} has no finite score: {obj}")
        return EvaluationScore(request=request, score=float(score))

    def pending(self) -> int:
        return len(self._pending)

    def _kill(self) -> None:
        if self._child.poll() is None:
            self._child.kill()
        self._child.wait()

    def _release(self) -> None:
        """Close the pipes and stderr file of the exited child."""
        try:
            self._child.stdin.close()
        except OSError:  # a flush into the dead child's pipe
            pass
        self._child.stdout.close()
        self._stderr.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._child.poll() is None:
            try:
                self._send({"shutdown": True})
                self._child.stdin.close()
            except (EvaluatorFailure, OSError):
                pass
            try:
                self._child.wait(timeout=_EXIT_WAIT_S)
            except subprocess.TimeoutExpired:
                self._kill()
        self._release()
