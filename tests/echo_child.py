"""Scripted evaluator child for wire-protocol tests.

Speaks the line-delimited JSON protocol on stdin/stdout. Behavior knobs:

  --max-in-flight K   advertised pipeline depth (default 4)
  --reorder           buffer up to K requests, answer them newest-first
  --delay-ms N        sleep before each response
  --crash-after N     exit(3) after N responses, leaving requests unanswered
  --stderr-kib K      write K KiB to stderr before the --crash-after crash
  --error-model NAME  answer every request for NAME with an error
  --flaky             answer the first attempt of every id with an error,
                      succeed on the retry
  --wrong-id          answer with id+1 (protocol violation)
  --id-json VALUE     answer with this JSON value as the id (protocol violation)
  --raw-reply HEX     answer with these bytes (hex-encoded) and a newline,
                      whatever they are (e.g. not UTF-8), and stay alive
  --bad-handshake     reply nonsense to the handshake
  --const-score X     fixed score instead of the id hash

Scores default to a deterministic hash of the request id so the parent can
verify that no response was attributed to the wrong request.
"""

import argparse
import json
import os
import select
import sys
import time


def score_for(rid: int) -> float:
    return ((rid * 2654435761) % 2**32) / 2**32


def stdin_events(idle_timeout: float):
    """Yield ('line', bytes), ('idle', None) on quiet pipe, ('eof', None)."""
    buf = b""
    fd = sys.stdin.fileno()
    while True:
        nl = buf.find(b"\n")
        if nl >= 0:
            line, buf = buf[:nl], buf[nl + 1:]
            yield ("line", line)
            continue
        ready, _, _ = select.select([fd], [], [], idle_timeout)
        if not ready:
            yield ("idle", None)
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            yield ("eof", None)
            return
        buf += chunk


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-in-flight", type=int, default=4)
    ap.add_argument("--reorder", action="store_true")
    ap.add_argument("--delay-ms", type=int, default=0)
    ap.add_argument("--crash-after", type=int, default=None)
    ap.add_argument("--stderr-kib", type=int, default=0)
    ap.add_argument("--error-model", default=None)
    ap.add_argument("--flaky", action="store_true")
    ap.add_argument("--wrong-id", action="store_true")
    ap.add_argument("--id-json", default=None)
    ap.add_argument("--raw-reply", type=bytes.fromhex, default=None)
    ap.add_argument("--bad-handshake", action="store_true")
    ap.add_argument("--const-score", type=float, default=None)
    args = ap.parse_args()

    responded = 0
    seen_ids = set()
    pending = []

    def send(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    def answer(req):
        nonlocal responded
        if args.crash_after is not None and responded >= args.crash_after:
            for _ in range(args.stderr_kib):
                print("x" * 1023, file=sys.stderr)
            print("boom: simulated crash", file=sys.stderr, flush=True)
            os._exit(3)
        if args.delay_ms:
            time.sleep(args.delay_ms / 1000.0)
        rid = req["id"]
        first_attempt = rid not in seen_ids
        seen_ids.add(rid)
        if args.error_model is not None and req["model"] == args.error_model:
            send({"id": rid, "error": "OOM"})
        elif args.flaky and first_attempt:
            send({"id": rid, "error": "transient failure"})
        elif args.wrong_id:
            send({"id": rid + 1, "score": 0.5})
        elif args.id_json is not None:
            send({"id": json.loads(args.id_json), "score": 0.5})
        elif args.raw_reply is not None:
            sys.stdout.buffer.write(args.raw_reply + b"\n")
            sys.stdout.buffer.flush()
        else:
            score = args.const_score if args.const_score is not None else score_for(rid)
            send({"id": rid, "score": score})
        responded += 1

    def flush():
        batch = list(reversed(pending)) if args.reorder else list(pending)
        pending.clear()
        for req in batch:
            answer(req)

    handshaken = False
    for kind, line in stdin_events(0.02):
        if kind == "idle":
            flush()
            continue
        if kind == "eof":
            flush()
            return 0
        obj = json.loads(line)
        if not handshaken:
            handshaken = True
            assert obj.get("fiesta_protocol") == 1, f"bad handshake: {obj}"
            if args.bad_handshake:
                send({"ok": False, "reason": "scripted rejection"})
            else:
                send({"ok": True, "max_in_flight": args.max_in_flight})
            continue
        if obj.get("shutdown"):
            flush()
            return 0
        pending.append(obj)
        if not args.reorder or len(pending) >= args.max_in_flight:
            flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
