"""Deterministic evaluator child for the benchmark's subprocess workload.

Speaks bestarm's line-delimited JSON evaluator protocol on stdin/stdout,
using only the standard library:

    python3 exec_child.py ARMS_JSON

ARMS_JSON is a synthetic arm file of Gaussian arms. Each score is a Gaussian
draw from the named arm, seeded by ``(model, split_seed, model_seed)`` alone,
so a campaign's scores do not depend on timing. Requests are answered one by
one in the order they arrive; the handshake advertises a pipeline depth of 8.
"""

import json
import random
import sys

MAX_IN_FLIGHT = 8


def score(arm: dict, model: str, split_seed: int, model_seed: int) -> float:
    # A str seed is hashed with SHA-512, so the draw is the same in every process.
    rng = random.Random(f"{model}|{split_seed}|{model_seed}")
    return rng.gauss(arm["mean"], arm["sd"])


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: exec_child.py ARMS_JSON", file=sys.stderr)
        return 1
    with open(argv[1], "r", encoding="utf-8") as fh:
        arms = {a["name"]: a for a in json.load(fh)}

    def send(obj: dict) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    hello = json.loads(sys.stdin.readline() or "{}")
    unknown = [m for m in hello.get("models", []) if m not in arms]
    if hello.get("fiesta_protocol") != 1 or unknown:
        send({"ok": False, "reason": f"bad handshake or unknown models {unknown}"})
        return 1
    send({"ok": True, "max_in_flight": MAX_IN_FLIGHT})

    for line in sys.stdin:
        req = json.loads(line)
        if req.get("shutdown"):
            return 0
        arm = arms.get(req["model"])
        if arm is None:
            send({"id": req["id"], "error": f"unknown model {req['model']!r}"})
        else:
            send({"id": req["id"],
                  "score": score(arm, req["model"], req["split_seed"], req["model_seed"])})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
