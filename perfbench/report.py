"""Run every workload, untraced and then traced, and print all metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints each run's own report, then one table of every metric by workload:
the end-to-end metrics with ``fail_rate`` (failed over attempted campaigns,
which is not a BENCHMARK.json metric because it reads 0 when all is well),
then the per-layer metrics. Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    tables: dict[int, dict[str, dict]] = {0: {}, 1: {}}
    ok = True
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if trace == 0:
                metrics["fail_rate"] = {"value": result["failed"] / result["attempted"],
                                        "unit": "ratio"}
            tables[trace][name] = metrics

    for trace, title in ((0, "end-to-end (--trace 0)"), (1, "per layer (--trace 1)")):
        runs = tables[trace]
        print(f"\n{title}, seed {args.seed}, {args.seconds:g} s per run")
        print(f"{'metric':40s} {'unit':>10s}" + "".join(f" {w:>16s}" for w in runs))
        names = next(iter(runs.values()), {})
        for metric, first in names.items():
            row = "".join(f" {runs[w][metric]['value']:16.6g}" for w in runs)
            print(f"{metric:40s} {first['unit']:>10s}{row}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
