"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/all.py [--seed N] [--seconds S]

Calls run.py once per workload with --trace 0 (end-to-end metrics) and once
with --trace 1 (per-layer metrics), shows each run's report, then prints
one line per metric: workload, name, value, unit.  Exits non-zero when a
run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    rows, ok = [], True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-3000:], file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rows.append((workload, "correct", result["correct"], ""))
            rows.append((workload, "failed/attempted",
                         f"{result['failed']}/{result['attempted']}", "jobs"))
            rows += [(workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items()]
    print("== all metrics")
    for workload, name, value, unit in rows:
        print(f"{workload:18} {name:48} {value!s:>24} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
