#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against this checkout.

    python3 scripts/bench_pairs.py --parent REV --workload W [--workload W2]
        --pairs N --seed S --out FILE

Exports REV with ``git archive`` into a temporary directory (under $TMPDIR
when set), then, for each workload in turn, runs the benchmark command of
BENCHMARK.json (``--trace 0`` with its ``run_seconds``) N times on each
side, alternating:
pair i runs with seed S + i on both sides, and the side that goes first
swaps from one pair to the next.  Each run's last stdout line is its JSON
result.  FILE receives every run's metrics and, per workload, end-to-end
metric and side, the median, the quartiles and the number of pairs that
side won (ties count for neither).  The export is removed at the end,
also when a run fails.

Standard library only; run from anywhere inside the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(root: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        sign = -1 if direction == "lower" else 1
        entry = {"better": direction}
        for side, other in (("parent", "change"), ("change", "parent")):
            q1, median, q3 = statistics.quantiles(
                [r[side][name] for r in runs], n=4)
            wins = sum(sign * (r[side][name] - r[other][name]) > 0
                       for r in runs)
            entry[side] = {"median": median, "q1": q1, "q3": q3,
                           "wins": wins}
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    checkout = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    spec = json.loads((checkout / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    revs = {"parent": git("rev-parse", args.parent, cwd=checkout),
            "change": git("describe", "--always", "--dirty", "--abbrev=40",
                          cwd=checkout)}

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    runs = {w: [] for w in args.workload}
    try:
        archive = subprocess.run(["git", "archive", revs["parent"]],
                                 cwd=checkout, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent")
        roots = {"parent": tmp / "parent", "change": checkout}
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.seed + i
                order = (("parent", "change") if i % 2 == 0
                         else ("change", "parent"))
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], spec["command"],
                                          workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(pair[side])}", flush=True)
                runs[workload].append(pair)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {"run_seconds": seconds, "pairs": args.pairs,
              "revisions": revs, "workloads": {
                  w: {"metrics": summary(r, better), "runs": r}
                  for w, r in runs.items()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"{workload} {name}: parent {p['median']:.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}] change {c['median']:.4g} "
                  f"[{c['q1']:.4g}, {c['q3']:.4g}]; change won "
                  f"{c['wins']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
