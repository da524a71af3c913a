#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against this checkout.

    python3 scripts/bench_pairs.py --parent REV --workload W [--workload W2]
        --pairs N --seed S --out FILE

Exports two trees with ``git archive`` into a temporary directory (under
$TMPDIR when set): REV, and the checkout's tracked files as they stand
(``git stash create``, or HEAD when nothing tracked is modified; untracked
files are left out).  Both sides thus run from a fresh export and neither
starts with a bytecode cache the other lacks.  Then, for each workload in
turn, it first runs one pass of every job in job order on each side
(``perfbench/passrun.py``, in the environment ``run.py`` gives its passes)
and compares each job's exit code and the sha256 of its output; a
difference is reported, not fatal, as a change may alter output on
purpose.  Then it runs the benchmark command of BENCHMARK.json
(``--trace 0`` with its ``run_seconds``) N times on each side,
alternating: pair i runs with seed S + i on both sides, and the side that
goes first swaps from one pair to the next.  After its pairs, each side
runs the workload once more with ``--trace 1`` at seed S, for the
per-layer counters.  Each run's
last stdout line is its JSON result.  FILE receives every run's metrics,
its attempted and failed job counts and its pass count (attempted over the
side's jobs per pass); per workload, end-to-end metric and side, the
median, the quartiles and the number of pairs that side won (ties count
for neither), and the verdict; per workload, the output comparison
(``outputs``: ``identical`` and the ``differing`` job names); per workload
and side, the median pass count and the traced run; and the tree id and the
line count of ``src/gradeforge/*.py`` (as ``wc -l`` counts it) of each
side.  The output comparison is printed, one line per workload.  The
per-layer counts (unit ``count``) that differ between the traced runs are
printed too.  The median pass counts and the line counts are printed too:
``run.py`` keeps every pass's outputs, so ``peak_rss_mb`` rises with the
number of passes a run fits.  The exports are removed at the end, also
when a run fails.

The verdict reads the metric's ``bound`` in BENCHMARK.json as a fraction
of the parent's median: ``worse`` when the change's median is worse than
the parent's by more than that; ``unresolved`` when the parent's quartile
spread exceeds it and not every change run beats every parent run; ``ok``
otherwise.

Standard library only; run from anywhere inside the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import runpy
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


def src_lines(root: Path) -> int:
    """Newlines in the tree's src/gradeforge/*.py: ``wc -l``'s total."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "gradeforge").glob("*.py"))


def jobs_per_pass(root: Path, workload: str) -> int:
    jobs = runpy.run_path(str(root / "perfbench" / "jobs.py"))
    return len(jobs["WORKLOADS"][workload].jobs)


def pass_jobs(root: Path, workload: str, jobs: int) -> list[dict]:
    """The job records of one pass over every job, in job order, run as
    ``run.py`` runs a pass: PYTHONPATH led by the tree's src, no user
    config file, CPython's default int/str limit."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    env.pop("GRADEFORGE_CONFIG", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    argv = [sys.executable, str(root / "perfbench" / "passrun.py"),
            "--workload", workload, "--order", ",".join(map(str, range(jobs)))]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)["jobs"]


def compare_outputs(parent: list[dict], change: list[dict]) -> dict:
    """The jobs, by name, whose exit code or output sha256 differs between
    two passes' job records (a job on one side only differs too)."""
    sides = [{job["name"]: (job["rc"],
                            hashlib.sha256(job["output"].encode()).hexdigest())
              for job in jobs} for jobs in (parent, change)]
    differing = [name for name in dict.fromkeys([*sides[0], *sides[1]])
                 if sides[0].get(name) != sides[1].get(name)]
    return {"identical": not differing, "differing": differing}


def run_once(root: Path, command: list[str], workload: str, seed: int,
             seconds: float, jobs: int, trace: int = 0) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    attempted, failed = result["attempted"], result["failed"]
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            "attempted": attempted, "failed": failed,
            "passes": attempted / jobs}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Medians, quartiles, wins and verdict per BENCHMARK.json metric."""
    out = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = -1 if metric["better"] == "lower" else 1
        entry = {"better": metric["better"]}
        for side, other in (("parent", "change"), ("change", "parent")):
            q1, median, q3 = statistics.quantiles(
                [r[side][name] for r in runs], n=4)
            wins = sum(sign * (r[side][name] - r[other][name]) > 0
                       for r in runs)
            entry[side] = {"median": median, "q1": q1, "q3": q3,
                           "wins": wins}
        parent, change = entry["parent"], entry["change"]
        slack = bound * abs(parent["median"])
        beats_all = (min(sign * r["change"][name] for r in runs)
                     > max(sign * r["parent"][name] for r in runs))
        if sign * (change["median"] - parent["median"]) < -slack:
            entry["verdict"] = "worse"
        elif parent["q3"] - parent["q1"] > slack and not beats_all:
            entry["verdict"] = "unresolved"
        else:
            entry["verdict"] = "ok"
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
    revs = {"parent": git("rev-parse", args.parent, cwd=checkout),
            "change": git("describe", "--always", "--dirty", "--abbrev=40",
                          cwd=checkout)}
    exported = {"parent": revs["parent"],
                "change": git("stash", "create", cwd=checkout)
                or git("rev-parse", "HEAD", cwd=checkout)}
    trees = {side: git("rev-parse", f"{rev}^{{tree}}", cwd=checkout)
             for side, rev in exported.items()}

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    roots = {side: tmp / side for side in exported}
    runs = {w: [] for w in args.workload}
    traced, outputs = {}, {}
    try:
        for side, rev in exported.items():
            archive = subprocess.run(["git", "archive", rev], cwd=checkout,
                                     check=True, capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(roots[side])
        lines = {side: src_lines(root) for side, root in roots.items()}
        for workload in args.workload:
            jobs = {side: jobs_per_pass(root, workload)
                    for side, root in roots.items()}
            outputs[workload] = compare_outputs(
                *(pass_jobs(roots[side], workload, jobs[side])
                  for side in exported))
            for i in range(args.pairs):
                seed = args.seed + i
                order = (("parent", "change") if i % 2 == 0
                         else ("change", "parent"))
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], spec["command"],
                                          workload, seed, seconds, jobs[side])
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(pair[side])}", flush=True)
                runs[workload].append(pair)
            traced[workload] = {
                side: run_once(root, spec["command"], workload, args.seed,
                               seconds, jobs[side], trace=1)
                for side, root in roots.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {"run_seconds": seconds, "pairs": args.pairs,
              "revisions": revs, "trees": trees, "src_lines": lines,
              "workloads": {
                  w: {"metrics": summary(r, spec["end_to_end"]),
                      "outputs": outputs[w],
                      "median_passes": {
                          side: statistics.median(p[side]["passes"] for p in r)
                          for side in exported},
                      "runs": r, "traced": traced[w]}
                  for w, r in runs.items()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"src/gradeforge/*.py lines: parent {lines['parent']}, "
          f"change {lines['change']}")
    for workload, entry in report["workloads"].items():
        differing = entry["outputs"]["differing"]
        print(f"{workload} outputs: " + (
            f"{len(differing)} jobs differ: {', '.join(differing)}"
            if differing else "every job's exit code and sha256 identical"))
        passes = entry["median_passes"]
        print(f"{workload} passes per run: parent median "
              f"{passes['parent']:.4g}, change median {passes['change']:.4g}")
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"{workload} {name}: parent {p['median']:.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}] change {c['median']:.4g} "
                  f"[{c['q1']:.4g}, {c['q3']:.4g}]; change won "
                  f"{c['wins']}/{args.pairs}; {m['verdict']}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            p, c = (entry["traced"][side].get(name, 0) for side in exported)
            if metric["unit"] == "count" and p != c:
                print(f"{workload} traced {name}: parent {p:.6g}, "
                      f"change {c:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
