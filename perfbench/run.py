"""gradeforge benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop: one job at a time, no threads.

--trace 0 measures set-up time (fresh interpreters running
``python -m gradeforge.cli --show-config``), then runs passes over the
workload's job list, each pass in a fresh interpreter, until S seconds are
used (at least three passes).  --trace 1 runs one untraced pass with the
scaling probes and two traced passes in different job orders, whose exact
counters must agree.  Every job's output is checked against references in
reference.py.

Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics, holding the end_to_end
metrics of BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS, pass_order
from reference import References

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_RUNS = 5
IMPORT_RUNS = 3
PASS_TIMEOUT_S = 170
# No new pass starts once this much of a run is used, whatever --seconds says.
RUN_CAP_S = 120
IMPORTED_MODULES = ("gradeforge", "gradeforge.analytic", "numpy")


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    # Defaults only: no user config file, CPython's default int/str limit.
    env.pop("GRADEFORGE_CONFIG", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError(f"{args[:3]} did not finish in {timeout} s") from exc


def run_pass(workload: str, order: list[int], *flags: str) -> dict:
    proc = run_child([str(HERE / "passrun.py"), "--workload", workload,
                      "--order", ",".join(map(str, order)), *flags],
                     PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def measure_setup() -> float:
    t0 = perf_counter()
    proc = run_child(["-m", "gradeforge.cli", "--show-config"], 60)
    seconds = perf_counter() - t0
    if proc.returncode != 0 or "fingerprint_length" not in proc.stdout:
        raise BenchError(f"--show-config failed:\n{proc.stderr[-3000:]}")
    return seconds


def import_times() -> dict[str, float]:
    """Cumulative first-import seconds per module, from -X importtime."""
    proc = run_child(["-X", "importtime", "-m", "gradeforge.cli",
                      "--show-config"], 60)
    if proc.returncode != 0:
        raise BenchError(f"-X importtime failed:\n{proc.stderr[-3000:]}")
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name in IMPORTED_MODULES:
                found[name] = int(parts[1]) / 1e6
    return {f"setup.import.{m}_s": found.get(m, 0.0) for m in IMPORTED_MODULES}


# -- summaries ------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(values, n=1000)[round(pct * 10) - 1]
            return f"p{pct:g}={cut:.4f} (n={n})"
    return f"none (n={n}; p50 needs 20 samples)"


def score(passes: list[dict], workload, refs: References):
    """(attempted, failed, mismatches) over every job of every pass."""
    jobs = {j.name: j for j in workload.jobs}
    attempted, failed, mismatches = 0, 0, []
    for p in passes:
        for r in p["jobs"]:
            attempted += 1
            if r["rc"] != 0:
                failed += 1
                continue
            found = refs.verdict(jobs[r["name"]], r["output"])
            if found is not None:
                failed += 1
                mismatches.append(f"{r['name']}: {found}")
    return attempted, failed, mismatches


def report_failures(passes: list[dict], mismatches: list[str]) -> None:
    seen = set()
    for p in passes:
        for r in p["jobs"]:
            if r["rc"] != 0 and r["name"] not in seen:
                seen.add(r["name"])
                last = (r["stderr"].strip().splitlines() or [""])[-1]
                print(f"job {r['name']} exited {r['rc']}: {last[:200]}")
    for m in sorted(set(mismatches)):
        print(f"job output mismatch: {m}")


def machine() -> str:
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"gmpy2={'present' if find_spec('gmpy2') else 'absent'} "
            f"({platform.machine()})")


# -- the two kinds of run ---------------------------------------------------------

def untraced(workload, seed: int, seconds: float, refs: References,
             names: list[str]):
    setup = [measure_setup() for _ in range(SETUP_RUNS)]
    order = pass_order(workload, seed)
    passes = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload.name, order))
        cost = perf_counter() - t0
        used = perf_counter() - t_start
        if used + cost > RUN_CAP_S:
            break
        if len(passes) >= MIN_PASSES and used + cost > seconds:
            break
    OUT.mkdir(exist_ok=True)
    record = OUT / f"passes-{workload.name}-seed{seed}.json"
    record.write_text(json.dumps([
        {**p, "jobs": [{k: v for k, v in r.items() if k != "output"}
                       for r in p["jobs"]]} for p in passes]))
    walls = [p["wall_s"] for p in passes]
    calibrated = [p["wall_calib"] for p in passes]
    attempted, failed, mismatches = score(passes, workload, refs)

    print(f"passes: {len(passes)} in {perf_counter() - t_start:.1f} s, "
          f"job order {[workload.jobs[i].name for i in order]}")
    for name, values, unit in (("wall_s", walls, "s"),
                               ("wall_calib", calibrated, "calib")):
        q1, med, q3 = quartiles(values)
        print(f"{name} per pass ({unit}): median={med:.4f} q1={q1:.4f} "
              f"q3={q3:.4f} tail {tail(values)}")
    calib = [c for p in passes for c in p["calib_s"]]
    print(f"calibration kernel: median {statistics.median(calib):.4f} s, "
          f"range {min(calib):.4f}-{max(calib):.4f} s (n={len(calib)})")
    for i in order:
        name = workload.jobs[i].name
        times = [r["seconds"] for p in passes for r in p["jobs"]
                 if r["name"] == name]
        print(f"  job {name}: median {statistics.median(times):.4f} s")
    s1, smed, s3 = quartiles(setup)
    print(f"setup_s: median={smed:.4f} q1={s1:.4f} q3={s3:.4f} "
          f"(n={len(setup)})")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    report_failures(passes, mismatches)
    metrics = {
        "wall_calib": statistics.median(calibrated),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "success_rate": (attempted - failed) / attempted,
    }
    return ({n: metrics[n] for n in names}, attempted, failed,
            not mismatches)


def is_counter(name: str) -> bool:
    return not name.endswith(("_s", "_ratio", "_exp"))


def traced(workload, seed: int, refs: References, names: list[str]):
    imports = [import_times() for _ in range(IMPORT_RUNS)]
    order = pass_order(workload, seed)
    plain = run_pass(workload.name, order, "--probes")
    OUT.mkdir(exist_ok=True)
    runs = []
    for tag, run_order in (("a", order), ("b", order[::-1])):
        spans = OUT / f"spans-{workload.name}-seed{seed}-{tag}.tsv.gz"
        runs.append(run_pass(workload.name, run_order, "--trace", str(spans)))
        print(f"spans written to {spans.relative_to(ROOT)}")
    attempted, failed, mismatches = score([plain, *runs], workload, refs)

    first, second = (r["layers"] for r in runs)
    drift = sorted(k for k in set(first) | set(second)
                   if is_counter(k) and first.get(k, 0) != second.get(k, 0))
    for k in drift:
        print(f"counter differs between traced passes: {k} "
              f"{first.get(k, 0)} != {second.get(k, 0)}")

    def layer(name: str) -> float:
        values = [r["layers"].get(name, 0) for r in runs]
        return values[0] if is_counter(name) else float(statistics.median(values))

    metrics = {m: statistics.median(i[m] for i in imports)
               for m in imports[0]}
    metrics.update(plain["probes"])
    metrics.pop("points")
    traced_wall = statistics.median(r["wall_s"] for r in runs)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]
    expanded = layer("automata.christol_report.terms_expanded")
    metrics["automata.christol_report.useful_ratio"] = (
        layer("automata.christol_report.useful_terms") / expanded
        if expanded else 0.0)

    print(f"untraced pass wall {plain['wall_s']:.4f} s, traced passes "
          f"{[round(r['wall_s'], 4) for r in runs]}, overhead "
          f"{metrics['trace.overhead_s']:.4f} s")
    print(f"scaling points: {json.dumps(plain['probes']['points'])}")
    spanned = {k.rsplit(".", 1)[0] for k in first if k.endswith(".busy_s")}
    busy = sorted(((layer(f"{n}.busy_s"), layer(f"{n}.self_s"), n)
                   for n in spanned), reverse=True)
    print("layer busy_s / self_s / share of traced wall:")
    for b, s, n in busy:
        print(f"  {n}: {b:.4f} / {s:.4f} / {b / traced_wall:.1%}")
    if busy:
        top = max(busy, key=lambda x: x[1])
        print(f"largest self time: {top[2]} ({top[1]:.4f} s)")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    report_failures([plain, *runs], mismatches)
    values = {n: metrics[n] if n in metrics else layer(n) for n in names}
    return values, attempted, failed, not mismatches and not drift


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gradeforge" / "__init__.py").is_file():
        print(f"error: no gradeforge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    refs = References(ROOT)
    print(machine())
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    try:
        if args.trace:
            values, attempted, failed, correct = traced(
                workload, args.seed, refs, names)
        else:
            values, attempted, failed, correct = untraced(
                workload, args.seed, args.seconds, refs, names)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
