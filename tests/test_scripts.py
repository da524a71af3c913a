"""The scripts under scripts/, each run in process through its main(argv)
with tiny arguments."""

import ast
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

import gradeforge.cli  # noqa: F401  (loads every package module)
from gradeforge import _intpoly, builtin_names

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows(out):
    """The table's rows below its header, split on whitespace."""
    return [line.split() for line in out.splitlines()[1:]]


def census_truncation(capsys, *argv):
    assert load("kernel_census").main(["--names", "catalan",
                                        "--moduli", "2", *argv]) == 0
    (row,) = rows(capsys.readouterr().out)
    assert row[:2] == ["catalan", "2"] and row[4] == "closed"
    return int(row[3])


def test_kernel_census_uses_the_length_without_a_depth(capsys):
    # the truncation is L·2^k at the closing depth k, whatever L is
    default = census_truncation(capsys)
    short = census_truncation(capsys, "--length", "8")
    assert default * 8 == short * 64
    assert short % 8 == 0 and (short // 8).bit_count() == 1


@pytest.mark.parametrize("flag", ["--max-depth", "--length"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_kernel_census_refuses_budgets_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        load("kernel_census").main(["--names", "catalan", "--moduli", "2",
                                    flag, value])
    assert info.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_obstruction_corpus_has_one_row_per_builtin(capsys):
    assert load("obstruction_corpus").main(
        ["--terms", "16", "--product", "catalan", "exp"]) == 0
    got = rows(capsys.readouterr().out)
    assert [r[0] for r in got] == [*builtin_names(), "catalan"]
    assert got[-1][:3] == ["catalan", "*", "exp"]
    verdicts = {r[0]: r[1] for r in got[:-1]}
    assert verdicts["catalan"] == "no-obstruction-found"
    assert verdicts["exp"] == "infinite-grade-evidence"


def test_euler_crosscheck_at_one_point(capsys):
    assert load("euler_crosscheck").main(["-z", "4.0"]) == 0
    (row,) = rows(capsys.readouterr().out)
    z, quad, branch, gap = row
    assert z == "4.000"
    assert abs(float(quad) - float(branch)) < 1e-8
    assert float(gap) < 1e-8


@pytest.mark.parametrize("script, argv, code", [
    ("obstruction_corpus", ["--window", "0"], 2),
    ("obstruction_corpus", ["--terms", "0"], 2),
    ("euler_crosscheck", ["-z", "-1"], 3),
    ("kernel_census", ["--moduli", "6"], 2),
    ("kernel_census", ["--moduli", "1"], 2),
])
def test_scripts_exit_like_the_cli_on_package_errors(capsys, script, argv,
                                                      code):
    assert load(script).main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_kernel_census_refuses_a_large_prime_modulus_at_once(capsys):
    # trial division stops at √m, 10^6 steps here rather than 10^12, and
    # the report's term cap then refuses q = m before any residue is drawn
    start = time.perf_counter()
    assert load("kernel_census").main(["--names", "catalan",
                                        "--moduli", "1000000000039"]) == 4
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("error: residue reports are capped at ")


def test_kernel_census_refuses_an_unknown_name(capsys):
    with pytest.raises(SystemExit) as info:
        load("kernel_census").main(["--names", "nope", "--moduli", "2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --names: invalid choice: 'nope'" in err
    assert "Traceback" not in err


def test_bench_pairs_counts_source_lines_as_wc_does(tmp_path):
    package = tmp_path / "src" / "gradeforge"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n\n")
    (package / "b.py").write_text("z = 3\nno_final_newline = 4")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    # wc -l counts newlines, so b.py's unterminated last line is not one
    assert load("bench_pairs").src_lines(tmp_path) == 4


def test_bench_pairs_verdicts():
    # four pairs; a metric's bound is a fraction of the parent's median
    parent = {"a": [1.0] * 4, "b": [1.0] * 4, "c": [1, 1, 2, 2],
              "d": [1, 1, 2, 2], "e": [1.0] * 4}
    change = {"a": [1.2] * 4, "b": [1.3] * 4, "c": [1.5] * 4,
              "d": [0.9] * 4, "e": [0.9] * 4}
    runs = [{side: {k: v[i] for k, v in values.items()}
             for side, values in (("parent", parent), ("change", change))}
            for i in range(4)]
    metrics = [{"name": k, "better": "lower", "bound": 0.25} for k in "abcd"]
    metrics.append({"name": "e", "better": "higher", "bound": 0.05})
    got = load("bench_pairs").summary(runs, metrics)
    assert {k: m["verdict"] for k, m in got.items()} == {
        "a": "ok",          # 20% worse, inside the 25% bound
        "b": "worse",       # 30% worse
        "c": "unresolved",  # parent spread 1 over median 1.5; no clear win
        "d": "ok",          # same spread, but every change run is better
        "e": "worse",       # higher is better: 10% lower
    }
    assert got["c"]["parent"] == {"median": 1.5, "q1": 1, "q3": 2,
                                  "wins": 2}


def test_bench_pairs_compares_exit_codes_and_outputs():
    compare = load("bench_pairs").compare_outputs
    parent = [{"name": "a", "rc": 0, "output": "1\n", "seconds": 1.0},
              {"name": "b", "rc": 2, "output": "", "seconds": 1.0}]

    def change(**edits):
        jobs = [dict(job, seconds=2.0) for job in parent]  # times never count
        for name, edit in edits.items():
            next(job for job in jobs if job["name"] == name).update(edit)
        return jobs

    assert compare(parent, change()) == {"identical": True, "differing": []}
    assert compare(parent, change(a={"output": "2\n"})) == {
        "identical": False, "differing": ["a"]}
    assert compare(parent, change(b={"rc": 0})) == {
        "identical": False, "differing": ["b"]}


def test_benchmark_hooks_resolve_in_the_package(monkeypatch):
    # The traced benchmark pass rebinds these functions and reads the
    # schoolbook cutoff; a rename would otherwise fail only there.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ as is
    targets = load("tracing", PERFBENCH).Tracer().targets()
    for module, func, _, _ in targets:
        owner = importlib.import_module(f"gradeforge.{module}")
        assert callable(getattr(owner, func, None)), (module, func)
    assert isinstance(_intpoly._SCHOOLBOOK_CUTOFF, int)
    for name in ("passrun", "jobs", "reference"):
        tree = ast.parse((PERFBENCH / f"{name}.py").read_text())
        imports = [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "gradeforge"
                   for alias in node.names]
        assert imports, name
        for module, attr in imports:
            assert hasattr(importlib.import_module(module), attr), (
                name, module, attr)
