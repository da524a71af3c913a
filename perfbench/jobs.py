"""The three fixed workloads: job lists, the reason each was chosen, and
the reference check each job's output must pass.

A job is either a CLI invocation (``argv``, run in-process through
``gradeforge.cli.main``) or a call into the public API (``api``).  ``check``
names the reference in ``reference.py`` together with its parameters.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple, Optional

APERY_A = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],[8,12,6,1]],'
           '"n0":0,"initial":["1","5"]}')
APERY_B = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],[8,12,6,1]],'
           '"n0":0,"initial":["0","6"]}')
INV_PROD = '{"order":1,"coeffs":[["-1"],["1","0","1"]],"n0":0,"initial":["1"]}'
SQRT1P = '{"P":[[0,2,"1"],[0,0,"-1"],[1,0,"-1"]],"y0":"1"}'

# Descriptor tokens for each named sequence, and the reference sequence
# (reference.py) its terms are checked against.
SERIES = {
    "A": ("holonomic", APERY_A),
    "B": ("holonomic", APERY_B),
    "Q": ("holonomic", INV_PROD),
    "catalan": ("builtin", "catalan"),
    "central-binomial": ("builtin", "central-binomial"),
    "euler": ("builtin", "euler"),
    "exp": ("builtin", "exp"),
    "sqrt1p": ("algebraic", SQRT1P),
}


class Job(NamedTuple):
    name: str
    argv: Optional[tuple[str, ...]]   # CLI job
    api: Optional[tuple]              # API job: (function, *args)
    check: tuple                      # (reference kind, *params)


def _modp(name: str, p: int, r: int = 1) -> Job:
    kind, payload = SERIES[name]
    argv = ("modp", kind, payload, "--p", str(p))
    if r > 1:
        argv += ("--r", str(r))
    label = f"{name}-mod{p ** r}"
    return Job(label, argv + ("--json",), None, ("modp", name, p, r))


def _diagonal(name: str, order: int, square: bool = False) -> Job:
    kind, payload = SERIES[name]
    argv = ("diagonal", kind, payload, "--order", str(order))
    if square:
        argv += ("--square",)
    label = f"{name}{'-square' if square else ''}-o{order}"
    return Job(label, argv + ("--json",), None,
               ("diagonal", name, order, square))


def _hadamard(a: str, b: str, terms: int) -> Job:
    argv = ("hadamard", *SERIES[a], *SERIES[b], "--emit-recurrence",
            "--terms", str(terms), "--json")
    return Job(f"hadamard-{a}x{b}", argv, None, ("hadamard", a, b, terms))


def _expand(name: str, terms: int) -> Job:
    argv = ("expand", *SERIES[name], "--terms", str(terms), "--json")
    return Job(f"expand-{name}-{terms}", argv, None, ("expand", name, terms))


def _obstruct(name: str, terms: int) -> Job:
    argv = ("obstruct", *SERIES[name], "--terms", str(terms), "--json")
    return Job(f"obstruct-{name}-{terms}", argv, None,
               ("obstruct", name, terms))


def _guess(name: str, terms: int, order: int, degree: int) -> Job:
    return Job(f"guess-{name}", None, ("guess", name, terms, order, degree),
               ("guess", name, terms))


class Workload(NamedTuple):
    name: str
    why: str
    jobs: tuple[Job, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "residue-automata",
            "modp on five corpus branches: 99% of the time is "
            "algebraic.expand_branch, mostly _intpoly.conv on huge packed "
            "integers; kernel_closure stays under 1%",
            (
                _modp("catalan", 2),
                _modp("catalan", 2, 2),
                _modp("central-binomial", 2),
                _modp("central-binomial", 3),
                _modp("sqrt1p", 3),
            ),
        ),
        Workload(
            "diagonal-lift",
            "diagonal witnesses in 2 variables at order 12 and in 4 "
            "variables at orders 6-7: 96% of the time is "
            "diagonals.diagonal_extract",
            (
                _diagonal("catalan", 12),
                _diagonal("central-binomial", 12),
                _diagonal("catalan", 7, square=True),
                _diagonal("central-binomial", 6, square=True),
            ),
        ),
        Workload(
            "recurrence-scan",
            "holonomic closure, guessing, obstruction scans and big JSON "
            "output; never calls expand_branch or diagonal_extract",
            (
                _hadamard("A", "A", 300),
                _hadamard("B", "B", 300),
                _hadamard("A", "catalan", 300),
                _hadamard("B", "Q", 300),
                _hadamard("euler", "exp", 300),
                _expand("B", 1000),
                _obstruct("B", 800),
                _obstruct("Q", 250),
                _guess("A", 200, 3, 6),
                _guess("B", 200, 3, 6),
                _expand("euler", 1700),
            ),
        ),
    )
}


def pass_order(workload: Workload, seed: int) -> list[int]:
    """Job indices in the order one pass runs them; the seed only permutes."""
    order = list(range(len(workload.jobs)))
    random.Random(seed).shuffle(order)
    return order


def run_api(api: tuple) -> str:
    """Run an API job through the public gradeforge API; JSON result text."""
    from gradeforge import PRecurrence, guess_recurrence, holonomic

    fn, name, terms, order, degree = api
    if fn != "guess":
        raise ValueError(f"unknown API job {fn!r}")
    rec = PRecurrence.from_json_dict(json.loads(SERIES[name][1]))
    # Looked up on the module at call time, so a traced run sees the wrapper.
    found = guess_recurrence(holonomic.unroll(rec, terms), order, degree)
    return json.dumps(found.to_json_dict())
