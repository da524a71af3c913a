"""Batch command-line surface.

Subcommands: expand, hadamard, obstruct, modp, diagonal, euler, optics.
Every command accepts --json (stable machine output) or --table (human
rendering of the same data; the default).  Exit codes: 0 success,
2 malformed input, 3 violated mathematical precondition, 4 exhausted
budget, each taken from the class of the package error; any other
exception is a defect and exits 1.  GRADEFORGE_CONFIG may name a JSON file
overriding defaults, which become the flag defaults; --show-config prints
the effective configuration.  A run whose first argument names a
subcommand builds the parser of that subcommand alone; any other run builds
the parser of all seven.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .algebraic import Annihilator, branch_recurrence
from .analytic import QuadratureConfig, euler_report, optics_identity_check
from .automata import KernelBudgets, automaton_dot, christol_report
from .catalog import builtin_names
from .config import Defaults, load_defaults
from .descriptors import KINDS, coeffs_json, expand_series, read_series
from .diagonals import diagonal_witness, product_witness
from .errors import GradeforgeError, SchemaError
from .holonomic import PRecurrence, hadamard_recurrence
from .obstruction import is_prime, obstruction_report
from .polynomials import rows_text
from .rationals import (
    coerce_rational,
    format_rational,
    integers_of_any_size,
    read_json_arg,
)
from .series import hadamard_mul


# -- shared helpers -----------------------------------------------------------

def _annihilator_of(obj) -> Annihilator:
    if isinstance(obj, Annihilator):
        return obj
    raise SchemaError(
        "this command needs an algebraic branch: pass an 'algebraic' "
        "descriptor or a builtin that is an annihilator"
    )


def _recurrence_of(obj) -> PRecurrence:
    if isinstance(obj, PRecurrence):
        return obj
    if isinstance(obj, Annihilator):
        return branch_recurrence(obj)
    raise SchemaError(
        "--emit-recurrence needs a holonomic or algebraic descriptor, or a "
        "builtin of either kind, on both sides"
    )


# -- command handlers ---------------------------------------------------------

def _cmd_expand(args, cfg: Defaults) -> dict:
    series = expand_series(read_series(args.kind, args.payload), args.terms)
    return coeffs_json(series)


def _cmd_hadamard(args, cfg: Defaults) -> dict:
    a = read_series(args.kind_a, args.payload_a)
    b = read_series(args.kind_b, args.payload_b)
    if args.emit_recurrence:  # an algebraic factor is derived once
        a, b = _recurrence_of(a), _recurrence_of(b)
    product = hadamard_mul(
        expand_series(a, args.terms), expand_series(b, args.terms)
    )
    data = coeffs_json(product)
    if args.emit_recurrence:
        data["recurrence"] = hadamard_recurrence(a, b).to_json_dict()
    return data


def _cmd_obstruct(args, cfg: Defaults) -> dict:
    f = expand_series(read_series(args.kind, args.payload), args.terms)
    report = obstruction_report(
        f,
        window=args.window,
        max_period=args.max_period,
        zero_threshold=cfg.zero_threshold,
        positive_threshold=cfg.positive_threshold,
    )
    return report.to_json_dict()


def _cmd_modp(args, cfg: Defaults) -> dict:
    if not is_prime(args.p):
        raise SchemaError("--p must be a prime")
    q = args.base if args.base is not None else args.p
    ann = _annihilator_of(read_series(args.kind, args.payload))
    budgets = KernelBudgets(
        max_states=args.max_states,
        max_depth=(
            args.depth if args.depth is not None else cfg.depth_for_base(q)
        ),
        fingerprint_length=args.fingerprint_length,
    )
    aut = christol_report(ann, args.p, args.r, q=q, budgets=budgets)
    return {"p": args.p, "r": args.r, "q": aut.q, "status": aut.status,
            "state_count": len(aut.states),
            "consistent": aut.status == "closed",
            "automaton": aut.to_json_dict()}


def _cmd_diagonal(args, cfg: Defaults) -> dict:
    ann = _annihilator_of(read_series(args.kind, args.payload))
    witness = diagonal_witness(ann, verified_order=args.order)
    if args.square:
        witness = product_witness([witness, witness])
    diag = witness.diagonal(witness.verified_order)
    return {
        "witness": witness.to_json_dict(),
        "diagonal": [format_rational(c) for c in diag.coeffs],
    }


def _cmd_euler(args, cfg: Defaults) -> dict:
    quad = QuadratureConfig(nodes=args.nodes, tolerance=args.tolerance)
    return euler_report(args.z, quad, args.terms)


def _parse_plates(arg: str) -> list[tuple[Fraction, Fraction]]:
    rows = read_json_arg(arg, "plate list")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("plates must be a nonempty list of [a, n] pairs")
    plates = []
    for row in rows:
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(
                "each plate must be [weight, index] with rational entries"
            )
        plates.append(tuple(coerce_rational(v) for v in row))
    return plates


def _cmd_optics(args, cfg: Defaults) -> dict:
    series = expand_series(read_series(args.kind, args.payload), args.terms)
    plates = _parse_plates(args.plates)
    gap = optics_identity_check(plates, series, args.terms)
    return {
        "order": args.terms,
        "plates": len(plates),
        "exact": True,
        "discrepancy": format_rational(gap),
    }


# -- table renderers ----------------------------------------------------------

def _table_coeffs(data: dict) -> str:
    lines = [f"{n}\t{c}" for n, c in enumerate(data["coeffs"])]
    if "recurrence" in data:
        rec = data["recurrence"]
        lines.append("")
        lines.append(f"recurrence of order {rec['order']}, base index {rec['n0']}")
        for i, dense in enumerate(rec["coeffs"]):
            rows = [[k, c] for k, c in enumerate(dense) if c != "0"]
            lines.append(f"  p_{i}(n) = {rows_text(rows, ['n'])}")
        lines.append(f"  initial: {' '.join(rec['initial'])}")
    return "\n".join(lines)


def _table_obstruct(data: dict) -> str:
    lines = [f"verdict      {data['verdict']}",
             f"truncation   {data['truncation']}"]
    support = " ".join(f"{p}@{idx}" for p, idx in data["prime_support"])
    lines.append(f"prime support  {support or '(none)'}")
    if "prime_incomplete" in data:
        lines.append(f"incomplete   {' '.join(map(str, data['prime_incomplete']))}")
    radius = data["radius"]
    beta = "n/a" if radius["beta"] is None else f"{radius['beta']:.4f}"
    lines.append(f"radius fit   beta={beta}  class={radius['class']}")
    period = data["periodicity"]
    extra = {k: v for k, v in period.items() if k != "kind"}
    detail = "  ".join(f"{k}={v}" for k, v in extra.items())
    lines.append(f"periodicity  {period['kind']}{('  ' + detail) if detail else ''}")
    return "\n".join(lines)


def _table_modp(data: dict) -> str:
    lines = [
        f"p^r          {data['p']}^{data['r']}",
        f"base         {data['q']}",
        f"status       {data['status']}",
        f"states       {len(data['automaton']['states'])}",
        f"fingerprint  {data['automaton']['fingerprint_length']} terms "
        f"(truncation {data['automaton']['truncation']})",
    ]
    for st in data["automaton"]["states"]:
        arrows = " ".join(
            f"{d}->{'?' if t is None else t}"
            for d, t in enumerate(st["transitions"])
        )
        lines.append(
            f"  state {st['id']}: rep (k={st['k']}, j={st['j']}) "
            f"hash {st['fingerprint_hash']}  {arrows}"
        )
    return "\n".join(lines)


def _table_diagonal(data: dict) -> str:
    w = data["witness"]
    names = (["x", "y"] if w["d"] == 1
             else [f"{v}{i}" for i in range(1, w["d"] + 1) for v in "xy"])
    lines = [
        f"factors         {w['d']}",
        f"verified order  {w['verified_order']}",
        f"constant shift  {w['constant_shift']}",
        f"numerator       {rows_text(w['R']['num'], names)}",
        f"denominator     {rows_text(w['R']['den'], names)}",
        "diagonal        " + " ".join(data["diagonal"]),
    ]
    return "\n".join(lines)


def _table_euler(data: dict) -> str:
    return "\n".join([
        f"value           {data['value']:.12f}",
        f"error estimate  {data['error_estimate']:.3e}",
        f"reference       {data['reference']:.12f}",
        f"discrepancy     {data['discrepancy']:.3e}",
        f"method          {data['method']}",
        f"branch offset   {data['branch_offset']:.6e}",
    ])


def _table_optics(data: dict) -> str:
    return "\n".join([
        f"order        {data['order']}",
        f"plates       {data['plates']}",
        f"exact        {'yes' if data['exact'] else 'no'}",
        f"discrepancy  {data['discrepancy']}",
    ])


# -- parser -------------------------------------------------------------------

_DESCRIPTOR_HELP = (
    f"descriptor: KIND PAYLOAD, where KIND is one of {', '.join(KINDS)}; "
    "PAYLOAD is inline JSON, @file, or a builtin name "
    f"({', '.join(builtin_names())})"
)


def _add_output_flags(sp):
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="machine-readable output")
    group.add_argument("--table", action="store_true",
                       help="human-readable output (default)")
    return group


class _AtLeast(argparse.Action):
    """Integer flag; a value below `least` is a SchemaError (exit 2).  Not a
    ``type=`` callable, whose errors argparse turns into its own exit."""

    def __init__(self, *args, least: int = 1, **kwargs):
        super().__init__(*args, type=int, **kwargs)
        self.least = least

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.least:
            raise SchemaError(f"{option_string} must be at least {self.least}")
        setattr(namespace, self.dest, value)


def _add_descriptor(sp, suffix: str = ""):
    sp.add_argument(f"kind{suffix}", metavar=f"KIND{suffix.upper()}",
                    help=_DESCRIPTOR_HELP if not suffix else argparse.SUPPRESS)
    sp.add_argument(f"payload{suffix}", metavar=f"PAYLOAD{suffix.upper()}")


def _expand_arguments(sp, cfg: Defaults):
    _add_descriptor(sp)
    sp.add_argument("--terms", action=_AtLeast, default=cfg.terms,
                    help="coefficient count")
    _add_output_flags(sp)


def _hadamard_arguments(sp, cfg: Defaults):
    _add_descriptor(sp, "_a")
    _add_descriptor(sp, "_b")
    sp.add_argument("--terms", action=_AtLeast, default=cfg.terms)
    sp.add_argument("--emit-recurrence", action="store_true",
                    help="also derive the product recurrence "
                         "(holonomic and algebraic inputs)")
    _add_output_flags(sp)


def _obstruct_arguments(sp, cfg: Defaults):
    _add_descriptor(sp)
    sp.add_argument("--terms", action=_AtLeast, default=cfg.terms)
    sp.add_argument("--window", action=_AtLeast, default=cfg.window,
                    help="tail window for the prime-support scan")
    sp.add_argument("--max-period", action=_AtLeast, default=cfg.max_period,
                    help="largest sign period to test")
    _add_output_flags(sp)


def _modp_arguments(sp, cfg: Defaults):
    _add_descriptor(sp)
    sp.add_argument("--p", type=int, required=True, help="prime modulus base")
    sp.add_argument("--r", action=_AtLeast, default=1,
                    help="power of p (default 1)")
    sp.add_argument("--base", action=_AtLeast, least=2,
                    help="kernel digit base q (default: p)")
    sp.add_argument("--max-states", action=_AtLeast, default=cfg.max_states)
    sp.add_argument("--depth", action=_AtLeast,
                    help="kernel depth budget (default: scaled to the base)")
    sp.add_argument("--fingerprint-length", action=_AtLeast,
                    default=cfg.fingerprint_length)
    _add_output_flags(sp).add_argument(
        "--dot", action="store_true",
        help="graphviz DOT output of the automaton")


def _diagonal_arguments(sp, cfg: Defaults):
    _add_descriptor(sp)
    sp.add_argument("--order", action=_AtLeast, default=cfg.diagonal_order,
                    help="verification order")
    sp.add_argument("--square", action="store_true",
                    help="lift the Hadamard square (4 variables)")
    _add_output_flags(sp)


def _euler_arguments(sp, cfg: Defaults):
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--nodes", type=int, default=cfg.laguerre_nodes,
                    help="Gauss-Laguerre node count")
    sp.add_argument("--tolerance", type=float, default=cfg.quad_tolerance)
    sp.add_argument("--terms", action=_AtLeast, default=cfg.branch_terms,
                    help="branch-formula series terms")
    _add_output_flags(sp)


def _optics_arguments(sp, cfg: Defaults):
    _add_descriptor(sp)
    sp.add_argument("--plates", required=True,
                    help='JSON [[weight, index], ...] or @file')
    sp.add_argument("--terms", action=_AtLeast, default=cfg.terms)
    _add_output_flags(sp)


class _Command(NamedTuple):
    handler: Callable    # (args, cfg) -> the command's JSON dict
    table: Callable      # that dict -> the human rendering
    help: str
    arguments: Callable  # (subparser, cfg) -> None: adds the flags


_COMMANDS = {
    "expand": _Command(_cmd_expand, _table_coeffs,
                       "print exact series coefficients", _expand_arguments),
    "hadamard": _Command(_cmd_hadamard, _table_coeffs,
                         "termwise product of two series",
                         _hadamard_arguments),
    "obstruct": _Command(_cmd_obstruct, _table_obstruct,
                         "scan for infinite-grade evidence",
                         _obstruct_arguments),
    "modp": _Command(_cmd_modp, _table_modp,
                     "residue kernel automaton mod p^r", _modp_arguments),
    "diagonal": _Command(_cmd_diagonal, _table_diagonal,
                         "rational diagonal witness of a branch",
                         _diagonal_arguments),
    "euler": _Command(_cmd_euler, _table_euler,
                      "exponential-integral bench I(z)", _euler_arguments),
    "optics": _Command(_cmd_optics, _table_optics,
                       "plate-stack identity check", _optics_arguments),
}


def build_parser(cfg: Defaults, command: Optional[str] = None
                 ) -> argparse.ArgumentParser:
    """The parser whose flag defaults are `cfg`: with every subcommand, or
    with `command`'s alone.  Built once per ``(cfg, command)``."""
    return _parser(cfg, command)


@functools.lru_cache(maxsize=32)
def _parser(cfg: Defaults, command: Optional[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradeforge",
        description="Exact Hadamard-product toolkit: expansion, closure, "
                    "obstructions, kernel automata, diagonal lifts, and the "
                    "analytic bench.",
    )
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")
    # A one-command parser still names every command in its usage line, as
    # the full parser's choices do; the full parser keeps argparse's own
    # metavar, which also words its "invalid choice" error.
    sub = parser.add_subparsers(
        dest="command",
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    for name, spec in _COMMANDS.items():
        if command in (None, name):
            spec.arguments(sub.add_parser(name, help=spec.help), cfg)
    return parser


def reports_errors(command):
    """``command(argv) -> int``, with a package error printed as ``error:``
    on stderr and returned as its exit code (any other exception exits 1)."""
    @functools.wraps(command)
    def run(argv=None) -> int:
        try:
            return command(argv)
        except GradeforgeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
    return run


@reports_errors
def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    cfg = load_defaults()
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(cfg, command)
    args = parser.parse_args(argv)
    if args.show_config:
        print(json.dumps(cfg.as_dict(), indent=2))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    spec = _COMMANDS[args.command]
    with integers_of_any_size():
        data = spec.handler(args, cfg)
        if getattr(args, "dot", False):
            print(automaton_dot(data["automaton"]))
        elif args.json:
            print(json.dumps(data, indent=2))
        else:
            print(spec.table(data))
    return 0

if __name__ == "__main__":
    sys.exit(main())
