"""Spans around gradeforge's public functions, recorded from outside.

`Tracer.install` replaces each target function with a wrapper that records
a span (name, start, end, parent span, job) and the target's work counters.
Every module attribute in the package that holds the same function object
is rebound, because several modules import functions by name
(``from .algebraic import expand_branch``).  Spans stay in memory and are
written out once, after the pass.

A span's self time is its duration minus the time its child spans cover.
Hook work (counting operand bits, scanning results) runs outside the span
and is counted as covered by the parent, so it lands in no layer's self
time; it shows up only in the tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _max_bits(values) -> int:
    return max((abs(x).bit_length() for x in values), default=0)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job, covered by children, attrs]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.intpoly = None

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_hook = perf_counter()
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - t_hook
            if after is not None:
                after(span, result, args, kwargs)
                if parent >= 0:
                    spans[parent][5] += perf_counter() - span[2]
            return result

        return traced

    # -- hooks ----------------------------------------------------------------

    def _conv_before(self, args, kwargs):
        a, b = args[0], args[1]
        self.counts["intpoly.conv.operand_bits"] += (
            len(a) * _max_bits(a) + len(b) * _max_bits(b))
        if (a and b and min(len(a), len(b)) > 16
                and len(a) * len(b) > self.intpoly._SCHOOLBOOK_CUTOFF):
            self.counts["intpoly.conv.kronecker_calls"] += 1

    def _expand_after(self, span, result, args, kwargs):
        n = _arg(args, kwargs, 1, "n")
        self.counts["algebraic.expand_branch.terms"] += n
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result.coeffs), default=0)
        key = "algebraic.expand_branch.max_coeff_bits"
        self.maxima[key] = max(self.maxima[key], bits)
        parent = self.spans[span[3]] if span[3] >= 0 else None
        if parent is not None and parent[0] == "automata.christol_report":
            if parent[6] is None:
                parent[6] = []
            parent[6].append(n)

    def _christol_after(self, span, result, args, kwargs):
        attempts = span[6] or []
        self.counts["automata.christol_report.depth_attempts"] += len(attempts)
        self.counts["automata.christol_report.terms_expanded"] += sum(attempts)
        if attempts and result.status == "closed":
            self.counts["automata.christol_report.useful_terms"] += attempts[-1]

    def _closure_after(self, span, result, args, kwargs):
        self.counts["automata.kernel_closure.states"] += len(result.states)

    def _extract_before(self, args, kwargs):
        rat = _arg(args, kwargs, 0, "rat")
        order = _arg(args, kwargs, 1, "order")
        self.counts["diagonals.diagonal_extract.box_volume"] += order ** rat.nvars
        self.counts["diagonals.diagonal_extract.den_terms"] += len(rat.den.terms)

    def _kernel_before(self, args, kwargs):
        matrix = _arg(args, kwargs, 0, "matrix")
        cells = len(matrix) * (len(matrix[0]) if matrix else 0)
        self.counts["polynomials.fraction_free_left_kernel.cells"] += cells

    def _hadamard_after(self, span, result, args, kwargs):
        self.counts["holonomic.hadamard_recurrence.out_order"] += result.order

    def _unroll_before(self, args, kwargs):
        self.counts["holonomic.unroll.terms"] += _arg(args, kwargs, 1, "n")

    def _scan_before(self, args, kwargs):
        f = _arg(args, kwargs, 0, "f")
        self.counts["obstruction.prime_support_scan.denominators"] += sum(
            1 for c in f.coeffs if c.denominator != 1)

    def _scan_after(self, span, result, args, kwargs):
        self.counts["obstruction.prime_support_scan.incomplete"] += len(
            result.incomplete)

    def targets(self):
        """(module, function, before hook, after hook) for every layer."""
        return [
            ("cli", "main", None, None),
            ("rationals", "format_rational", None, None),
            ("algebraic", "expand_branch", None, self._expand_after),
            ("_intpoly", "conv", self._conv_before, None),
            ("automata", "christol_report", None, self._christol_after),
            ("automata", "reduce_mod", None, None),
            ("automata", "kernel_closure", None, self._closure_after),
            ("diagonals", "diagonal_extract", self._extract_before, None),
            ("diagonals", "diagonal_witness", None, None),
            ("diagonals", "product_witness", None, None),
            ("polynomials", "fraction_free_left_kernel", self._kernel_before,
             None),
            ("holonomic", "hadamard_recurrence", None, self._hadamard_after),
            ("holonomic", "unroll", self._unroll_before, None),
            ("holonomic", "guess_recurrence", None, None),
            ("obstruction", "prime_support_scan", self._scan_before,
             self._scan_after),
        ]

    def install(self) -> None:
        """Wrap every target and rebind each package attribute holding it."""
        import gradeforge.cli  # noqa: F401  (loads every package module)

        package = [m for name, m in sys.modules.items()
                   if name == "gradeforge" or name.startswith("gradeforge.")]
        self.intpoly = sys.modules["gradeforge._intpoly"]
        for module, func, before, after in self.targets():
            mod = sys.modules[f"gradeforge.{module}"]
            original = getattr(mod, func)
            label = f"{module.lstrip('_')}.{func}"
            wrapper = self.wrap(label, original, before, after)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """calls, busy_s and self_s per span name, plus the hook counters."""
        out: dict[str, float] = defaultdict(int)
        for name, start, end, _, _, covered, _ in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        out.update(self.counts)
        out.update(self.maxima)
        return dict(out)

    def write(self, path) -> None:
        """Spans as gzip TSV: name, start, end, parent, job (times in s)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job, _, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - origin:.9f}\t"
                         f"{end - origin:.9f}\t{parent}\t{job}\n")
