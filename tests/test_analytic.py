"""Exact pole algebra, the exponential-integral pair, and plate-stack sums."""

import math
import random
from fractions import Fraction

import pytest
import scipy.integrate
import scipy.special

from gradeforge import (
    ExpPolyRational,
    QuadratureConfig,
    TruncSeries,
    euler_integral,
    euler_branch_formula,
    optics_identity_check,
    rational_hadamard,
    zeta_odd_denominator_check,
)
from gradeforge.analytic import (
    branch_offset,
    euler_derivative_check,
    euler_report,
    plate_rational_sum,
    tangent_series,
    zeta_tail_bound,
)
from gradeforge.errors import InsufficientTerms, NonPositiveArgument, NotOdd

from oracles import squares_plus_one, tangent_taylor


# ---------------------------------------------------------------------------
# exact pole algebra


def test_simple_pole_product():
    f = ExpPolyRational.simple_pole(Fraction(2))
    g = ExpPolyRational.simple_pole(Fraction(3))
    assert rational_hadamard(f, g) == ExpPolyRational.simple_pole(Fraction(6))


def test_all_ones_sequence_is_the_identity():
    one = ExpPolyRational.simple_pole(Fraction(1))
    f = ExpPolyRational((
        (Fraction(2), 2, (Fraction(1), Fraction(3))),
        (Fraction(-5), 1, (Fraction(7),)),
    ))
    assert rational_hadamard(f, one) == f
    assert rational_hadamard(one, f) == f


def test_squared_counting_sequence():
    # a_n = n + 1 has pole 1 with polynomial 1 + n; its square is (n+1)^2
    counting = ExpPolyRational(((Fraction(1), 2, (Fraction(1), Fraction(1))),))
    squared = rational_hadamard(counting, counting)
    assert squared.terms == (
        (Fraction(1), 3, (Fraction(1), Fraction(2), Fraction(1))),
    )
    assert list(squared.expand(20).coeffs) == squares_plus_one(20)


def test_product_poles_lie_in_the_product_set():
    rng = random.Random(7)
    for _ in range(25):
        def rand_form():
            terms = []
            for _ in range(rng.randint(1, 3)):
                pole = Fraction(rng.choice([-3, -2, 2, 3, 5]),
                                rng.choice([1, 2]))
                mult = rng.randint(1, 2)
                poly = tuple(Fraction(rng.randint(-4, 4)) for _ in range(mult))
                if not any(poly):
                    poly = (Fraction(1),) + poly[1:]
                terms.append((pole, mult, poly))
            return ExpPolyRational(tuple(terms))

        f, g = rand_form(), rand_form()
        allowed = {a * b for a in f.poles for b in g.poles}
        assert set(rational_hadamard(f, g).poles) <= allowed


def test_product_expansion_matches_termwise_multiplication():
    f = ExpPolyRational((
        (Fraction(2), 2, (Fraction(1), Fraction(-1))),
        (Fraction(3), 1, (Fraction(4),)),
    ))
    g = ExpPolyRational((
        (Fraction(2), 1, (Fraction(5),)),
        (Fraction(-1, 2), 1, (Fraction(1),)),
    ))
    h = rational_hadamard(f, g)
    fa, ga = f.expand(30).coeffs, g.expand(30).coeffs
    assert h.expand(30).coeffs == tuple(a * b for a, b in zip(fa, ga))


def test_coinciding_pole_products_merge():
    # 2*3 and 6*1 collide at 6
    f = ExpPolyRational((
        (Fraction(2), 1, (Fraction(1),)),
        (Fraction(6), 1, (Fraction(1),)),
    ))
    g = ExpPolyRational((
        (Fraction(3), 1, (Fraction(1),)),
        (Fraction(1), 1, (Fraction(1),)),
    ))
    h = rational_hadamard(f, g)
    assert h.poles.count(Fraction(6)) == 1


def test_form_validation():
    with pytest.raises(ValueError):
        ExpPolyRational(((Fraction(0), 1, (Fraction(1),)),))
    with pytest.raises(ValueError):
        ExpPolyRational(((Fraction(2), 0, (Fraction(1),)),))
    with pytest.raises(ValueError):
        ExpPolyRational(((Fraction(2), 1, (Fraction(1), Fraction(1))),))
    # zero polynomials vanish entirely
    assert ExpPolyRational(((Fraction(2), 1, (Fraction(0),)),)).terms == ()


def test_float_poles_do_not_expand():
    f = ExpPolyRational(((2.0, 1, (1.0,)),))
    assert not f.is_exact
    with pytest.raises(ValueError):
        f.expand(4)


# ---------------------------------------------------------------------------
# the exponential-integral pair


def test_integral_reference_value():
    assert abs(euler_integral(1.0) - 0.59634736232) < 1e-5


def test_integral_tends_to_one_for_small_argument():
    assert abs(euler_integral(1e-4) - 1.0) < 2e-4


def test_integral_rejects_nonpositive_argument():
    with pytest.raises(NonPositiveArgument):
        euler_integral(0.0)
    with pytest.raises(NonPositiveArgument):
        euler_integral(-1.0)
    with pytest.raises(NonPositiveArgument):
        euler_branch_formula(-2.0)


def test_integral_matches_scipy_exponential_integral():
    # I(z) = e^(1/z) E_1(1/z) / z
    for z in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]:
        y = 1.0 / z
        want = math.exp(y) * scipy.special.exp1(y) * y
        assert abs(euler_integral(z) - want) < 1e-9, z


def test_branch_formula_agrees_with_quadrature():
    for z in [0.25, 0.5, 1.0, 2.0, 4.0]:
        gap = abs(euler_integral(z) - euler_branch_formula(z))
        assert gap < 1e-8, (z, gap)


def test_branch_formula_reports_insufficient_terms():
    # at z = 0.1 the alternating series needs more than 40 terms
    with pytest.raises(InsufficientTerms):
        euler_branch_formula(0.1, terms=40)
    # and succeeds once enough are allowed (float cancellation caps the
    # attainable accuracy well before the truncation bound does)
    val = euler_branch_formula(0.1, terms=60)
    y = 10.0
    assert abs(val - math.exp(y) * scipy.special.exp1(y) * y) < 1e-7


def test_exponential_integral_quadrature_oracle():
    # independent check that scipy.special.exp1 is itself consistent:
    # E_1(1) computed by adaptive quadrature of its defining integral
    val, err = scipy.integrate.quad(lambda t: math.exp(-t) / t, 1.0, math.inf)
    assert err < 1e-8
    assert abs(val - scipy.special.exp1(1.0)) < 1e-9


def test_branch_offset_value():
    assert abs(branch_offset(1.0) - 2 * math.pi * math.e) < 1e-12
    with pytest.raises(NonPositiveArgument):
        branch_offset(0.0)


def test_report_contents():
    rep = euler_report(0.5)
    assert set(rep) == {"value", "error_estimate", "reference",
                        "discrepancy", "method", "branch_offset"}
    assert rep["discrepancy"] < 1e-10
    assert rep["method"].startswith("gauss-laguerre")
    # large z falls back to adaptive quadrature
    assert euler_report(8.0)["method"] == "adaptive"


def test_derivative_checks_track_factorial_squares():
    for n in range(4):
        est, ref, rel = euler_derivative_check(n)
        assert ref == (-1) ** n * math.factorial(n) ** 2
        assert rel < 0.05, (n, rel)
    with pytest.raises(ValueError):
        euler_derivative_check(4)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes=4)
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=0.0)


# ---------------------------------------------------------------------------
# plate stacks


def test_plate_rational_sum_single_plate():
    got = plate_rational_sum([(Fraction(1), Fraction(2))], 8)
    # z/(4 - z^2)·2 expands with only odd powers 2^(-2j-2)... as 2/(n^2) steps
    want = [Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 8),
            Fraction(0), Fraction(1, 32), Fraction(0), Fraction(1, 128)]
    assert got == want


def test_optics_identity_is_exact_for_rational_plates():
    H = tangent_series(9)
    plates = [(Fraction(1), Fraction(1))]
    assert optics_identity_check(plates, H, 9) == 0

    stack = [(Fraction(1), Fraction(2)), (Fraction(-1, 3), Fraction(3)),
             (Fraction(2), Fraction(5))]
    assert optics_identity_check(stack, H, 9) == 0


def test_optics_identity_holds_for_any_odd_series():
    H = TruncSeries.from_list([0, 3, 0, "-7/2", 0, "1/6", 0, 9, 0, "2/11", 0])
    stack = [(Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(-5))]
    assert optics_identity_check(stack, H, 11) == 0


def test_optics_identity_rejects_even_terms():
    with pytest.raises(NotOdd):
        optics_identity_check([(Fraction(1), Fraction(1))],
                              TruncSeries.from_list([1, 1, 1, 1]), 4)


def test_optics_identity_needs_enough_coefficients():
    H = tangent_series(5)
    with pytest.raises(ValueError):
        optics_identity_check([(Fraction(1), Fraction(1))], H, 9)


def test_optics_identity_float_path_measures_rounding_only():
    H = tangent_series(11)
    stack = [(1.0, 3.0), (0.25, 7.0), (-0.5, 11.0)]
    gap = optics_identity_check(stack, H, 11)
    assert isinstance(gap, float)
    assert gap < 1e-15


def test_plate_indices_must_be_nonzero():
    with pytest.raises(ValueError):
        plate_rational_sum([(Fraction(1), Fraction(0))], 4)


# ---------------------------------------------------------------------------
# tangent coefficients and odd-denominator sums


@pytest.mark.parametrize("order", [1, 2, 12, 31])
def test_tangent_series_matches_ode_oracle(order):
    # order 1 is the Newton iteration's exit before its first pass
    assert list(tangent_series(order).coeffs) == tangent_taylor(order)


def test_tangent_series_known_values():
    t = tangent_series(8).coeffs
    assert t[1] == 1
    assert t[3] == Fraction(1, 3)
    assert t[5] == Fraction(2, 15)
    assert t[7] == Fraction(17, 315)


@pytest.mark.parametrize("j,closed_form", [
    (0, math.pi**2 / 8),
    (1, math.pi**4 / 96),
    (2, math.pi**6 / 960),
])
def test_odd_denominator_sums_hit_pi_powers(j, closed_form):
    chk = zeta_odd_denominator_check(j, cutoff=100000)
    assert abs(chk.rhs - closed_form) < 1e-12
    assert chk.discrepancy < zeta_tail_bound(j, 100000) + 1e-10
    assert chk.discrepancy == abs(chk.lhs - chk.rhs)


def test_zeta_check_validates_arguments():
    with pytest.raises(ValueError):
        zeta_odd_denominator_check(7)
    with pytest.raises(ValueError):
        zeta_odd_denominator_check(0, cutoff=10)


def test_zeta_tail_bound_shrinks_with_cutoff_and_weight():
    assert zeta_tail_bound(0, 10**6) < zeta_tail_bound(0, 10**5)
    assert zeta_tail_bound(2, 1000) < zeta_tail_bound(1, 1000)
