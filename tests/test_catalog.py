"""The builtin sequence registry and its cross-representation consistency."""

from fractions import Fraction

import pytest

from gradeforge import builtin_names, expand_builtin, get_builtin
from gradeforge.algebraic import expand_branch
from gradeforge.catalog import BUILTINS, CORPUS_ANNIHILATORS
from gradeforge.errors import SchemaError
from gradeforge.holonomic import unroll

from oracles import catalan_numbers, central_binomials, factorials, thue_morse_signs


def test_registry_names():
    assert builtin_names() == (
        "euler", "exp", "log1p", "geometric",
        "central-binomial", "catalan", "thue-morse-signs",
    )


def test_unknown_name_is_a_schema_error():
    with pytest.raises(SchemaError):
        get_builtin("fibonacci")


def test_euler_terms():
    got = expand_builtin("euler", 7)
    fac = factorials(7)
    assert list(got.coeffs) == [(-1) ** n * fac[n] for n in range(7)]


def test_exp_terms():
    got = expand_builtin("exp", 7)
    fac = factorials(7)
    assert list(got.coeffs) == [Fraction(1, fac[n]) for n in range(7)]


def test_log1p_terms():
    got = expand_builtin("log1p", 6)
    assert list(got.coeffs) == [
        Fraction(0), Fraction(1), Fraction(-1, 2),
        Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5),
    ]


def test_counting_sequences():
    assert list(expand_builtin("central-binomial", 30).coeffs) \
        == central_binomials(30)
    assert list(expand_builtin("catalan", 30).coeffs) == catalan_numbers(30)
    assert all(c == 1 for c in expand_builtin("geometric", 30).coeffs)


def test_sign_sequence_matches_block_doubling_oracle():
    got = expand_builtin("thue-morse-signs", 128)
    assert list(got.coeffs) == thue_morse_signs(128)


def test_sign_sequence_doubling_identities():
    s = expand_builtin("thue-morse-signs", 200).coeffs
    for n in range(100):
        assert s[2 * n] == s[n]
        assert s[2 * n + 1] == -s[n]


def closed_form(b, terms: int) -> tuple:
    return tuple(b.coefficient(n) for n in range(terms))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_recurrence_agrees_with_closed_form(name):
    # expand unrolls the recurrence; the closed form is the reference
    b = get_builtin(name)
    if b.recurrence is None:
        pytest.skip(f"{name} carries no recurrence")
    assert unroll(b.recurrence, 1000).coeffs == closed_form(b, 1000)
    assert b.expand(1000).coeffs == closed_form(b, 1000)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_annihilator_agrees_with_closed_form(name):
    b = get_builtin(name)
    if b.annihilator is None:
        pytest.skip(f"{name} carries no annihilator")
    assert expand_branch(b.annihilator, 50).coeffs == closed_form(b, 50)


def test_algebraic_builtins_share_the_corpus_annihilators():
    for name, b in BUILTINS.items():
        if b.annihilator is not None:
            assert b.annihilator == CORPUS_ANNIHILATORS[name]


def test_expand_needs_positive_count():
    with pytest.raises(ValueError):
        get_builtin("exp").expand(0)
