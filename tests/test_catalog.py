"""The builtin sequence registry: each entry is the exact object it names,
checked against an independent closed form from `oracles`."""

from fractions import Fraction

import pytest

from gradeforge import builtin_names, expand_builtin, get_builtin
from gradeforge.algebraic import Annihilator, verify_annihilator
from gradeforge.catalog import BUILTINS, CORPUS_ANNIHILATORS
from gradeforge.errors import SchemaError
from gradeforge.series import TruncSeries

from oracles import (
    catalan_numbers,
    catalan_numbers_fast,
    central_binomials,
    central_binomials_fast,
    factorials,
    thue_morse_signs,
)

#: Each builtin's first terms from its closed form.
CLOSED_FORMS = {
    "euler": lambda n: [(-1) ** k * f for k, f in enumerate(factorials(n))],
    "exp": lambda n: [Fraction(1, f) for f in factorials(n)],
    "log1p": lambda n: [Fraction(0)] + [Fraction((-1) ** (k + 1), k)
                                        for k in range(1, n)],
    "geometric": lambda n: [1] * n,
    "central-binomial": central_binomials_fast,
    "catalan": catalan_numbers_fast,
    "thue-morse-signs": thue_morse_signs,
}

ALGEBRAIC = sorted(name for name, b in BUILTINS.items()
                   if isinstance(b, Annihilator))


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


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_recurrence_agrees_with_closed_form(name):
    # expand unrolls the builtin's recurrence, given or derived from P, and
    # reads thue-morse-signs, which has none, off its coefficient rule
    assert list(expand_builtin(name, 1000).coeffs) == CLOSED_FORMS[name](1000)


@pytest.mark.parametrize("name", ALGEBRAIC)
def test_annihilator_agrees_with_closed_form(name):
    # P(z, f) vanishes on the closed form itself, not only on the expansion
    closed = TruncSeries.from_list(CLOSED_FORMS[name](60))
    assert verify_annihilator(get_builtin(name), closed)


def test_algebraic_builtins_share_the_corpus_annihilators():
    assert ALGEBRAIC == ["catalan", "central-binomial", "geometric"]
    for name in ALGEBRAIC:
        assert BUILTINS[name] is CORPUS_ANNIHILATORS[name]


def test_expand_needs_positive_count():
    for name in ("exp", "catalan", "thue-morse-signs"):
        with pytest.raises(ValueError):
            expand_builtin(name, 0)
