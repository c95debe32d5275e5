import math
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablelab.exactmath.kernel import (
    squarefree_part,
    univariate_divmod,
    univariate_gcd,
    univariate_mul,
    univariate_trim,
)
from stablelab.exactmath.poly import (
    SymbolicPolynomial,
    ValuedSymbol,
    normal_form,
    poly_to_coeffs,
    sym,
)

x, y, r = sym("x"), sym("y"), sym("r")


def test_arithmetic_basics():
    f = (x + y) * (x - y)
    assert f == x**2 - y**2
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (x - x).is_zero()
    assert SymbolicPolynomial.constant(F(2, 3)) * 3 == 2


def test_substitute_shift():
    x0 = sym("x0")
    assert (x**2).substitute("x", x0 + r) == x0**2 + 2 * r * x0 + r**2
    assert y.substitute("y", 5 * sym("y1")) == 5 * sym("y1")
    # monomial power: x^5 with x -> y^2/20, cleared by 20^5
    f = (x**5).substitute("x", y * y / 20) * 20**5
    assert f == y**10


def _coefficient_types(f):
    return {type(c) for _, c in f.items()}


def test_integer_polynomials_keep_int_coefficients():
    """Products, powers, substitution and exact division of integer
    polynomials stay in int arithmetic; a Fraction appears only where a
    division makes one, and an integral result of Fraction arithmetic is an int."""
    f = 3 * x**2 - 2 * x * y + 7
    g = (x - 5) ** 3 * (y + 2)
    for h in (f * g, f**4, f.substitute("x", g), (-16 * f * g) / -16, (6 * f) / 3,
              (x / 2) * 4):
        assert _coefficient_types(h) == {int}, h
    assert _coefficient_types(f / 2) == {int, F}
    assert poly_to_coeffs(f.substitute("y", 1), "x") == [7, -2, 3]
    assert all(type(c) is int for c in poly_to_coeffs(f.substitute("y", 1), "x"))


def test_evaluate_and_derivative():
    f = x**3 + 2 * x * y
    assert f.evaluate({"x": F(2), "y": F(1, 2)}) == 10
    assert f.derivative("x") == 3 * x**2 + 2 * y
    assert f.derivative("y") == 2 * x


def test_normal_form_rules():
    rule_r = ValuedSymbol("r", F(2, 5), (5, 25 - 25 * r))
    assert normal_form(r**6, [rule_r]) == 25 * r - 25 * r**2
    assert normal_form(r**5 + 25 * r - 25, [rule_r]).is_zero()
    s15 = sym("s15")
    rule_s15 = ValuedSymbol("s15", F(1, 2), (2, SymbolicPolynomial.constant(15)))
    assert normal_form(s15**2, [rule_s15]) == 15
    # chained rules: beta^2 -> 5 alpha, alpha^2 -> 5
    alpha, beta = sym("alpha"), sym("beta")
    rules = [
        ValuedSymbol("alpha", F(1, 2), (2, SymbolicPolynomial.constant(5))),
        ValuedSymbol("beta", F(3, 4), (2, 5 * alpha)),
    ]
    assert normal_form(beta**4, rules) == 125


def test_normal_form_order_independent():
    rule_r = ValuedSymbol("r", F(2, 5), (5, 25 - 25 * r))
    s15 = sym("s15")
    rule_s = ValuedSymbol("s15", F(1, 2), (2, SymbolicPolynomial.constant(15)))
    f = (r**7 + 3) * s15**3 - r**6 * s15 + s15**2 * r**11
    assert normal_form(f, [rule_r, rule_s]) == normal_form(f, [rule_s, rule_r])
    # exponents of rewritten symbols stay below the rewrite power
    reduced = normal_form(f, [rule_r, rule_s])
    for mono, _ in reduced.items():
        exps = dict(mono)
        assert exps.get("r", 0) < 5 and exps.get("s15", 0) < 2


def test_normal_form_conflicting_rules():
    rule1 = ValuedSymbol("r", F(1), (2, SymbolicPolynomial.constant(2)))
    rule2 = ValuedSymbol("r", F(1), (3, SymbolicPolynomial.constant(3)))
    with pytest.raises(ValueError):
        normal_form(r**5, [rule1, rule2])


def test_rewrite_must_lower_degree():
    with pytest.raises(ValueError):
        ValuedSymbol("r", F(1), (2, r**2 + 1))


def test_univariate_helpers():
    coeffs = poly_to_coeffs(x**3 - 2 * x + 5, "x")
    assert coeffs == [5, -2, 0, 1]
    q, rem = univariate_divmod([F(1), F(0), F(1)], [F(1), F(1)])  # (x^2+1)/(x+1)
    assert q == [F(-1), F(1)] and rem == [F(2)]
    g = univariate_gcd(poly_to_coeffs((x + 1) ** 2 * (x - 2), "x"),
                       poly_to_coeffs((x + 1) * (x - 3), "x"))
    assert g == [F(1), F(1)]


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

#: Dense ascending coefficient lists: int or Fraction entries, possibly with
#: trailing zeros, possibly the zero polynomial.
coefficients = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
)
coefficient_lists = st.lists(coefficients, max_size=7)
nonzero_lists = coefficient_lists.filter(lambda p: any(c != 0 for c in p))


def _sub(a, b):
    return univariate_trim(x - y for x, y in zip_longest(a, b, fillvalue=0))


@PROPERTY
@given(coefficient_lists, nonzero_lists)
def test_divmod_property(num, den):
    q, rem = univariate_divmod(num, den)
    assert _sub(univariate_mul(q, den), _sub(num, rem)) == []
    assert len(rem) < len(univariate_trim(den))


@PROPERTY
@given(st.lists(st.integers(-10**6, 10**6), max_size=9),
       st.lists(st.integers(-50, 50), max_size=5))
def test_divmod_by_monic_integer_stays_integral(num, den):
    q, rem = univariate_divmod(num, univariate_trim(den) + [1])
    assert all(type(c) is int for c in q + rem)


@PROPERTY
@given(coefficient_lists, coefficient_lists)
def test_gcd_divides_both(a, b):
    """Monic for Fraction input; the primitive integer gcd with a positive
    leading coefficient for integer input, which keeps the ring of the inputs."""
    g = univariate_gcd(a, b)
    assume(g != [0])
    if all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in g)
        assert g[-1] > 0 and math.gcd(*g) == 1
    else:
        assert g[-1] == 1
    assert univariate_divmod(a, g)[1] == [] and univariate_divmod(b, g)[1] == []


@PROPERTY
@given(st.dictionaries(st.integers(-9, 9), st.integers(1, 3), min_size=1, max_size=4),
       st.integers(-5, 5).filter(bool))
def test_squarefree_part_keeps_each_root_once(roots, lead):
    """lead * prod (x - a)^m has squarefree part lead * prod (x - a)."""
    f, once = [lead], [lead]
    for a, m in roots.items():
        once = univariate_mul(once, [-a, 1])
        for _ in range(m):
            f = univariate_mul(f, [-a, 1])
    part = squarefree_part(f)
    assert part == once
    assert all(type(c) is int for c in part)
