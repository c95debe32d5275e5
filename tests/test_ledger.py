import math
from fractions import Fraction as F

import pytest

from stablelab import CertificateError, ledger, quatlab


def test_genus_values():
    assert ledger.genus_x0(25) == 0
    assert ledger.genus_x0(125) == 8
    assert ledger.genus_x0(343) == 26
    assert ledger.genus_x0(2197) == 184
    assert ledger.genus_x0(4913) == 417
    assert ledger.genus_x0(1) == 0
    assert ledger.genus_x0(11) == 1
    with pytest.raises(ValueError):
        ledger.genus_x0(0)


def test_genus_at_levels_with_no_elliptic_points():
    """4 | N leaves X0(N) no elliptic point of order 2, and 9 | N none of
    order 3."""
    assert [ledger.genus_x0(N) for N in (27, 36, 64, 81, 108, 144)] == [1, 1, 3, 4, 10, 13]


def _genus_by_counting(N):
    """1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2 with nu2 and nu3 counted as the
    roots of x^2 + 1 and x^2 + x + 1 mod N, mu = N * prod(1 + 1/p) and nu_inf
    the sum of phi(gcd(d, N/d)) over the divisors d of N."""
    def phi(n):
        return sum(1 for k in range(n) if math.gcd(k, n) == 1)

    mu = F(N)
    for p in range(2, N + 1):
        if N % p == 0 and all(p % q for q in range(2, p)):
            mu *= 1 + F(1, p)
    nu2 = sum(1 for x in range(N) if (x * x + 1) % N == 0)
    nu3 = sum(1 for x in range(N) if (x * x + x + 1) % N == 0)
    nu_inf = sum(phi(math.gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)
    return 1 + mu / 12 - F(nu2, 4) - F(nu3, 3) - F(nu_inf, 2)


def test_genus_matches_counted_elliptic_points():
    for N in range(1, 600):
        assert ledger.genus_x0(N) == _genus_by_counting(N), N


def test_genus_formula_rejects_a_fractional_genus(monkeypatch):
    """Counting two elliptic points of order 3 on X0(125), where there are
    none, gives 8 - 2/3: the formula's integrality check raises."""
    kronecker = ledger.kronecker
    monkeypatch.setattr(ledger, "kronecker", lambda d, p: 1 if d == -3 else kronecker(d, p))
    with pytest.raises(CertificateError, match="genus formula gives 22/3 for N = 125"):
        ledger.genus_x0(125)


def test_kronecker_reads_the_residue_classes_of_p():
    """(-4/p) and (-3/p) are 0, 1, -1 as p ramifies, splits or stays inert
    in Z[i] and Z[omega], which p mod 4 and p mod 3 decide."""
    for p in filter(ledger.is_prime, range(2, 400)):
        assert ledger.kronecker(-4, p) == (0 if p == 2 else 1 if p % 4 == 1 else -1), p
        assert ledger.kronecker(-3, p) == (0 if p == 3 else 1 if p % 3 == 1 else -1), p


def test_ss_survey_examples():
    assert ledger.ss_survey(5).entries == ((6, 1),)
    assert ledger.ss_survey(7).entries == ((4, 1),)
    assert ledger.ss_survey(13).entries == ((2, 1),)
    assert ledger.ss_survey(17).entries == ((2, 1), (6, 1))
    with pytest.raises(ValueError):
        ledger.ss_survey(3)
    with pytest.raises(ValueError):
        ledger.ss_survey(15)


def test_mass_formula_sweep():
    for p in range(5, 100):
        if ledger.is_prime(p):
            survey = ledger.ss_survey(p)
            assert survey.mass == F(p - 1, 24)
            for aut, _ in survey.entries:
                assert (p + 1) % (aut // 2) == 0  # (p+1)/i is integral


def test_survey_against_brute_force_point_counts():
    for p in (5, 7, 13, 17, 19, 23):
        js = ledger.supersingular_j_invariants(p)
        survey = ledger.ss_survey(p)
        assert len(js) == sum(n for _, n in survey.entries)
        aut_orders = sorted(a for a, n in survey.entries for _ in range(n))
        expected = sorted(
            6 if j == 0 else 4 if j == 1728 % p else 2 for j in js
        )
        assert aut_orders == expected


def _supersingular_by_squares(p):
    """Oracle: #E(F_p) over y^2 = x^3 + ax + b for a curve of each j, with
    quadratic residuosity read from the set of squares mod p."""
    squares = {x * x % p for x in range(1, p)}
    out = []
    for j in range(p):
        if j == 0:
            a, b = 0, 1
        elif j == 1728 % p:
            a, b = 1, 0
        else:
            k = j * pow(1728 - j, -1, p) % p
            a, b = 3 * k, 2 * k
        rhs = [(x**3 + a * x + b) % p for x in range(p)]
        points = 1 + sum(1 if y == 0 else 2 if y in squares else 0 for y in rhs)
        if points == p + 1:
            out.append(j)
    return tuple(out)


def test_supersingular_j_invariants_match_a_set_of_squares_count():
    for p in filter(ledger.is_prime, range(5, 200)):
        assert ledger.supersingular_j_invariants(p) == _supersingular_by_squares(p), p


def test_supersingular_centers():
    assert ledger.supersingular_j_invariants(5) == (0,)
    assert ledger.supersingular_j_invariants(7) == (1728 % 7,)
    assert ledger.supersingular_j_invariants(13) == (5,)


def _budget(p):
    return ledger.component_budget(p, ledger.ss_survey(p), ledger.genus_x0(p**3))


def test_component_budget_exact_for_5():
    assert _budget(5) == 8 == ledger.genus_x0(125)
    # one supersingular curve, |Aut| = 6: 4 CM components of genus (5 - 1)/2 = 2
    ((aut, count),) = ledger.ss_survey(5).entries
    assert count == 1 and 2 * quatlab.class_count(5, aut) == 4


def test_component_budgets_inequality():
    assert _budget(7) == 24 <= 26
    assert _budget(13) == 168 <= 184
    assert _budget(17) == 384 <= 417
    census = ledger.ss_survey(17).entries
    assert sum(count * 2 * quatlab.class_count(17, aut) for aut, count in census) == 12 + 36


def test_component_budget_violations():
    """With g(X0(125)) read as 7, the four genus-2 components overflow it."""
    with pytest.raises(CertificateError, match="component budget 8 exceeds the genus 7"):
        ledger.component_budget(5, ledger.ss_survey(5), 7)
    assert ledger.component_budget(7, ledger.ss_survey(7), 24) == 24


def test_survey_crosscheck_stops_where_the_counts_part():
    """The survey check compares the census (supersingular curves over
    F_p-bar) with the supersingular j in F_p only for p <= 31: the two counts
    agree for every prime up to 31 and first differ at 37."""
    from stablelab.checks import Config
    from stablelab.cli import run_suite

    def counts(p):
        census = sum(n for _, n in ledger.ss_survey(p).entries)
        return census, len(ledger.supersingular_j_invariants(p))

    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        census, in_fp = counts(p)
        assert census == in_fp, p
    assert counts(37) == (3, 1)
    report = run_suite("ledger", Config(primes=(37,)), clock=lambda: 0.0)
    survey = {r.id: r for r in report.results}["survey-p37"]
    assert survey.status == "pass"


def test_exponent_center_crosscheck_reads_the_congruence_table(monkeypatch):
    """The cm specs and the ledger crosscheck read one table: an exponent
    changed there (3 at p = 7) reaches both, and the crosscheck fails."""
    import stablelab
    from stablelab import cmlab
    from stablelab.checks.ledger import _check_exponent_centers

    builders = ledger.ss_survey, ledger.supersingular_j_invariants
    assert _check_exponent_centers(*builders).startswith("(p+1)/i = 2, 4, 14 matches")
    monkeypatch.setitem(stablelab.CM_CONGRUENCES, 7, ("conjecture 3.3.2", 1728, 3, 4))
    assert cmlab.standard_spec(7, "-").exponent == 3
    with pytest.raises(CertificateError, match=r"^\(p\+1\)/i = 4 != congruence exponent 3$"):
        _check_exponent_centers(*builders)
