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


def test_genus_formula_rejects_a_fractional_genus(monkeypatch):
    """Counting two elliptic points of order 3 on X0(125), where there are
    none, gives 8 - 2/3: the formula's integrality check raises."""
    monkeypatch.setattr(ledger, "_kronecker_minus3", lambda p: 1)
    with pytest.raises(CertificateError, match="genus formula gives 22/3 for N = 125"):
        ledger.genus_x0(125)


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


def test_supersingular_centers():
    assert ledger.supersingular_j_invariants(5) == (0,)
    assert ledger.supersingular_j_invariants(7) == (1728 % 7,)
    assert ledger.supersingular_j_invariants(13) == (5,)


def test_component_budget_exact_for_5():
    budget = ledger.component_budget(5)
    assert budget.total_known == 8 == budget.curve_genus
    # one supersingular curve, |Aut| = 6: 4 CM components of genus (5 - 1)/2 = 2
    ((aut, count),) = ledger.ss_survey(5).entries
    assert count == 1 and quatlab.class_count(5, aut)[1] == 4


def test_component_budgets_inequality():
    assert ledger.component_budget(7).total_known == 24 <= 26
    assert ledger.component_budget(13).total_known == 168 <= 184
    budget17 = ledger.component_budget(17)
    assert budget17.total_known == 384 <= 417
    census = ledger.ss_survey(17).entries
    assert sum(count * quatlab.class_count(17, aut)[1] for aut, count in census) == 12 + 36


def test_component_budget_violations(monkeypatch):
    """With g(X0(125)) read as 7, the four genus-2 components overflow it."""
    genus_x0 = ledger.genus_x0
    monkeypatch.setattr(ledger, "genus_x0", lambda N: 7 if N == 125 else genus_x0(N))
    with pytest.raises(CertificateError, match="component budget 8 exceeds the genus 7"):
        ledger.component_budget(5)
    assert ledger.component_budget(7).total_known == 24


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

    assert _check_exponent_centers().startswith("(p+1)/i = 2, 4, 14 matches")
    monkeypatch.setitem(stablelab.CM_CONGRUENCES, 7, ("conjecture 3.3.2", 1728, 3, 4))
    assert cmlab.standard_spec(7, "-").exponent == 3
    with pytest.raises(CertificateError, match=r"^\(p\+1\)/i = 4 != congruence exponent 3$"):
        _check_exponent_centers()
