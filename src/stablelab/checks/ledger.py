"""Ledger suite: genera of X0(p^3), supersingular censuses and component
budgets."""

from __future__ import annotations

from .. import CM_CONGRUENCES, CertificateError, ledger, quatlab
from ..exactmath import is_prime
from . import Check, Config


_GENUS_EXPECTED = {125: 8, 343: 26, 2197: 184, 4913: 417}


def _make_genus_check(N: int):
    def run():
        got = ledger.genus_x0(N)
        if got != _GENUS_EXPECTED[N]:
            raise CertificateError(f"genus {got} != {_GENUS_EXPECTED[N]}")
        return f"genus of X0({N}) = {got}"

    return run


def _check_mass_formula():
    for p in range(5, 100):
        if is_prime(p):
            ledger.ss_survey(p)  # raises CertificateError if the mass identity fails
    return "sum 1/|Aut| = (p-1)/24 for all primes 5 <= p < 100"


def _make_survey_check(p: int):
    expected = {
        5: ((6, 1),),
        7: ((4, 1),),
        13: ((2, 1),),
        17: ((2, 1), (6, 1)),
    }

    def run():
        survey = ledger.ss_survey(p)
        if p in expected and survey.entries != expected[p]:
            raise CertificateError(f"survey {survey.entries}")
        # the census counts supersingular curves over F_p-bar, the brute force
        # only j in F_p; the two agree for every prime 5 <= p <= 31 and first
        # differ at p = 37 (3 vs 1), so the comparison stops at 31
        brute = ledger.supersingular_j_invariants(p) if p <= 31 else None
        if brute is not None:
            count = sum(n for _, n in survey.entries)
            if count != len(brute):
                raise CertificateError(f"survey counts {count} but {len(brute)} ss j-invariants")
        return f"aut-order census {survey.entries}, mass {survey.mass}"

    return run


def _make_budget_check(p: int):
    def run():
        budget = ledger.component_budget(p)
        if p == 5:
            if not budget.total_known == budget.curve_genus == 8:
                raise CertificateError(f"expected exact equality 8 = 4*2, got {budget.total_known}")
            return "exact: 4 components of genus 2 account for the full genus 8"
        return (
            f"known component genera total {budget.total_known} <= "
            f"genus {budget.curve_genus} of X0({p**3})"
        )

    return run


def _check_exponent_centers():
    for p, (_, center, exponent, _) in CM_CONGRUENCES.items():
        survey = ledger.ss_survey(p)
        if len(survey.entries) != 1:
            raise CertificateError(f"p={p} does not have a unique supersingular class")
        aut = survey.entries[0][0]
        per_extension, _ = quatlab.class_count(p, aut)
        if per_extension != exponent:
            raise CertificateError(f"(p+1)/i = {per_extension} != congruence exponent {exponent}")
        ss_js = ledger.supersingular_j_invariants(p)
        if ss_js != (center % p,):
            raise CertificateError(f"supersingular j mod {p} is {ss_js}, center {center}")
    return (
        "(p+1)/i = 2, 4, 14 matches the congruence exponents; centers 0, 1728, 5 "
        "reduce to the unique supersingular j mod p"
    )


def suite(config: Config) -> list[Check]:
    primes = config.primes if config.primes is not None else (5, 7, 13, 17)
    checks = [
        Check(f"genus-{p**3}", "section 2 genus" if p == 5 else "figures 2-6",
              _make_genus_check(p**3))
        for p in primes
        if p**3 in _GENUS_EXPECTED
    ]
    checks.append(Check("mass-formula", "conjecture 3.4.5", _check_mass_formula))
    for p in primes:
        checks.append(Check(f"survey-p{p:02d}", "conjecture 3.4.5", _make_survey_check(p)))
        checks.append(Check(f"budget-p{p:02d}", "guess 3.4.6", _make_budget_check(p)))
    checks.append(
        Check("exponent-center-crosscheck", "section 3.4 class count", _check_exponent_centers)
    )
    return checks
