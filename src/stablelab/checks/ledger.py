"""Ledger suite: genera of X0(p^3), supersingular censuses and component
budgets."""

from __future__ import annotations

from functools import partial

from .. import CM_CONGRUENCES, CertificateError, ledger, quatlab
from ..exactmath import is_prime
from . import DEFAULT_PRIMES, Check, Config, once


_GENUS_EXPECTED = {125: 8, 343: 26, 2197: 184, 4913: 417}
_SURVEY_EXPECTED = {5: ((6, 1),), 7: ((4, 1),), 13: ((2, 1),), 17: ((2, 1), (6, 1))}


def _check_genus(N: int, genus):
    got = genus(N)
    if got != _GENUS_EXPECTED[N]:
        raise CertificateError(f"genus {got} != {_GENUS_EXPECTED[N]}")
    return f"genus of X0({N}) = {got}"


def _check_mass_formula(survey):
    for p in range(5, 100):
        if is_prime(p):
            survey(p)  # raises CertificateError if the mass identity fails
    return "sum 1/|Aut| = (p-1)/24 for all primes 5 <= p < 100"


def _check_survey(p: int, survey, ss_js):
    census = survey(p)
    if p in _SURVEY_EXPECTED and census.entries != _SURVEY_EXPECTED[p]:
        raise CertificateError(f"survey {census.entries}")
    # the census counts supersingular curves over F_p-bar, the brute force
    # only j in F_p; the two agree for every prime 5 <= p <= 31 and first
    # differ at p = 37 (3 vs 1), so the comparison stops at 31
    if p <= 31:
        count, brute = sum(n for _, n in census.entries), ss_js(p)
        if count != len(brute):
            raise CertificateError(f"survey counts {count} but {len(brute)} ss j-invariants")
    return f"aut-order census {census.entries}, mass {census.mass}"


def _check_budget(p: int, survey, genus):
    curve_genus = genus(p**3)
    total = ledger.component_budget(p, survey(p), curve_genus)
    if p == 5:
        if not total == curve_genus == 8:
            raise CertificateError(f"expected exact equality 8 = 4*2, got {total}")
        return "exact: 4 components of genus 2 account for the full genus 8"
    return f"known component genera total {total} <= genus {curve_genus} of X0({p**3})"


def _check_exponent_centers(survey, ss_js):
    for p, (_, center, exponent, _) in CM_CONGRUENCES.items():
        census = survey(p)
        if len(census.entries) != 1:
            raise CertificateError(f"p={p} does not have a unique supersingular class")
        aut = census.entries[0][0]
        per_extension = quatlab.class_count(p, aut)
        if per_extension != exponent:
            raise CertificateError(f"(p+1)/i = {per_extension} != congruence exponent {exponent}")
        js = ss_js(p)
        if js != (center % p,):
            raise CertificateError(f"supersingular j mod {p} is {js}, center {center}")
    _, centers, exponents, _ = zip(*CM_CONGRUENCES.values())
    return (
        f"(p+1)/i = {', '.join(map(str, exponents))} matches the congruence exponents; "
        f"centers {', '.join(map(str, centers))} reduce to the unique supersingular j mod p"
    )


def suite(config: Config) -> list[Check]:
    primes = config.primes if config.primes is not None else DEFAULT_PRIMES
    survey = once(ledger.ss_survey)
    genus = once(ledger.genus_x0)
    ss_js = once(ledger.supersingular_j_invariants)
    checks = [
        Check(f"genus-{p**3}", "section 2 genus" if p == 5 else "figures 2-6",
              partial(_check_genus, p**3, genus))
        for p in primes
        if p**3 in _GENUS_EXPECTED
    ]
    checks.append(Check("mass-formula", "conjecture 3.4.5", partial(_check_mass_formula, survey)))
    for p in primes:
        checks.append(Check(f"survey-p{p:02d}", "conjecture 3.4.5",
                            partial(_check_survey, p, survey, ss_js)))
        checks.append(Check(f"budget-p{p:02d}", "guess 3.4.6",
                            partial(_check_budget, p, survey, genus)))
    checks.append(Check("exponent-center-crosscheck", "section 3.4 class count",
                        partial(_check_exponent_centers, survey, ss_js)))
    return checks
