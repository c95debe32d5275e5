"""CM suite: placement congruences of conjectures 3.3.1-3.3.3 and the rows of
tables 3-4."""

from __future__ import annotations

import os

from .. import CM_CONGRUENCES, CertificateError, cmlab, divides_once
from . import Check, Config


def _cache(config: Config) -> cmlab.ClassPolyCache | None:
    if config.cache_dir is None:
        return None
    return cmlab.ClassPolyCache(os.path.join(config.cache_dir, "class_poly_cache.txt"))


def _make_crosscheck(row: cmlab.TableRow):
    def run():
        h = cmlab.class_number(row.discriminant)
        if len(row.taus) != h:
            raise CertificateError(
                f"row has {len(row.taus)} tau values but h({row.discriminant}) = {h}"
            )
        if not cmlab.table_crosscheck(row):
            raise CertificateError("row tau-polynomial differs from the class polynomial")
        case = cmlab.congruence_case(row.discriminant, 5)
        if row.case != case:
            raise CertificateError(
                f"the table places D = {row.discriminant} in case {row.case}, "
                f"but at p = 5 it is in case {case}"
            )
        return (
            f"{row.label}: {len(row.taus)} tau values; row polynomial equals "
            f"H({row.discriminant})"
        )

    return run


def _make_congruence(disc: int, p: int, config: Config):
    def run():
        sign = "-" if cmlab.congruence_case(disc, p) == 1 else "+"
        spec = cmlab.standard_spec(p, sign)
        H = cmlab.class_polynomial(disc, cache=_cache(config))
        result = cmlab.congruence_check(H, spec)
        # the certified error n/d is below 2^-k: n < 2^bits(n), d >= 2^(bits(d) - 1)
        error = H.max_rounding_error
        k = error.denominator.bit_length() - error.numerator.bit_length() - 1
        description = (
            f"v{p}((j - {spec.center})^{spec.exponent} {sign} {spec.prime_power})"
        )
        if not result.passed:
            raise CertificateError(
                f"{description} has minimum {result.min_root_valuation}, "
                f"needs > {spec.bound}"
            )
        return (
            f"{description} > {spec.bound} per root "
            f"(minimum {result.min_root_valuation}, h = {H.degree}, "
            f"precision {H.precision_used}, rounding error < 2^-{k})"
        )

    return run


def suite(config: Config) -> list[Check]:
    """One congruence check per (p, D) with p dividing D exactly once, the
    conjectures' hypothesis, its case derived from D; at p = 5 a D of tables
    3-4 also gets its row check.  A prime outside CM_CONGRUENCES adds no check
    (the CLI rejects it when the cm suite runs alone), nor does a D outside
    the hypothesis (the CLI rejects a D that fits none of the primes).  The
    default discriminants are those of tables 3-4 for p = 5 and one per case
    for 7 and 13."""
    primes = config.primes if config.primes is not None else tuple(CM_CONGRUENCES)
    discs = config.discriminants
    rows_by_disc = {row.discriminant: row for row in cmlab.table_rows()}
    defaults = {5: tuple(rows_by_disc), **cmlab.EXTRA_DISCRIMINANTS}
    checks: list[Check] = []
    for p in primes:
        if p not in CM_CONGRUENCES:
            continue
        anchor = CM_CONGRUENCES[p][0]
        for disc in discs if discs is not None else defaults[p]:
            tag = f"{anchor.replace(' ', '-')}-D{abs(disc):04d}"
            row = rows_by_disc.get(disc)
            if row is not None and p == 5:
                checks.append(Check(f"{tag}-row", "tables 3-4", _make_crosscheck(row)))
            if divides_once(p, disc):
                checks.append(Check(f"{tag}-congruence", anchor,
                                    _make_congruence(disc, p, config)))
    return checks
