import math
import sys
import threading
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc

from stablelab import cmlab
from stablelab.exactmath import interpolate_integer_polynomial, resultant_coeffs, val_rat


def test_reduced_forms_examples():
    assert [(f.a, f.b, f.c) for f in cmlab.reduced_forms(-20)] == [(1, 0, 5), (2, 2, 3)]
    assert [(f.a, f.b, f.c) for f in cmlab.reduced_forms(-4)] == [(1, 0, 1)]
    assert cmlab.class_number(-80) == 4
    with pytest.raises(ValueError):
        cmlab.reduced_forms(-6)  # -6 = 2 mod 4
    with pytest.raises(ValueError):
        cmlab.reduced_forms(20)


def test_reduced_forms_against_brute_force():
    """Class numbers agree with a direct scan of all reduced triples."""
    for disc in (-20, -80, -180, -120, -55, -280, -40, -160, -15, -60, -35, -260,
                 -4, -28, -84, -52, -104):
        if disc % 4 not in (0, 1):
            continue
        count = 0
        bound = math.isqrt(abs(disc) // 3) + 1
        for a in range(1, bound + 1):
            for b in range(-a, a + 1):
                for c in range(a, abs(disc)):
                    if b * b - 4 * a * c != disc:
                        continue
                    form = cmlab.QuadForm(a, b, c)
                    if form.is_reduced() and form.is_primitive():
                        count += 1
        assert count == cmlab.class_number(disc), disc


def test_reduced_form_invariants():
    for disc in (-20, -260, -120):
        for form in cmlab.reduced_forms(disc):
            assert form.discriminant() == disc
            assert form.is_reduced() and form.is_primitive()
            assert form.tau().imag_float() > 0.8


def test_j_special_values():
    j_i = cmlab.j_tau(mpc(0, 1), 192)
    assert abs(j_i - 1728) < mp.mpf(2) ** -150
    j_rho = cmlab.j_tau(mpc(0.5, math.sqrt(3) / 2), 192)
    assert abs(j_rho) < mp.mpf(2) ** -40
    with mp.workprec(256):
        j_sqrt5 = cmlab.j_tau(cmlab.Tau(0, 1, 5, 1).to_mpc(), 256)
    assert 1264538 < j_sqrt5.real < 1264539
    with pytest.raises(ValueError):
        cmlab.j_tau(mpc(0, -1), 128)


def test_class_polynomial_values():
    assert cmlab.class_polynomial(-20).coefficients == (-681472000, -1264000, 1)
    assert cmlab.class_polynomial(-4).coefficients == (-1728, 1)
    assert cmlab.class_polynomial(-28).coefficients == (-16581375, 1)


def test_class_polynomial_residual_and_stability():
    poly = cmlab.class_polynomial(-20)
    assert poly.max_rounding_error < 1e-6
    # residual |H(j(tau))| at doubled precision
    prec = 2 * poly.precision_used
    with mp.workprec(prec):
        for form in cmlab.reduced_forms(-20):
            root = cmlab.j_tau(form.tau().to_mpc(), prec)
            value = mp.mpf(0)
            for c in reversed(poly.coefficients):
                value = value * root + c
            assert abs(value) < mp.mpf(2) ** (-poly.precision_used // 2)
    # identical integers at a doubled starting precision
    again = cmlab.class_polynomial(-20, precision=2 * poly.precision_used)
    assert again.coefficients == poly.coefficients


def _j_by_e4_delta(tau, precision):
    """Reference j = E4^3 / Delta from the q-expansions E4 = 1 + 240 sum sigma3(n) q^n
    and Delta = q prod (1 - q^n)^24, cut where |q|^n < 2^-(precision + 64)."""
    with mp.workprec(precision + 64):
        q = mp.exp(2j * mp.pi * tau)
        terms = int(mp.ceil((precision + 64) * mp.ln(2) / (2 * mp.pi * tau.imag))) + 2
        sigma3 = [0] * (terms + 1)
        for d in range(1, terms + 1):
            for multiple in range(d, terms + 1, d):
                sigma3[multiple] += d**3
        e4, product, qn = mpc(1), mpc(1), mpc(1)
        for n in range(1, terms + 1):
            qn *= q
            e4 += 240 * sigma3[n] * qn
            product *= 1 - qn
        return e4**3 / (q * product**24)


ORACLE_DISCRIMINANTS = tuple(row.discriminant for row in cmlab.table_rows()) + (
    -28, -84, -52, -104
)


@pytest.mark.parametrize("disc", ORACLE_DISCRIMINANTS)
def test_j_eta_quotient_matches_e4_delta_oracle(disc):
    """The eta quotient agrees with the E4^3 / Delta q-expansion to 2^-precision
    relative, at the default precision of D and at twice it, on every tau of
    the table row of D and on every reduced form of D."""
    rows = {row.discriminant: row for row in cmlab.table_rows()}
    taus = [form.tau() for form in cmlab.reduced_forms(disc)]
    if disc in rows:
        taus += list(rows[disc].taus)
    base = cmlab.default_precision(disc)
    for precision in (base, 2 * base):
        with mp.workprec(precision + 64):
            for tau in taus:
                point = tau.to_mpc()
                reference = _j_by_e4_delta(point, precision)
                error = abs(cmlab.j_tau(point, precision) - reference)
                assert error <= mp.mpf(2) ** -precision * abs(reference), (disc, tau)


def test_j_truncation_overflow():
    with pytest.raises(ValueError):
        cmlab.j_tau(mpc(0, 1e-6), 256)


def test_class_polynomial_rounding_escalation_fails_eventually():
    with pytest.raises(ArithmeticError):
        cmlab.polynomial_from_taus(
            [f.tau() for f in cmlab.reduced_forms(-260)], precision=4
        )


def test_class_polynomial_cache(tmp_path):
    path = tmp_path / "cache.txt"
    cache = cmlab.ClassPolyCache(str(path))
    poly = cmlab.class_polynomial(-20, cache=cache)
    text = path.read_text()
    assert text.startswith("-20 2 ")
    line = text.split()
    assert line[3:] == [str(c) for c in poly.coefficients]
    # warm cache returns identical integers without recomputing
    cached = cmlab.class_polynomial(-20, cache=cache)
    assert cached.coefficients == poly.coefficients
    # append-only, last record wins
    cache.store(cmlab.ClassPolynomial(-20, (1, 0, 1), 64, 0.0))
    assert cmlab.class_polynomial(-20, cache=cache).coefficients == (1, 0, 1)
    assert len(path.read_text().splitlines()) == 2



def test_class_polynomial_cache_concurrent_writers(tmp_path):
    """Four cache objects appending to one file from four threads keep every
    record; a read-then-rename store loses records to a concurrent writer."""
    path = str(tmp_path / "cache.txt")

    def writer(first):
        cache = cmlab.ClassPolyCache(path)
        for d in range(first, 101, 4):
            cache.store(cmlab.ClassPolynomial(-d, (d, 1), 64, 0.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(1, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    records = cmlab.ClassPolyCache(path).load()
    assert records == {-d: (64, (d, 1)) for d in range(1, 101)}


def test_class_polynomial_cache_rejects_torn_lines(tmp_path):
    path = tmp_path / "cache.txt"
    cache = cmlab.ClassPolyCache(str(path))
    cache.store(cmlab.ClassPolynomial(-20, (-681472000, -1264000, 1), 906, 0.0))
    with open(path, "a", encoding="ascii") as handle:
        handle.write("-40 2 906 12")  # a writer stopped mid-record
    assert cache.load() == {-20: (906, (-681472000, -1264000, 1))}
    with open(path, "a", encoding="ascii") as handle:
        handle.write(" ")
    # the next record starts a new line, so only the torn line is dropped
    cache.store(cmlab.ClassPolynomial(-15, (-121287375, 191025, 1), 906, 0.0))
    assert cache.load() == {
        -20: (906, (-681472000, -1264000, 1)),
        -15: (906, (-121287375, 191025, 1)),
    }
    with open(path, "a", encoding="ascii") as handle:
        handle.write("-40 2 -")
    assert set(cache.load()) == {-20, -15}

def test_congruence_check_matches_quadratic_field_oracle():
    """Independent oracle for h = 2: write the roots as a +- b sqrt(5) from
    the integer coefficients and compute the valuation directly in Z[sqrt 5]."""
    poly = cmlab.class_polynomial(-20)
    e0, e1 = poly.coefficients[0], -poly.coefficients[1]  # X^2 - e1 X + e0
    disc = e1 * e1 - 4 * e0
    assert disc % 5 == 0
    s = math.isqrt(disc // 5)
    assert 5 * s * s == disc and e1 % 2 == 0 and s % 2 == 0
    a, b = e1 // 2, s // 2  # roots a +- b sqrt(5)
    # (a + b sqrt5)^2 - 125 = (a^2 + 5 b^2 - 125) + 2ab sqrt5
    rational = a * a + 5 * b * b - 125
    irrational = 2 * a * b
    oracle = min(val_rat(rational, 5), val_rat(irrational, 5) + F(1, 2))
    result = cmlab.congruence_check(poly, cmlab.standard_spec(5, "-"))
    assert result.min_root_valuation == oracle == F(9, 2)
    assert result.passed


def test_congruence_check_degree_one_oracle():
    poly = cmlab.class_polynomial(-28)
    j0 = poly.coefficients[0] * -1 - 1728  # the single root minus the center
    oracle = val_rat(j0**4 - 7**4, 7)
    result = cmlab.congruence_check(poly, cmlab.standard_spec(7, "-"))
    assert result.min_root_valuation == oracle == 5
    assert result.passed


def test_congruence_case2_passes():
    poly = cmlab.class_polynomial(-40)
    result = cmlab.congruence_check(poly, cmlab.standard_spec(5, "+"))
    assert result.passed and result.min_root_valuation > 3
    # and the wrong sign fails
    wrong = cmlab.congruence_check(poly, cmlab.standard_spec(5, "-"))
    assert not wrong.passed


def test_characteristic_polynomial_is_the_resultant():
    """Dual route: the trace-based characteristic polynomial equals
    Res_j(H(j), w0 - g(j)) computed via the Sylvester matrix at deg H + 1
    integer points w0, hence as polynomials in w."""
    H = list(cmlab.class_polynomial(-20).coefficients)
    spec = cmlab.standard_spec(5, "-")
    shifted = [-spec.prime_power, 0, 1]  # j^2 - 125
    via_traces = cmlab.characteristic_polynomial(shifted, H)
    samples = [(w0, resultant_coeffs(H, [w0 - shifted[0], 0, -1])) for w0 in range(len(H))]
    assert list(via_traces) == interpolate_integer_polynomial(samples)


def test_congruence_case_classification():
    assert cmlab.congruence_case(-20, 5) == 1
    assert cmlab.congruence_case(-40, 5) == 2
    assert cmlab.congruence_case(-28, 7) == 1
    assert cmlab.congruence_case(-84, 7) == 2
    assert cmlab.congruence_case(-52, 13) == 1
    assert cmlab.congruence_case(-104, 13) == 2
    with pytest.raises(ValueError):
        cmlab.congruence_case(-50, 5)  # 25 | 50
    with pytest.raises(ValueError):
        cmlab.congruence_case(-21, 5)  # 5 does not divide


def test_h20_roots_lie_on_the_al_circle():
    """Every root of H(-20) has v5(j) = 3/2: the table rows land on the
    circle the four CM disks live in."""
    poly = cmlab.class_polynomial(-20)
    from stablelab.exactmath import newton_polygon

    polygon = newton_polygon([val_rat(c, 5) for c in poly.coefficients])
    assert polygon.root_valuations() == ((F(3, 2), 2),)


def test_table_crosscheck_row():
    rows = {row.discriminant: row for row in cmlab.table_rows()}
    result = cmlab.table_crosscheck(rows[-20])
    assert result.passed
    # tau values of the row and of the reduced forms give the same multiset
    assert len(rows[-20].taus) == 2


def test_table_rows_shape():
    rows = cmlab.table_rows()
    assert len(rows) == 12
    assert sum(1 for row in rows if row.case == 1) == 6
    assert len(rows[-1].taus) == 8  # the h = 8 row
    for row in rows:
        assert cmlab.congruence_case(row.discriminant, 5) == row.case
