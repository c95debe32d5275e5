from fractions import Fraction as F

import pytest

from stablelab import CertificateError, curve125, modmaps
from stablelab.exactmath.kernel import Affine, squarefree_part, val_rat
from stablelab.exactmath.poly import SymbolicPolynomial, poly_to_coeffs, sym
from stablelab.exactmath.resultant import interpolate_integer_polynomial, resultant_coeffs


@pytest.fixture(scope="module")
def maps():
    return modmaps.builtin_maps()


def test_transcription_degrees(maps):
    assert maps["pi1_j"].degrees() == (6, 5)
    assert maps["pi5_j"].degrees() == (6, 1)
    assert maps["pi1_t"].degrees() == (5, 4)
    assert maps["pi5_t"].degrees() == (5, 0)


def test_transcription_values(maps):
    u = F(2)
    assert maps["pi5_t"].evaluate(u) == u * (u**4 + 5 * u**3 + 15 * u**2 + 25 * u + 25)
    t = F(3)
    assert maps["pi1_j"].evaluate(t) == (t**2 + 250 * t + 3125) ** 3 / t**5
    assert maps["w5"].evaluate(t) == F(125, 3)


def test_map_constructor_rejects_common_factor():
    t = sym("t")
    with pytest.raises(ValueError):
        modmaps.RationalMap("bad", "t", "j", t**2 - 1, t - 1)
    with pytest.raises(ValueError):
        modmaps.RationalMap("bad", "t", "j", t, t * 0)


def test_involutions(maps):
    assert modmaps.involution_identity(maps["w5"]) is None
    assert modmaps.involution_identity(maps["w25"]) is None


def test_involution_identity_rejects_a_map_not_of_the_form_c_over_x():
    """125/(t + 1) composed with itself is 125(t + 1)/(t + 126), not t."""
    t = sym("t")
    shifted = modmaps.RationalMap("w", "t", "t", SymbolicPolynomial.constant(125), t + 1)
    composed = "^w o w = \\(125\\*t \\+ 125\\) / \\(t \\+ 126\\), not t$"
    with pytest.raises(CertificateError, match=composed):
        modmaps.involution_identity(shifted)


def test_al_fixed_circles(maps):
    assert modmaps.al_fixed_circle(maps["w5"]) == F(3, 2)
    assert modmaps.al_fixed_circle(maps["w25"]) == F(1, 2)
    hypothetical = modmaps.RationalMap("c1", "t", "t", sym("t") * 0 + 1, sym("t"))
    assert modmaps.al_fixed_circle(hypothetical) == 0
    with pytest.raises(ValueError):
        modmaps.al_fixed_circle(maps["pi5_t"])


def test_image_valuations(maps):
    cert = modmaps.image_valuation(maps["pi5_t"], F(3, 10))
    assert cert.lower_bound == F(3, 2) and cert.unique

    cert = modmaps.image_valuation(maps["pi1_j"], F(3, 2))
    assert cert.lower_bound == F(3, 2) and cert.unique

    cert = modmaps.image_valuation(maps["pi1_j"], F(5, 2))
    assert cert.lower_bound == F(5, 2) and not cert.unique  # a bound only: a tie


def test_image_valuation_needs_a_dominant_denominator_piece():
    """On v(t) = 0 the denominator t - 1 ties t with -1, and they cancel at
    t = 6: v(t) = 0 there, yet v(1/(t - 1)) = -1, so no bound v >= 0 holds
    and the circle image certifies nothing."""
    rmap = modmaps.RationalMap("x", "t", "j", SymbolicPolynomial.constant(1), sym("t") - 1)
    assert val_rat(6, 5) == 0 and val_rat(rmap.evaluate(6), 5) == -1
    with pytest.raises(CertificateError, match="denominator t - 1 of x has no single lowest"):
        modmaps.image_valuation(rmap, 0)
    # off the tie the denominator's piece is exact: v(t) = 1 gives v(j) = 0
    assert modmaps.image_valuation(rmap, 1) == modmaps.ImageCertificate(F(0), True)


def test_image_valuation_on_a_cell(maps):
    """On 0 < v(t) < 5/2 the pieces 6 v(t) of t^6 over 5 v(t) of t^5 decide
    v(j) = v(t); on (0, 3) the constant 15 of 5^15 undercuts 6 v(t) above
    5/2, so no numerator piece dominates the whole cell."""
    assert modmaps.cell_image_valuation(maps["pi1_j"], F(0), F(5, 2)) == Affine(F(0), F(1))
    assert modmaps.cell_image_valuation(maps["pi1_j"], F(0), F(3)) is None  # no dominant piece
    # u^5 below 25u while v(u) < 1/2
    assert modmaps.cell_image_valuation(maps["pi5_t"], F(0), F(1, 2)) == Affine(F(0), F(5))


def test_image_stability_within_cell(maps):
    for eps in (F(1, 1000), F(-1, 1000), F(3, 997)):
        lam = F(3, 10) + eps
        cert = modmaps.image_valuation(maps["pi5_t"], lam)
        assert cert.unique and cert.lower_bound == 5 * lam


def test_ramification_image_polynomial(maps):
    eliminant = modmaps.ramification_image_polynomial(maps["pi5_t"])
    part = squarefree_part(eliminant)
    assert [c // part[-1] for c in part] == [-125, 0, 1]
    degree = len(eliminant) - 1
    assert degree == 10 and degree % 2 == 0
    assert isinstance(eliminant, tuple) and all(isinstance(c, int) for c in eliminant)
    # a symbolic root tau with tau^2 = 125 has valuation v(125)/2 = 3/2
    assert val_rat(125, 5) / 2 == F(3, 2)


def test_ramification_u_polynomial_matches_the_monomial_rule():
    """x = 5/u^2 and y = 10/u, cleared of u^10, send each monomial x^i y^j of
    the plus-curve model to 5^i 10^j u^(10 - 2i - j)."""
    by_monomial = [0] * 11
    for mono, coeff in curve125.F_PLUS.items():
        exps = dict(mono)
        i, j = exps.get("x", 0), exps.get("y", 0)
        by_monomial[10 - 2 * i - j] += int(coeff) * 5**i * 10**j
    p_ram_u = modmaps.ramification_u_polynomial()
    assert p_ram_u == by_monomial
    assert p_ram_u == [-3125, 0, 15625, 31250, 34375, 25000, 13125, 5000, 1375, 250, 25]


def test_ramification_image_sylvester_interpolation_route(maps):
    """T(t) = Res_u(p_ram_u, t - pi5_t(u)) by Sylvester/Bareiss at 11 integer
    points t0, then interpolation, equals the power-sum eliminant."""
    p_ram_u = modmaps.ramification_u_polynomial()
    assert len(p_ram_u) == 11 and p_ram_u[-1] == 25
    pi5_t = [int(c) for c in poly_to_coeffs(maps["pi5_t"].numerator, "u")]
    samples = [
        (t0, resultant_coeffs(p_ram_u, [t0 - pi5_t[0]] + [-c for c in pi5_t[1:]]))
        for t0 in range(-5, 6)
    ]
    eliminant = modmaps.ramification_image_polynomial(maps["pi5_t"])
    assert interpolate_integer_polynomial(samples) == list(eliminant)


def test_ramification_image_rejects_another_map():
    """u -> u^5 sends the ramification points elsewhere: its eliminant's
    squarefree part is not t^2 - 125, and the certificate raises."""
    u = sym("u")
    wrong = modmaps.RationalMap("u5", "u", "t", u**5, SymbolicPolynomial.constant(1))
    with pytest.raises(CertificateError, match="not t\\^2 - 125"):
        modmaps.ramification_image_polynomial(wrong)


def test_cm_disk_identities_reject_the_boundary(monkeypatch):
    """v5(5^5/r^5 - 5^3) = 3 is the boundary of the disk, not inside it."""
    monkeypatch.setattr(modmaps, "field_valuation", lambda *args: F(5))
    with pytest.raises(CertificateError, match="= 3, not > 3"):
        modmaps.cm_disk_identities()


def test_cm_disk_identities():
    assert modmaps.cm_disk_identities() == F(17, 5)  # > 3
    assert val_rat(125, 5) == 3  # the boundary itself is not inside the disk
    j = sym("j")
    assert (j**2 - 125) * (j**2 + 125) == j**4 - 15625
