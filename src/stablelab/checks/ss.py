"""Supersingular suite: the 5-division polynomial and torsion profiles of
claim 3.2.1."""

from __future__ import annotations

from fractions import Fraction as F

from .. import CertificateError, sslab
from ..exactmath.kernel import val_rat
from . import Check, Config, once


def _check_division_polynomial_5(psi5):
    if psi5.degree("x") != 12:
        raise CertificateError(f"degree {psi5.degree('x')}")
    if psi5.coefficient("x", 12) != 5:
        raise CertificateError(f"leading coefficient {psi5.coefficient('x', 12)}")
    coeff10 = psi5.coefficient("x", 10)
    if coeff10 != 62 * sslab.t or val_rat(62, 5) != 0:
        raise CertificateError(f"x^10 coefficient {coeff10}")
    return "degree 12, leading coefficient 5, x^10 coefficient 62t (unit times t)"


def _check_breakpoint(polygon):
    if polygon.breakpoints != (F(5, 6),):
        raise CertificateError(f"breakpoints {polygon.breakpoints}")
    if polygon.vertex_sets() != ((0, 10, 12), (0, 12)):
        raise CertificateError(f"vertex sets {polygon.vertex_sets()}")
    return "vertices {(0,0),(10,lam),(12,1)} below 5/6 and {(0,0),(12,1)} above"


def _check_profile(polygon, lam, x_roots, z_vals, canonical):
    profile = sslab.torsion_profile(polygon, lam)
    got = (profile.x_root_valuations, profile.z_valuations, profile.canonical_subgroup)
    if got != (x_roots, z_vals, canonical):
        raise CertificateError(f"profile {profile}")


def _check_profile_below(polygon):
    _check_profile(polygon, F(1, 2), ((F(-1, 4), 2), (F(-1, 20), 10)),
                   ((F(1, 40), 20), (F(1, 8), 4)), True)
    return "at lam=1/2: 20 points at v(z)=lam/20, 4 at (1-lam)/4; canonical subgroup"


def _check_profile_above(polygon):
    _check_profile(polygon, F(9, 10), ((F(-1, 12), 12),), ((F(1, 24), 24),), False)
    return "at lam=9/10: all 24 nonzero points at v(z)=1/24; no canonical subgroup"


def _check_threshold(polygon):
    threshold = sslab.too_ss_threshold(polygon)
    if threshold != F(5, 2):
        raise CertificateError(f"threshold {threshold}")
    return "j(t) = 6912t^3/(4t^3+27), v(j) = 3v(t); threshold v5(j) >= 5/2"


def suite(config: Config) -> list[Check]:
    psi5 = once(sslab.division_polynomial_5)
    polygon = once(lambda: sslab.torsion_polygon(psi5()))
    return [
        Check("claim-3.2.1-division-polynomial", "claim 3.2.1",
              lambda: _check_division_polynomial_5(psi5())),
        Check("claim-3.2.1-breakpoint", "claim 3.2.1", lambda: _check_breakpoint(polygon())),
        Check("claim-3.2.1-profile-below", "claim 3.2.1", lambda: _check_profile_below(polygon())),
        Check("claim-3.2.1-profile-above", "claim 3.2.1", lambda: _check_profile_above(polygon())),
        Check("claim-3.2.1-threshold", "claim 3.2.1", lambda: _check_threshold(polygon())),
    ]
