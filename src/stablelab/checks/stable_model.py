"""Stable-model suite: the plane models, ramification data and reductions of
section 2."""

from __future__ import annotations

from fractions import Fraction as F

from .. import CertificateError, curve125
from ..exactmath.kernel import val_rat
from ..exactmath.polygon import root_valuation_multiset
from . import Check, Config, once


def _fmt_multiset(ms) -> str:
    return "{" + ", ".join(f"{v} x{n}" for v, n in ms) + "}"


def _check_table1(g_plus):
    nonzero = sum(1 for _ in g_plus.items())
    roundtrip = curve125.normal_form(
        g_plus.substitute("x0", curve125.x - curve125.r), [curve125.R_SYMBOL]
    )
    if roundtrip != curve125.F_PLUS:
        raise CertificateError("round-trip back to the original model is inexact")
    return (f"all {len(curve125.TABLE1)} table cells match exactly ({nonzero} monomials); "
            "round-trip exact")


def _check_ram_valuations(ram):
    vals = tuple(val_rat(c, 5) for c in ram.p_ram_y)
    if vals != curve125.P_RAM_Y_VALUATIONS:
        raise CertificateError(f"p_ram_y valuations {vals} differ from the published table")
    y_roots = root_valuation_multiset(ram.p_ram_y, 5)
    x_roots = root_valuation_multiset(ram.p_ram_x, 5)
    if y_roots != ((F(7, 10), 10),):
        raise CertificateError(f"y-polygon gives {_fmt_multiset(y_roots)}")
    if x_roots != ((F(2, 5), 10),):
        raise CertificateError(f"x-polygon gives {_fmt_multiset(x_roots)}")
    published = ",".join(map(str, reversed(curve125.P_RAM_Y_VALUATIONS)))
    return f"coefficient valuations ({published}); all ten roots at v(y)=7/10, v(x)=2/5"


def _check_y_distances(ram):
    expected = ((F(7, 10), 50), (F(4, 5), 40))
    if ram.y_distance_multiset != expected:
        raise CertificateError(f"computed {_fmt_multiset(ram.y_distance_multiset)}")
    clusters = curve125.cluster_sizes(ram.y_distance_multiset)
    if clusters != (5, 5):
        raise CertificateError(f"multiset is not forced into two 5-clusters: {clusters}")
    return "y-differences {7/10 x50, 4/5 x40}; realizable only as two 5-clusters"


def _check_x_distances(ram):
    claimed = ((F(1, 2), 90),)
    if ram.x_distance_multiset != claimed:
        raise CertificateError(
            f"claimed {{1/2 x90}}, computed {_fmt_multiset(ram.x_distance_multiset)}: "
            "five cross-cluster pairs are closer (7/10); the in-cluster distances "
            "used downstream are all 1/2"
        )
    return "x-differences all at valuation 1/2"


def _check_eq3(g_plus):
    curve125.verify_dominance_eq3(g_plus)
    return (
        "minimum 5/2 attained exactly by x0^5, 25*x0, 15*y^2; "
        "polygon in x0 has single slope -1/2 (all five roots at v=1/2)"
    )


def _check_eq4(g_plus):
    residual_min = curve125.reduction_eq4(g_plus)
    return (
        f"residue equation y1^2 = 2*x1^5 + 2*x1 over F5; "
        f"all residual monomials have valuation >= {residual_min}"
    )


def _check_hensel(delta):
    return (
        "v(h'(1)) = 0 and v(h(1)) > 0 on the open annulus 1/5 < v(s) < 1/4 "
        "(v(h(1)) is zero exactly at the boundary circles); "
        f"bound {delta} exported at v(s) = 6/25"
    )


def _check_eq6(delta):
    residual_min = curve125.reduction_eq6(delta)
    return (
        "valuation-0 part matches u0^2 - (a^5/(sqrt15*b*r))s0^5*u0 + 5/(b^2*r) "
        f"term for term; residual minimum {residual_min}"
    )


def _check_z_identity():
    curve125.fiber_square_identity()
    return "(2xu - y)^2 - (y^2 - 20x) = 4x * (xu^2 - yu + 5) exactly"


def suite(config: Config) -> list[Check]:
    g_plus = once(curve125.build_shifted_model)  # raises on any cell mismatch
    ram = once(curve125.ramification_polynomials)
    delta = once(lambda: curve125.hensel_certificate(g_plus()))
    return [
        Check("table-1-match", "table 1", lambda: _check_table1(g_plus())),
        Check("ramification-valuation-table", "section 2.2", lambda: _check_ram_valuations(ram())),
        Check("claim-2.2.2-y-distances", "claim 2.2.2", lambda: _check_y_distances(ram())),
        Check("claim-2.2.2-x-distances", "claim 2.2.2", lambda: _check_x_distances(ram())),
        Check("claim-2.1.1-dominance", "eq 3", lambda: _check_eq3(g_plus())),
        Check("claim-2.1.1-reduction", "eq 4", lambda: _check_eq4(g_plus())),
        Check("claim-2.2.1-hensel", "claim 2.2.1", lambda: _check_hensel(delta())),
        Check("claim-2.3.2-reduction", "eq 6", lambda: _check_eq6(delta())),
        Check("claim-2.3.1-z-identity", "claim 2.3.1", _check_z_identity),
    ]
