"""The individual verification checks, grouped into suites.

Every check returns (status, details) with status "pass", "fail" or
"skipped" and never raises: a broken sibling must not silence the rest of a
suite.  Checks cite the table / claim / conjecture they certify via the
anchors in report.KNOWN_ANCHORS.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import cmlab, curve125, ledger, modmaps, quatlab, sslab
from .exactmath import INF, is_prime, val_rat

F = Fraction


@dataclass(frozen=True)
class Config:
    primes: tuple[int, ...] | None = None
    discriminants_case1: tuple[int, ...] | None = None
    discriminants_case2: tuple[int, ...] | None = None
    disc_override: tuple[int, ...] | None = None
    precision_bits: int | None = None
    cache_dir: str | None = None
    g_edixhoven: int = 0
    ordinary_genera: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Check:
    id: str
    claim_ref: str
    run: Callable[[], tuple[str, str]]


def _fmt_multiset(ms) -> str:
    return "{" + ", ".join(f"{v} x{n}" for v, n in ms) + "}"


# -- stable-model suite -------------------------------------------------------


def _check_table1():
    model = curve125.build_shifted_model()  # raises on any cell mismatch
    nonzero = sum(1 for _ in model.g_plus.items())
    roundtrip = curve125.normal_form(
        model.g_plus.substitute("x0", curve125.x - curve125.r), [curve125.R_SYMBOL]
    )
    if roundtrip != curve125.plus_curve_model().f_plus:
        return "fail", "round-trip back to the original model is inexact"
    cells = {
        (i, j)
        for i in range(6)
        for j in range(5)
        if not model.g_plus.coefficient("x0", i).coefficient("y", j).is_zero()
    }
    if len(cells) != 16:
        return "fail", f"expected 16 nonzero cells, found {len(cells)}"
    return "pass", f"all 16 table cells match exactly ({nonzero} monomials); round-trip exact"


def _check_ram_valuations():
    ram = curve125.ramification_polynomials()
    vals = tuple(val_rat(c, 5) for c in ram.p_ram_y)
    expected = tuple(
        F(v) if v != INF else INF for v in curve125.P_RAM_Y_VALUATIONS
    )
    if vals != expected:
        return "fail", f"p_ram_y valuations {vals} differ from the published table"
    y_roots = curve125.root_valuation_multiset(ram.p_ram_y)
    x_roots = curve125.root_valuation_multiset(ram.p_ram_x)
    if y_roots != ((F(7, 10), 10),):
        return "fail", f"y-polygon gives {_fmt_multiset(y_roots)}"
    if x_roots != ((F(2, 5), 10),):
        return "fail", f"x-polygon gives {_fmt_multiset(x_roots)}"
    return "pass", (
        "coefficient valuations (0,inf,3,4,4,5,5,6,6,7,7); "
        "all ten roots at v(y)=7/10, v(x)=2/5"
    )


def _check_y_distances():
    ram = curve125.ramification_polynomials()
    expected = ((F(7, 10), 50), (F(4, 5), 40))
    if ram.y_distance_multiset != expected:
        return "fail", f"computed {_fmt_multiset(ram.y_distance_multiset)}"
    clusters = curve125.cluster_sizes(ram.y_distance_multiset)
    if clusters != (5, 5):
        return "fail", f"multiset is not forced into two 5-clusters: {clusters}"
    return "pass", "y-differences {7/10 x50, 4/5 x40}; realizable only as two 5-clusters"


def _check_x_distances():
    ram = curve125.ramification_polynomials()
    claimed = ((F(1, 2), 90),)
    if ram.x_distance_multiset == claimed:
        return "pass", "x-differences all at valuation 1/2"
    return "fail", (
        f"claimed {{1/2 x90}}, computed {_fmt_multiset(ram.x_distance_multiset)}: "
        "five cross-cluster pairs are closer (7/10); the in-cluster distances "
        "used downstream are all 1/2"
    )


def _check_eq3():
    cert = curve125.verify_dominance_eq3()
    if not cert.passed:
        return "fail", f"dominance certificate failed: {cert.data}"
    return "pass", (
        "minimum 5/2 attained exactly by x0^5, 25*x0, 15*y^2; "
        "polygon in x0 has single slope -1/2 (all five roots at v=1/2)"
    )


def _check_eq4():
    cert = curve125.verify_reduction("eq4")
    if not cert.passed:
        return "fail", f"reduction certificate failed: {cert.data}"
    return "pass", (
        f"residue equation y1^2 = 2*x1^5 + 2*x1 over F5; "
        f"all residual monomials have valuation >= {cert.residual_min}"
    )


def _check_hensel():
    cert = curve125.hensel_certificate()
    if not cert.passed:
        return "fail", f"envelope certificate failed: {cert.data}"
    delta = cert.data["delta_at_ram_circle"]
    return "pass", (
        "v(h'(1)) = 0 on the closed interval [1/5, 1/4]; v(h(1)) > 0 on the open "
        f"annulus (zero exactly at the boundary circles); bound {delta} exported "
        "at v(s) = 6/25"
    )


def _check_eq6():
    cert = curve125.verify_reduction("eq6")
    if not cert.passed:
        return "fail", f"reduction certificate failed: {cert.data}"
    return "pass", (
        "valuation-0 part matches u0^2 - (a^5/(sqrt15*b*r))s0^5*u0 + 5/(b^2*r) "
        f"term for term; residual minimum {cert.residual_min}"
    )


def _check_z_identity():
    cert = curve125.fiber_square_identity()
    if not cert.passed:
        return "fail", "polynomial identity has a nonzero remainder"
    # numeric spot check at x=1, y=0, u=t: (2t)^2 + 20 = 4(t^2 + 5)
    t = curve125.sym("t")
    lhs = (2 * t) ** 2 - (-20)
    if lhs != 4 * (t**2 + 5):
        return "fail", "specialization x=1, y=0 spot check failed"
    return "pass", "(2xu - y)^2 - (y^2 - 20x) = 4x * (xu^2 - yu + 5) exactly"


def stable_model_suite(config: Config) -> list[Check]:
    return [
        Check("table-1-match", "table 1", _check_table1),
        Check("ramification-valuation-table", "section 2.2", _check_ram_valuations),
        Check("claim-2.2.2-y-distances", "claim 2.2.2", _check_y_distances),
        Check("claim-2.2.2-x-distances", "claim 2.2.2", _check_x_distances),
        Check("claim-2.1.1-dominance", "eq 3", _check_eq3),
        Check("claim-2.1.1-reduction", "eq 4", _check_eq4),
        Check("claim-2.2.1-hensel", "claim 2.2.1", _check_hensel),
        Check("claim-2.3.2-reduction", "eq 6", _check_eq6),
        Check("claim-2.3.1-z-identity", "claim 2.3.1", _check_z_identity),
    ]


# -- maps suite ---------------------------------------------------------------

_EXPECTED_DEGREES = {
    "pi1_j": (6, 5),
    "pi5_j": (6, 1),
    "w5": (0, 1),
    "pi1_t": (5, 4),
    "pi5_t": (5, 0),
    "w25": (0, 1),
}

# independent transcriptions used as double-entry bookkeeping
_DIRECT_FORMULAS = {
    "pi1_j": lambda t: (t**2 + 250 * t + 3125) ** 3 / t**5,
    "pi5_j": lambda t: (t**2 + 10 * t + 5) ** 3 / t,
    "w5": lambda t: F(125) / t,
    "pi1_t": lambda u: u**5 / (u**4 + 5 * u**3 + 15 * u**2 + 25 * u + 25),
    "pi5_t": lambda u: u * (u**4 + 5 * u**3 + 15 * u**2 + 25 * u + 25),
    "w25": lambda u: F(5) / u,
}


def _check_table2():
    maps = modmaps.builtin_maps()
    for name, rmap in maps.items():
        if rmap.degrees() != _EXPECTED_DEGREES[name]:
            return "fail", f"{name} has degrees {rmap.degrees()}"
        for point in (F(2), F(-3, 7)):
            if rmap.evaluate(point) != _DIRECT_FORMULAS[name](point):
                return "fail", f"{name} disagrees with direct evaluation at {point}"
    return "pass", "all six maps transcribed; degrees and two-point evaluations agree"


def _check_involutions():
    maps = modmaps.builtin_maps()
    for name in ("w5", "w25"):
        if not modmaps.is_involution(maps[name]):
            return "fail", f"{name} composed with itself is not the identity"
    return "pass", "w5 o w5 = id and w25 o w25 = id as exact rational maps"


def _check_al_circles():
    maps = modmaps.builtin_maps()
    got5 = modmaps.al_fixed_circle(maps["w5"])
    got25 = modmaps.al_fixed_circle(maps["w25"])
    if (got5, got25) != (F(3, 2), F(1, 2)):
        return "fail", f"fixed circles ({got5}, {got25})"
    return "pass", "fixed circles v(t) = 3/2 for w5 and v(u) = 1/2 for w25"


def _check_u_circle_image():
    cert = modmaps.image_valuation(
        modmaps.builtin_maps()["pi5_t"], modmaps.ValRegion("u", "circle", F(3, 10))
    )
    if cert.lower_bound != F(3, 2) or not cert.unique:
        return "fail", f"image valuation {cert.lower_bound}, unique={cert.unique}"
    return "pass", "v(u) = 3/10 maps to v(t) = 3/2, unique dominant monomial u^5"


def _check_j_circle_image():
    rmap = modmaps.builtin_maps()["pi1_j"]
    cert = modmaps.image_valuation(rmap, modmaps.ValRegion("t", "circle", F(3, 2)))
    if cert.lower_bound != F(3, 2) or not cert.unique:
        return "fail", f"image valuation {cert.lower_bound}, unique={cert.unique}"
    rng = random.Random(31)
    for _ in range(3):
        lam = F(3, 2) + F(rng.randint(-9, 9), 1000)
        pert = modmaps.image_valuation(rmap, modmaps.ValRegion("t", "circle", lam))
        # within this cell the image valuation is 3*(2*lam) - 5*lam = lam
        if not pert.unique or pert.lower_bound != lam:
            return "fail", f"perturbed circle at {lam} not stable"
    return "pass", "v(t) = 3/2 maps to v(j) = 3/2 (t^2 dominates alone; stable nearby)"


def _check_j_disk_image():
    cert = modmaps.image_valuation(
        modmaps.builtin_maps()["pi1_j"], modmaps.ValRegion("t", "circle", F(5, 2))
    )
    if cert.lower_bound != F(5, 2) or cert.unique:
        return "fail", f"bound {cert.lower_bound}, unique={cert.unique}"
    if cert.conclusion != "bound only (tie)":
        return "fail", f"conclusion {cert.conclusion!r}"
    return "pass", "v(t) = 5/2 gives only the bound v(j) >= 5/2 (t^2 ties 5^5): disk"


def _check_ram_image():
    cert = modmaps.ramification_image_polynomial()
    if cert.status != "pass":
        return "fail", f"squarefree part {cert.squarefree_part}"
    degree = len(cert.eliminant) - 1
    return "pass", f"eliminant degree {degree}; squarefree part t^2 - 125"


def _check_cm_disks():
    cert = modmaps.cm_disk_identities()
    if cert.status != "pass":
        return "fail", f"v = {cert.u_disk_valuation}, factorization {cert.factorization_ok}"
    return "pass", (
        f"v5(5^5/r^5 - 5^3) = {cert.u_disk_valuation} > 3 and "
        "(j^2-125)(j^2+125) = j^4 - 5^6"
    )


def maps_suite(config: Config) -> list[Check]:
    return [
        Check("table-2-transcription", "table 2", _check_table2),
        Check("al-involutions", "table 2", _check_involutions),
        Check("note-3.1.3-al-circles", "note 3.1.3", _check_al_circles),
        Check("claim-3.1.2-u-circle-image", "claim 3.1.2", _check_u_circle_image),
        Check("claim-3.1.2-j-circle-image", "claim 3.1.2", _check_j_circle_image),
        Check("claim-3.1.1-j-disk-image", "claim 3.1.1", _check_j_disk_image),
        Check("claim-3.1.2-ramification-image", "claim 3.1.2", _check_ram_image),
        Check("claim-3.1.2-cm-disks", "claim 3.1.2", _check_cm_disks),
    ]


# -- ss suite -----------------------------------------------------------------


def _check_division_polynomial():
    psi5 = sslab.division_polynomial_5()
    if psi5.degree("x") != 12:
        return "fail", f"degree {psi5.degree('x')}"
    if psi5.coefficient("x", 12) != 5:
        return "fail", f"leading coefficient {psi5.coefficient('x', 12)}"
    coeff10 = psi5.coefficient("x", 10)
    if coeff10 != 62 * sslab.t or val_rat(62, 5) != 0:
        return "fail", f"x^10 coefficient {coeff10}"
    return "pass", "degree 12, leading coefficient 5, x^10 coefficient 62t (unit times t)"


def _check_breakpoint():
    polygon = sslab.torsion_polygon()
    if polygon.breakpoints != (F(5, 6),):
        return "fail", f"breakpoints {polygon.breakpoints}"
    if polygon.vertex_sets() != ((0, 10, 12), (0, 12)):
        return "fail", f"vertex sets {polygon.vertex_sets()}"
    if sslab.canonical_breakpoint() != F(5, 6):
        return "fail", "slope balance lam/10 = (1-lam)/2 not at 5/6"
    return "pass", "vertices {(0,0),(10,lam),(12,1)} below 5/6 and {(0,0),(12,1)} above"


def _check_profile_below():
    profile = sslab.torsion_profile(F(1, 2))
    ok = (
        profile.x_root_valuations == ((F(-1, 4), 2), (F(-1, 20), 10))
        and profile.z_valuations == ((F(1, 40), 20), (F(1, 8), 4))
        and profile.canonical_subgroup
    )
    if not ok:
        return "fail", f"profile {profile}"
    return "pass", "at lam=1/2: 20 points at v(z)=lam/20, 4 at (1-lam)/4; canonical subgroup"


def _check_profile_above():
    profile = sslab.torsion_profile(F(9, 10))
    ok = (
        profile.x_root_valuations == ((F(-1, 12), 12),)
        and profile.z_valuations == ((F(1, 24), 24),)
        and not profile.canonical_subgroup
    )
    if not ok:
        return "fail", f"profile {profile}"
    return "pass", "at lam=9/10: all 24 nonzero points at v(z)=1/24; no canonical subgroup"


def _check_threshold():
    cert = sslab.too_ss_threshold()
    if cert.status != "pass" or cert.threshold != F(5, 2):
        return "fail", f"threshold {cert.threshold}, status {cert.status}"
    return "pass", "j(t) = 6912t^3/(4t^3+27), v(j) = 3v(t); threshold v5(j) >= 5/2"


def ss_suite(config: Config) -> list[Check]:
    return [
        Check("claim-3.2.1-division-polynomial", "claim 3.2.1", _check_division_polynomial),
        Check("claim-3.2.1-breakpoint", "claim 3.2.1", _check_breakpoint),
        Check("claim-3.2.1-profile-below", "claim 3.2.1", _check_profile_below),
        Check("claim-3.2.1-profile-above", "claim 3.2.1", _check_profile_above),
        Check("claim-3.2.1-threshold", "claim 3.2.1", _check_threshold),
    ]


# -- cm suite -----------------------------------------------------------------

_CONJECTURE_ANCHOR = {5: "conjecture 3.3.1", 7: "conjecture 3.3.2", 13: "conjecture 3.3.3"}


def _cache(config: Config) -> cmlab.ClassPolyCache | None:
    if config.cache_dir is None:
        return None
    return cmlab.ClassPolyCache(os.path.join(config.cache_dir, "class_poly_cache.txt"))


def _make_crosscheck(row: cmlab.TableRow):
    def run():
        h = cmlab.class_number(row.discriminant)
        if len(row.taus) != h:
            return "fail", f"row has {len(row.taus)} tau values but h({row.discriminant}) = {h}"
        if not cmlab.table_crosscheck(row):
            return "fail", "row tau-polynomial differs from the class polynomial"
        return "pass", (
            f"{row.label}: {len(row.taus)} tau values; row polynomial equals "
            f"H({row.discriminant})"
        )

    return run


def _make_congruence(disc: int, p: int, case: int, config: Config):
    def run():
        try:
            spec = cmlab.standard_spec(p, "-" if case == 1 else "+")
        except ValueError as exc:
            return "skipped", str(exc)
        if val_rat(disc, p) != 1:
            return "skipped", f"p does not exactly divide {disc}: hypothesis excluded"
        H = cmlab.class_polynomial(disc, config.precision_bits, _cache(config))
        result = cmlab.congruence_check(H, spec)
        sign = "-" if spec.sign == "-" else "+"
        description = (
            f"v{p}((j - {spec.center})^{spec.exponent} {sign} {spec.prime_power})"
        )
        if not result.passed:
            return "fail", (
                f"{description} has minimum {result.min_root_valuation}, "
                f"needs > {spec.bound}"
            )
        return "pass", (
            f"{description} > {spec.bound} per root "
            f"(minimum {result.min_root_valuation}, h = {H.degree}, "
            f"precision {H.precision_used}, rounding error < 1e-6)"
        )

    return run


def cm_suite(config: Config) -> list[Check]:
    primes = config.primes if config.primes is not None else (5, 7, 13)
    checks: list[Check] = []
    rows_by_disc = {row.discriminant: row for row in cmlab.table_rows()}

    for p in primes:
        if p not in (5, 7, 13):
            continue
        anchor = _CONJECTURE_ANCHOR[p]
        if p == 5:
            case1 = config.discriminants_case1 or tuple(
                row.discriminant for row in cmlab.table_rows() if row.case == 1
            )
            case2 = config.discriminants_case2 or tuple(
                row.discriminant for row in cmlab.table_rows() if row.case == 2
            )
            selected = [(d, 1) for d in case1] + [(d, 2) for d in case2]
        else:
            selected = [(d, case) for d, case in cmlab.EXTRA_DISCRIMINANTS[p]]
        if config.disc_override:
            override = []
            for d in config.disc_override:
                try:
                    case = cmlab.congruence_case(d, p)
                except ValueError:
                    case = 0  # skipped downstream
                override.append((d, case))
            selected = override

        for disc, case in selected:
            tag = f"D{abs(disc):04d}"
            row = rows_by_disc.get(disc)
            if row is not None and p == 5:
                checks.append(
                    Check(f"{anchor.replace(' ', '-')}-{tag}-row", "tables 3-4",
                          _make_crosscheck(row))
                )
            checks.append(
                Check(f"{anchor.replace(' ', '-')}-{tag}-congruence", anchor,
                      _make_congruence(disc, p, case, config))
            )
    return checks


# -- quat suite ----------------------------------------------------------------


def _make_algebra_check(p: int):
    def run():
        alpha = quatlab.smallest_nonresidue(p)
        table = quatlab.build_algebra(quatlab.AlgebraParams(p, alpha))
        if table[(1, 2)] != (0, 0, 0, 1):
            return "fail", "i * eps_j != eps_k"
        if table[(2, 3)] != (0, 0, 0, 0) or table[(2, 2)] != (0, 0, 0, 0):
            return "fail", "nilpotent products do not vanish"
        if table[(1, 3)] != (0, 0, alpha % p, 0):
            return "fail", "i * eps_k != alpha * eps_j"
        return "pass", f"alpha = {alpha}: relations hold, associativity exhaustive on basis"

    return run


def _make_orbit_check(p: int):
    def run():
        alpha = quatlab.smallest_nonresidue(p)
        try:
            report = quatlab.orbit_analysis(quatlab.AlgebraParams(p, alpha))
        except AssertionError as exc:
            return "fail", str(exc)
        return "pass", (
            f"{len(report.orbits)} orbits of size {p + 1}; stabilizers F_p^*; "
            "invariant c^2 - alpha*d^2 separates classes"
        )

    return run


def _check_uniformizer():
    try:
        found = quatlab.uniformizer_image_search()
    except AssertionError as exc:
        return "fail", str(exc)
    return "pass", (
        "image class is exactly {+-2eps_j, +-2eps_k, +-3eps_j +- 3eps_k} "
        f"({len(found)} elements)"
    )


def _check_refinement():
    try:
        parts = quatlab.aut_refinement()
    except AssertionError as exc:
        return "fail", str(exc)
    return "pass", f"conjugation by i splits the class into {len(parts)} pairs x, -x"


def _check_class_counts():
    cases = {(7, 4): (4, 8), (5, 6): (2, 4), (13, 2): (14, 28)}
    for (p, aut), expected in cases.items():
        if quatlab.class_count(p, aut) != expected:
            return "fail", f"class_count({p}, {aut}) != {expected}"
    try:
        quatlab.class_count(7, 6)
        return "fail", "class_count(7, 6) should reject 3 not dividing 8"
    except ValueError:
        pass
    return "pass", "2(p+1)/i equals 8, 4, 28 for (p, |Aut|) = (7,4), (5,6), (13,2)"


def _check_quaternion_norm():
    rng = random.Random(73)
    for _ in range(100):
        a = quatlab.QuatElement(*(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
        b = quatlab.QuatElement(*(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)))
        if (a * b).norm() != a.norm() * b.norm():
            return "fail", f"norm not multiplicative at {a}, {b}"
    return "pass", "norm a^2 + b^2 + 7c^2 + 7d^2 multiplicative on 100 random pairs"


def quat_suite(config: Config) -> list[Check]:
    primes = config.primes if config.primes is not None else (5, 7, 13, 17)
    checks = []
    for p in primes:
        checks.append(Check(f"lemma-3.4.1-algebra-p{p:02d}", "lemma 3.4.1", _make_algebra_check(p)))
        checks.append(Check(f"lemma-3.4.1-orbits-p{p:02d}", "lemma 3.4.1", _make_orbit_check(p)))
    checks += [
        Check("example-3.4.2-uniformizer", "example 3.4.2", _check_uniformizer),
        Check("example-3.4.3-refinement", "example 3.4.3", _check_refinement),
        Check("class-count-2p1i", "section 3.4 class count", _check_class_counts),
        Check("quaternion-norm", "example 3.4.2", _check_quaternion_norm),
    ]
    return checks


# -- ledger suite ---------------------------------------------------------------

_GENUS_EXPECTED = {125: 8, 343: 26, 2197: 184, 4913: 417}


def _make_genus_check(N: int):
    def run():
        got = ledger.genus_x0(N)
        if got != _GENUS_EXPECTED[N]:
            return "fail", f"genus {got} != {_GENUS_EXPECTED[N]}"
        return "pass", f"genus of X0({N}) = {got}"

    return run


def _check_mass_formula():
    for p in range(5, 100):
        if is_prime(p):
            ledger.ss_survey(p)  # raises if the mass identity fails
    return "pass", "sum 1/|Aut| = (p-1)/24 for all primes 5 <= p < 100"


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
            return "fail", f"survey {survey.entries}"
        brute = ledger.supersingular_j_invariants(p) if p <= 31 else None
        if brute is not None:
            count = sum(n for _, n in survey.entries)
            if count != len(brute):
                return "fail", f"survey counts {count} but {len(brute)} ss j-invariants"
        return "pass", f"aut-order census {survey.entries}, mass {survey.mass}"

    return run


def _make_budget_check(p: int, config: Config):
    def run():
        try:
            budget = ledger.component_budget(
                p, config.g_edixhoven, config.ordinary_genera
            )
        except ValueError as exc:
            return "fail", str(exc)
        if p == 5 and config.g_edixhoven == 0 and not config.ordinary_genera:
            if not budget.exact or budget.total_known != 8:
                return "fail", f"expected exact equality 8 = 4*2, got {budget.total_known}"
            return "pass", "exact: 4 components of genus 2 account for the full genus 8"
        return "pass", (
            f"known component genera total {budget.total_known} <= "
            f"genus {budget.curve_genus} of X0({p**3})"
        )

    return run


def _check_exponent_centers():
    expected = {5: (2, 0), 7: (4, 1728), 13: (14, 5)}
    for p, (exponent, center) in expected.items():
        survey = ledger.ss_survey(p)
        if len(survey.entries) != 1:
            return "fail", f"p={p} does not have a unique supersingular class"
        aut = survey.entries[0][0]
        per_extension, _ = quatlab.class_count(p, aut)
        if per_extension != exponent:
            return "fail", f"(p+1)/i = {per_extension} != congruence exponent {exponent}"
        spec = cmlab.standard_spec(p, "-")
        if spec.exponent != exponent or spec.center != center:
            return "fail", f"congruence spec for p={p} is {spec}"
        ss_js = ledger.supersingular_j_invariants(p)
        if ss_js != (center % p,):
            return "fail", f"supersingular j mod {p} is {ss_js}, center {center}"
    return "pass", (
        "(p+1)/i = 2, 4, 14 matches the congruence exponents; centers 0, 1728, 5 "
        "reduce to the unique supersingular j mod p"
    )


def ledger_suite(config: Config) -> list[Check]:
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
        checks.append(Check(f"budget-p{p:02d}", "guess 3.4.6", _make_budget_check(p, config)))
    checks.append(
        Check("exponent-center-crosscheck", "section 3.4 class count", _check_exponent_centers)
    )
    return checks


SUITES = {
    "stable-model": stable_model_suite,
    "maps": maps_suite,
    "ss": ss_suite,
    "cm": cm_suite,
    "quat": quat_suite,
    "ledger": ledger_suite,
}


def build_checks(suite: str, config: Config) -> list[Check]:
    if suite == "all":
        checks: list[Check] = []
        for name in ("stable-model", "maps", "ss", "cm", "quat", "ledger"):
            checks.extend(SUITES[name](config))
        return checks
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return SUITES[suite](config)
