"""Maps suite: the six maps of table 2 and the circle and disk images of
section 3.1."""

from __future__ import annotations

from fractions import Fraction as F

from .. import CertificateError, modmaps
from ..exactmath.kernel import Affine
from . import Check, Config, once


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


def _check_table2(maps):
    for name, rmap in maps.items():
        if rmap.degrees() != _EXPECTED_DEGREES[name]:
            raise CertificateError(f"{name} has degrees {rmap.degrees()}")
        for point in (F(2), F(-3, 7)):
            if rmap.evaluate(point) != _DIRECT_FORMULAS[name](point):
                raise CertificateError(f"{name} disagrees with direct evaluation at {point}")
    return "all six maps transcribed; degrees and two-point evaluations agree"


def _check_involutions(maps):
    for name in ("w5", "w25"):
        modmaps.involution_identity(maps[name])
    return "w5 o w5 = id and w25 o w25 = id as exact rational maps"


def _check_al_circles(maps):
    got5 = modmaps.al_fixed_circle(maps["w5"])
    got25 = modmaps.al_fixed_circle(maps["w25"])
    if (got5, got25) != (F(3, 2), F(1, 2)):
        raise CertificateError(f"fixed circles ({got5}, {got25})")
    return "fixed circles v(t) = 3/2 for w5 and v(u) = 1/2 for w25"


def _check_u_circle_image(maps):
    cert = modmaps.image_valuation(maps["pi5_t"], F(3, 10))
    if cert.lower_bound != F(3, 2) or not cert.unique:
        raise CertificateError(f"image valuation {cert.lower_bound}, unique={cert.unique}")
    return "v(u) = 3/10 maps to v(t) = 3/2, unique dominant monomial u^5"


def _check_j_circle_image(maps):
    """On the cell 0 < v(t) < 5/2 the numerator piece 6 v(t) of t^6 and the
    denominator piece 5 v(t) of t^5 each dominate alone, so v(j) = v(t) on
    the whole cell; at 5/2 the disk claim 3.1.1 takes over."""
    image = modmaps.cell_image_valuation(maps["pi1_j"], F(0), F(5, 2))
    if image != Affine(F(0), F(1)):
        raise CertificateError(f"on 0 < v(t) < 5/2: {image}, not v(j) = v(t)")
    return (
        "v(t) = 3/2 maps to v(j) = 3/2: t^6 dominates alone on 0 < v(t) < 5/2, "
        "so v(j) = v(t) on the whole cell"
    )


def _check_j_disk_image(maps):
    cert = modmaps.image_valuation(maps["pi1_j"], F(5, 2))
    if cert.lower_bound != F(5, 2) or cert.unique:
        raise CertificateError(f"bound {cert.lower_bound}, unique={cert.unique}")
    return "v(t) = 5/2 gives only the bound v(j) >= 5/2 (t^2 ties 5^5): disk"


def _check_ram_image(maps):
    eliminant = modmaps.ramification_image_polynomial(maps["pi5_t"])
    return f"eliminant degree {len(eliminant) - 1}; squarefree part t^2 - 125"


def _check_cm_disks():
    return f"v5(5^5/r^5 - 5^3) = {modmaps.cm_disk_identities()} > 3"


def suite(config: Config) -> list[Check]:
    maps = once(modmaps.builtin_maps)
    return [
        Check("table-2-transcription", "table 2", lambda: _check_table2(maps())),
        Check("al-involutions", "table 2", lambda: _check_involutions(maps())),
        Check("note-3.1.3-al-circles", "note 3.1.3", lambda: _check_al_circles(maps())),
        Check("claim-3.1.2-u-circle-image", "claim 3.1.2", lambda: _check_u_circle_image(maps())),
        Check("claim-3.1.2-j-circle-image", "claim 3.1.2", lambda: _check_j_circle_image(maps())),
        Check("claim-3.1.1-j-disk-image", "claim 3.1.1", lambda: _check_j_disk_image(maps())),
        Check("claim-3.1.2-ramification-image", "claim 3.1.2", lambda: _check_ram_image(maps())),
        Check("claim-3.1.2-cm-disks", "claim 3.1.2", _check_cm_disks),
    ]
