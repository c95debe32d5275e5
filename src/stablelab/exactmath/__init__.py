"""Exact rational, valuation, polynomial, resultant and Newton-polygon kit.

Its exports are the names the imports below bind."""

from .poly import (
    Monomial,
    SymbolicPolynomial,
    ValuedSymbol,
    monic_from_power_sums,
    normal_form,
    poly_to_coeffs,
    root_power_sums,
    squarefree_part,
    sym,
    univariate_divmod,
    univariate_gcd,
    univariate_mul,
    univariate_trim,
)
from .polygon import (
    NewtonPolygon,
    ParamPolygon,
    PolygonCell,
    newton_polygon,
    parametric_polygon,
    root_valuation_multiset,
)
from .resultant import characteristic_polynomial, difference_root_resultant
from .valuation import (
    INF,
    Affine,
    ExtValuation,
    MinValuation,
    affine,
    dominant_piece,
    envelope_min,
    field_valuation,
    is_finite,
    is_prime,
    min_valuation,
    param_valuations,
    symbol_valuations,
    val_rat,
    valuation_levels,
)

