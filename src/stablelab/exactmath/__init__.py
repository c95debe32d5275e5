"""Exact rational, valuation, polynomial, resultant and Newton-polygon kit.

The package imports none of its modules: an importer names the module that
defines each name, so a process loads only the layers it calls.

- `kernel`: the integer and rational layer (the dense univariate kernel,
  `val_rat` and the extended valuations, `Affine` pieces); it imports no
  other module of the kit.
- `poly`: sparse symbolic polynomials, `ValuedSymbol` and `normal_form`.
- `valuation`: valuations of symbolic polynomials and their pieces.
- `polygon`: Newton polygons, plain and parametric (reads `kernel` only).
- `resultant`: characteristic and difference-root polynomials from power
  sums (reads `kernel` only).
"""
