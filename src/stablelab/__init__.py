"""stablelab: exact-arithmetic certificates for the stable model of X0(125).

The package recomputes, in exact rational / p-adic-valuation arithmetic,
every explicit computation behind the stable model of X0(125) over C_5, and
the companion empirical suites: class-polynomial placement of CM j-invariants
(p = 5, 7, 13), conjugation orbits in the finite algebra F_p[i, eps_j, eps_k],
and genus bookkeeping for X0(p^3).
"""

import math

__version__ = "0.1.0"


def is_prime(n: int) -> bool:
    """Trial division.  It lives here, re-exported by exactmath, so that the
    CLI can validate primes without loading the exact-arithmetic kit."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
