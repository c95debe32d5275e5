"""stablelab: exact-arithmetic certificates for the stable model of X0(125).

The package recomputes, in exact rational / p-adic-valuation arithmetic,
every explicit computation behind the stable model of X0(125) over C_5, and
the companion empirical suites: class-polynomial placement of CM j-invariants
(p = 5, 7, 13), conjugation orbits in the finite algebra F_p[i, eps_j, eps_k],
and genus bookkeeping for X0(p^3).
"""

import math

__version__ = "0.1.0"

#: p -> (anchor, center c, exponent e, bound B) of conjectures 3.3.1-3.3.3,
#: v_p((j - c)^e -/+ p^B) > B.  `cmlab.standard_spec` builds its specs from
#: it; the CLI, the cm suite and the ledger suite read it without loading cmlab.
CM_CONGRUENCES = {5: ("conjecture 3.3.1", 0, 2, 3), 7: ("conjecture 3.3.2", 1728, 4, 4),
                  13: ("conjecture 3.3.3", 5, 14, 7)}


def divides_once(p: int, n: int) -> bool:
    """p divides n exactly once, the hypothesis p || D of conjectures
    3.3.1-3.3.3.  The cm suite, the CLI and `cmlab.congruence_case` read it."""
    return n % p == 0 and (n // p) % p != 0


class CertificateError(AssertionError):
    """A certificate's mathematical claim fails on its inputs; the message is
    the reason.  `cli.run_suite` reports it as the check's fail details.
    Invalid arguments raise ValueError instead, and a broken algorithm
    invariant a plain AssertionError, both reported as internal errors."""


def is_prime(n: int) -> bool:
    """Trial division.  It lives here, re-exported by exactmath, so that the
    CLI can validate primes without loading the exact-arithmetic kit."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
