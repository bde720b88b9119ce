"""Exact line-bundle cohomology on P^n and on P^n x P^n.

Dimensions of H^q(P^n, O(d)) follow the classical three-band closed form
(global sections for d >= 0, top cohomology for d <= -(n+1), nothing in
between); products are handled by the Kunneth convolution.  Everything here
is exact integer arithmetic -- binomials overflow 64 bits quickly at the
scan ranges we care about, so no floats and no fixed-width ints.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable

logger = logging.getLogger(__name__)


def binomial(p: int, q: int) -> int:
    """Binomial coefficient C(p, q), defined as 0 when q < 0 or p < q.

    No generalized/negative binomials: the cohomology bands are dispatched
    by explicit sign ranges, which keeps the sign conventions out of the
    combinatorics.
    """
    if q < 0 or p < q:
        return 0
    return math.comb(p, q)


def sym_dim(n: int, d: int) -> int:
    """dim Sym^d(C^(n+1)) = C(d+n, n), with negative d giving the zero space."""
    return binomial(d + n, n)


def series_exponents(n: int, k: int, a1: int, a2: int, m: int) -> tuple[int, int]:
    """Source exponents (A, B) = (m*a1 - k, m*a2 + k - (n+1)) at multiple m.

    These are the exponents of the twisted restriction sequence for the
    divisor a1*H1 - a2*H2 against the bidegree-(k, k) special fiber; the
    target exponents are (A+k, B-k) = (m*a1, m*a2 - (n+1)).
    """
    return m * a1 - k, m * a2 + k - (n + 1)


def feasible_multiples(
    n: int, k: int, a1: int, a2: int, m_range: Iterable[int]
) -> list[tuple[int, int, int]]:
    """The multiples m in m_range whose contraction map exists, as (m, A, B).

    This is the one rule for which multiples a series contains, whichever
    engine computes it.  (A, B) = series_exponents(n, k, a1, a2, m), and m is
    kept when A >= 0 and B >= 0.  B in [0, k) is kept: the target
    Sym^(A+k) (x) Sym^(B-k) is the zero space there, so the whole source is
    kernel.  Dropped multiples are logged at debug level.  ValueError if a1
    or a2 is below 1, or if no multiple is left.

    >>> feasible_multiples(2, 1, 2, 1, range(1, 5))
    [(2, 3, 0), (3, 5, 1), (4, 7, 2)]
    """
    if a1 < 1 or a2 < 1:
        raise ValueError(f"divisor coefficients must be >= 1, got ({a1}, {a2})")
    kept: list[tuple[int, int, int]] = []
    dropped: list[int] = []
    for m in m_range:
        A, B = series_exponents(n, k, a1, a2, m)
        if A < 0 or B < 0:
            dropped.append(m)
        else:
            kept.append((m, A, B))
    if dropped:
        logger.debug("dropped m=%s: exponents not feasible for n=%d, k=%d, divisor (%d, %d)",
                     dropped, n, k, a1, a2)
    if not kept:
        raise ValueError("no feasible multiple m in the requested range")
    return kept


def source_target_dims(n: int, k: int, A: int, B: int) -> tuple[int, int]:
    """Dimensions of the contraction's source and target (zero for a negative exponent)."""
    return sym_dim(n, A) * sym_dim(n, B), sym_dim(n, A + k) * sym_dim(n, B - k)


@dataclass(frozen=True)
class DivisorClass:
    """Integer class a1*H1 + a2*H2 in the Neron-Severi lattice of P^n x P^n.

    H1 and H2 are the two hyperplane pullbacks.  Coefficients are
    unrestricted integers; integer scaling stays in the lattice.
    """

    a1: int
    a2: int

    def __mul__(self, scale: int) -> "DivisorClass":
        return DivisorClass(scale * self.a1, scale * self.a2)

    __rmul__ = __mul__


@dataclass(frozen=True)
class CohomologyVector:
    """Exact cohomology dimensions (h^0, ..., h^n_ambient) of one sheaf.

    n_ambient is derived as len(values) - 1.  For the line bundles in scope
    at most one entry is ever nonzero; the constructor enforces this along
    with nonnegativity.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("cohomology dimensions must be nonnegative")
        if sum(1 for v in self.values if v) > 1:
            raise ValueError("line bundles in scope have single-index cohomology")

    @property
    def n_ambient(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, q: int) -> int:
        """h^q, with indices outside [0, n_ambient] giving 0."""
        if 0 <= q <= self.n_ambient:
            return self.values[q]
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, v in enumerate(self.values) if v)

    def euler(self) -> int:
        return sum(v if q % 2 == 0 else -v for q, v in enumerate(self.values))


def bott_cohomology(n: int, d: int) -> CohomologyVector:
    """All cohomology dimensions of O(d) on P^n.

    h^0 = C(n+d, n) for d >= 0, h^n = C(-d-1, n) for d <= -(n+1), and the
    band d in [-n, -1] is acyclic (the zero vector, not an error: scans walk
    straight through it).

    >>> bott_cohomology(2, 3).values
    (10, 0, 0)
    >>> bott_cohomology(2, -1).values
    (0, 0, 0)
    >>> bott_cohomology(2, -4).values
    (0, 0, 3)
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    values = [0] * (n + 1)
    if d >= 0:
        values[0] = binomial(n + d, n)
    elif d <= -(n + 1):
        values[n] = binomial(-d - 1, n)
    return CohomologyVector(tuple(values))


def kunneth_cohomology(n: int, divisor: DivisorClass) -> CohomologyVector:
    """Cohomology of O(a1, a2) on P^n x P^n by the Kunneth convolution.

    Each factor contributes in at most one index, so the product has at
    most one nonzero entry as well.

    >>> kunneth_cohomology(2, DivisorClass(1, 1)).values
    (9, 0, 0, 0, 0)
    >>> kunneth_cohomology(1, DivisorClass(-2, -2)).values
    (0, 0, 1)
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    left = bott_cohomology(n, divisor.a1).values
    right = bott_cohomology(n, divisor.a2).values
    values = [0] * (2 * n + 1)
    for j, x in enumerate(left):
        if not x:
            continue
        for q, y in enumerate(right):
            if y:
                values[j + q] += x * y
    return CohomologyVector(tuple(values))


def euler_characteristic(n: int, divisor: DivisorClass) -> int:
    """chi(O(a1, a2)) on P^n x P^n, the product of the Riemann-Roch polynomials.

    chi(O(d)) on P^n is C(d + n, n) = (d + 1)...(d + n)/n! at every integer d:
    h^0 for d >= 0, 0 on the acyclic band -n <= d <= -1, and (-1)^n h^n below
    it.  The alternating sum of kunneth_cohomology is the independent check.

    >>> euler_characteristic(2, DivisorClass(-1, 5))
    0
    >>> euler_characteristic(3, DivisorClass(-5, 1))
    -16
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    return math.prod(math.prod(range(d + 1, d + n + 1)) // math.factorial(n)
                     for d in (divisor.a1, divisor.a2))
