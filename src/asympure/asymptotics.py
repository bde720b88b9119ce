"""Asymptotic cohomological functions and purity verdicts.

For a divisor class D, h-hat^i is the limit of h^i(mD) * dim!/m^dim.  Every
series in scope is eventually polynomial in m, so the limits are exact
rationals extracted by finite differences -- never floating-point fits.  A
class is pure when at most one h-hat index survives; the special-fiber
computation checks this for mixed-sign restrictions via the predicted
kernel/cokernel growth of the contraction map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .projspace import DivisorClass, euler_characteristic, kunneth_cohomology
from .reptheory import kernel_series_rep


class SeriesNotStabilized(ValueError):
    """The requested window is not yet in the polynomial regime."""


@dataclass(frozen=True)
class CaseLabel:
    """Sign-pattern classification of a divisor class on P^n x P^n.

    kind is one of nef / anti_nef / mixed / boundary; allowed_indices lists
    the h-hat indices that can survive for restrictions to a hypersurface.
    """

    kind: str
    allowed_indices: frozenset[int]


@dataclass(frozen=True)
class PurityVerdict:
    """The nonzero h-hat indices of one class; its kind is derived from them."""

    indices: tuple[int, ...]

    @property
    def kind(self) -> str:
        """pure_zero with no index, pure with one, impure with more."""
        if not self.indices:
            return "pure_zero"
        return "pure" if len(self.indices) == 1 else "impure"

    def __str__(self) -> str:
        if not self.indices:
            return self.kind
        return f"{self.kind}({','.join(map(str, self.indices))})"


@dataclass(frozen=True)
class AsymptoticVector:
    """Values of h-hat^0..h-hat^dim for one divisor class.

    The dimension (len(values) - 1) and the purity verdict (from the nonzero
    indices) are derived from the values, never stored beside them.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("asymptotic cohomology values must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.values) - 1

    @property
    def purity(self) -> PurityVerdict:
        return PurityVerdict(tuple(i for i, v in enumerate(self.values) if v))


def classify(n: int, divisor: DivisorClass) -> CaseLabel:
    """Sign-pattern dispatch for restrictions to a bidegree-(k, k) hypersurface.

    Both coefficients positive: nef, only index 0.  Both negative: anti-nef,
    only index 2n-1.  Opposite signs: only indices n-1 and n.  A zero
    coefficient is a boundary class whose allowed set is inherited from the
    adjacent closed case by the sign of the other coefficient.

    >>> classify(2, DivisorClass(2, -1)).allowed_indices == frozenset({1, 2})
    True
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    a1, a2 = divisor.a1, divisor.a2
    if a1 > 0 and a2 > 0:
        return CaseLabel("nef", frozenset({0}))
    if a1 < 0 and a2 < 0:
        return CaseLabel("anti_nef", frozenset({2 * n - 1}))
    if a1 * a2 < 0:
        return CaseLabel("mixed", frozenset({n - 1, n}))
    # a1 * a2 == 0: boundary of the nef or anti-nef cone by the other sign
    if a1 + a2 >= 0:
        return CaseLabel("boundary", frozenset({0}))
    return CaseLabel("boundary", frozenset({2 * n - 1}))


def fit_leading_coefficient(
    series: Sequence[tuple[int, int | Fraction]], degree: int
) -> Fraction:
    """Exact leading coefficient of an eventually-polynomial series.

    Takes (m, value) pairs at consecutive m inside the polynomial regime and
    returns delta^degree / degree!.  Raises SeriesNotStabilized when the
    (degree+1)-th difference is nonzero -- the caller must extend the range.

    >>> fit_leading_coefficient([(m, m**3) for m in range(5, 10)], 3)
    Fraction(1, 1)
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if len(series) < degree + 2:
        raise ValueError(
            f"need at least {degree + 2} points for degree {degree}, got {len(series)}"
        )
    ms = [m for m, _ in series]
    if any(b - a != 1 for a, b in zip(ms, ms[1:])):
        raise ValueError("series must be sampled at consecutive m")
    diffs = [v for _, v in series]
    for _ in range(degree):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if any(d != diffs[0] for d in diffs[1:]):
        raise SeriesNotStabilized(
            f"order-{degree + 1} differences do not vanish on m in "
            f"[{ms[0]}, {ms[-1]}]; extend the window"
        )
    return Fraction(diffs[0], factorial(degree))


def asymptotic_product(n: int, divisor: DivisorClass) -> AsymptoticVector:
    """h-hat vector of a divisor class on P^n x P^n itself (dim = 2n).

    At most one index is nonzero -- 0, n, or 2n by the sign pattern -- and
    classes with a1*a2 = 0 grow too slowly to register at all.

    >>> asymptotic_product(1, DivisorClass(1, 1)).values
    (Fraction(2, 1), Fraction(0, 1), Fraction(0, 1))
    """
    dim = 2 * n
    values = [Fraction(0)] * (dim + 1)
    a1, a2 = divisor.a1, divisor.a2
    if a1 * a2 != 0:
        if a1 > 0 and a2 > 0:
            index = 0
        elif a1 < 0 and a2 < 0:
            index = dim
        else:
            index = n
        start = 1
        for a in (a1, a2):
            if a < 0:
                start = max(start, -((n + 1) // a))  # ceil((n+1)/|a|)
        window = range(start, start + dim + 2)
        series = [(m, kunneth_cohomology(n, m * divisor)[index]) for m in window]
        values[index] = fit_leading_coefficient(series, dim) * factorial(dim)
    return AsymptoticVector(tuple(values))


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def stable_start(n: int, k: int, a1: int, a2: int) -> int:
    """First multiple from which the predicted kernel/cokernel series is polynomial.

    Collects the breakpoints where the exponents reach A >= 0 and B >= k and
    the index-range dispatches stop switching, then adds one for safety.
    """
    if a1 < 1 or a2 < 1:
        raise ValueError(f"divisor coefficients must be >= 1, got ({a1}, {a2})")
    m0 = max(_ceil_div(k, a1), _ceil_div(n + 1, a2))
    if a1 != a2:
        gap = max(abs(n + 1 - 2 * k), n + 1)
        m0 = max(m0, gap // abs(a1 - a2) + 1)
    return m0 + 1


def asymptotic_special_fiber(n: int, k: int, a1: int, a2: int) -> AsymptoticVector:
    """h-hat vector of (a1*H1 - a2*H2) restricted to the bidegree-(k, k) special fiber.

    dim = 2n - 1.  For a1, a2 > 0 (mixed signs on the product) the values at
    indices n-1 and n are the exact degree-(2n-1) leading coefficients of
    the predicted kernel and cokernel series times (2n-1)!.  When one
    coefficient is zero the class is nef or anti-nef; only index 0 or 2n-1
    is allowed, with the value read off the leading term of the restriction
    Euler characteristic chi(mD) - chi(mD - Y); vanishing at the remaining
    indices is classification, not recomputation.  That Euler characteristic
    is a polynomial in m at every m, because chi(O(d)) on P^n equals the
    polynomial C(d + n, n) at every integer d, so its fit starts at m = 1.

    >>> asymptotic_special_fiber(2, 1, 2, 1).values[1]
    Fraction(6, 1)
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if a1 < 0 or a2 < 0:
        raise ValueError(f"coefficients must be >= 0, got ({a1}, {a2})")
    if a1 == 0 and a2 == 0:
        raise ValueError("the zero divisor has no special-fiber computation")
    dim = 2 * n - 1
    values = [Fraction(0)] * (dim + 1)
    scale = factorial(dim)
    if a1 > 0 and a2 > 0:
        start = stable_start(n, k, a1, a2)
        rows = kernel_series_rep(n, k, a1, a2, range(start, start + dim + 3))
        kernel_series = [(m, kd) for m, kd, _ in rows]
        cokernel_series = [(m, cd) for m, _, cd in rows]
        values[n - 1] = fit_leading_coefficient(kernel_series, dim) * scale
        values[n] = fit_leading_coefficient(cokernel_series, dim) * scale
    else:
        index = 0 if a2 == 0 else dim
        sign = 1 if a2 == 0 else -1  # chi picks up (-1)^(2n-1) at the top index
        series = [(m, _restriction_euler(n, k, a1, a2, m)) for m in range(1, dim + 4)]
        values[index] = sign * fit_leading_coefficient(series, dim) * scale
    return AsymptoticVector(tuple(values))


def _restriction_euler(n: int, k: int, a1: int, a2: int, m: int) -> int:
    """chi of m*(a1*H1 - a2*H2) restricted to the bidegree-(k, k) fiber."""
    full = euler_characteristic(n, DivisorClass(m * a1, -m * a2))
    twisted = euler_characteristic(n, DivisorClass(m * a1 - k, -m * a2 - k))
    return full - twisted


def purity_report(
    n: int, k: int, divisor_list: Iterable[tuple[int, int]]
) -> list[tuple[DivisorClass, CaseLabel, AsymptoticVector]]:
    """Classify and evaluate a batch of special-fiber divisors (a1, a2) >= 0.

    Entries are coefficient pairs for D = a1*H1 - a2*H2.  The zero pair is
    reported as trivially pure_zero.  Impure verdicts are returned like the
    others; a caller that expects purity checks the verdicts itself.
    """
    records: list[tuple[DivisorClass, CaseLabel, AsymptoticVector]] = []
    for a1, a2 in divisor_list:
        divisor = DivisorClass(a1, -a2)
        label = classify(n, divisor)
        if a1 == 0 and a2 == 0:
            vector = AsymptoticVector((Fraction(0),) * (2 * n))
        else:
            vector = asymptotic_special_fiber(n, k, a1, a2)
        records.append((divisor, label, vector))
    return records
