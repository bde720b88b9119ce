"""Asymptotic cohomological functions and purity verdicts.

For a divisor class D, h-hat^i is the limit of h^i(mD) * dim!/m^dim.  Every
series in scope is an integer series, eventually a polynomial in m of degree
at most dim, so each limit is an integer, the series' dim-th difference, and
each is read off an exact expression.  A class is pure when at most one
h-hat index survives.

A mixed class's predicted kernel and cokernel are polynomial from
stable_start, whose docstring derives that bound, and their top terms give
its h-hat values in closed form: with c = k*C(2n-1, n)*(a1*a2)^(n-1),
h-hat^(n-1) = c*max(a1 - a2, 0) and h-hat^n = c*max(a2 - a1, 0).  Every
other class has its cohomology in one index, where by asymptotic
Riemann-Roch h-hat is plus or minus the top self-intersection:
asymptotic_product and intersection_number.  On the special fiber the mixed
closed form at a1*a2 = 0 gives exactly these boundary values, so it serves
every class there.  No series is evaluated at run time.  verify holds the
independent references: reptheory.series_polynomials against the
prediction and against the mixed closed form, and fit_leading_coefficient
against the one-index ones.

The sign rule is written once, in _case_labels(n), the table from the
signs of (a1, a2) to the five CaseLabels of P^n x P^n; classify and
purity_report read it.  A scan does its per-(n, k) work once per call, in
purity_report, and then each class costs a sign test and its 2n values.
Labels and verdicts are shared frozen instances: AsymptoticVector.purity
returns one PurityVerdict per tuple of nonzero indices.

From the special fiber to a very general one: for every bidegree-(k, k)
form F, h^(n-1) and h^n of a mixed class are the kernel and cokernel of the
contraction by F.  Rank is lower semicontinuous in F and never exceeds
min(rows, cols), so a special-fiber map of maximal rank keeps its kernel
and cokernel for a very general F.  predict_map_analysis never gives both a
kernel and a cokernel, so every special-fiber map on which the two engines
agree has maximal rank, and its h-hat values hold for a very general
hypersurface.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, count
from math import comb, factorial
from typing import Iterable, Sequence

from .projspace import DivisorClass, series_exponents

logger = logging.getLogger(__name__)


class SeriesNotStabilized(ValueError):
    """A fitted window's last difference does not vanish: fit_leading_coefficient raises it."""


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

    @cached_property
    def kind(self) -> str:
        """pure_zero with no index, pure with one, impure with more."""
        if not self.indices:
            return "pure_zero"
        return "pure" if len(self.indices) == 1 else "impure"

    @cached_property
    def _text(self) -> str:
        if not self.indices:
            return self.kind
        return f"{self.kind}({','.join(map(str, self.indices))})"

    def __str__(self) -> str:
        return self._text


@cache
def _verdict(indices: tuple[int, ...]) -> PurityVerdict:
    """The shared verdict of one tuple of nonzero indices, kept for the life of the process."""
    return PurityVerdict(indices)


@dataclass(frozen=True)
class AsymptoticVector:
    """Values of h-hat^0..h-hat^dim for one divisor class, as integers.

    The dimension (len(values) - 1) and the purity verdict (from the nonzero
    indices) are derived from the values, never stored beside them.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.values and min(self.values) < 0:
            raise ValueError("asymptotic cohomology values must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.values) - 1

    @property
    def purity(self) -> PurityVerdict:
        return _verdict(tuple(compress(count(), self.values)))


@cache
def _case_labels(n: int) -> dict[tuple[int, int], CaseLabel]:
    """The label of each pair of signs (-1, 0, 1) of (a1, a2) on P^n x P^n, built once per n.

    Both coefficients positive: nef, only index 0.  Both negative: anti-nef,
    only index 2n-1.  Opposite signs: mixed, only indices n-1 and n.  A zero
    coefficient is a boundary class whose allowed set is inherited from the
    adjacent closed case by the sign of the other coefficient; the zero
    class lies on the nef side.  The nine pairs share five frozen labels.
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    top = 2 * n - 1
    nef, anti_nef = CaseLabel("nef", frozenset({0})), CaseLabel("anti_nef", frozenset({top}))
    low, high = CaseLabel("boundary", frozenset({0})), CaseLabel("boundary", frozenset({top}))
    mixed = CaseLabel("mixed", frozenset({n - 1, n}))
    return {(1, 1): nef, (1, 0): low, (0, 1): low, (0, 0): low,
            (-1, -1): anti_nef, (-1, 0): high, (0, -1): high,
            (1, -1): mixed, (-1, 1): mixed}


def classify(n: int, divisor: DivisorClass) -> CaseLabel:
    """Sign-pattern dispatch for restrictions to a bidegree-(k, k) hypersurface.

    The label of the signs of (a1, a2) in _case_labels(n), a shared frozen
    instance.

    >>> classify(2, DivisorClass(2, -1)).allowed_indices == frozenset({1, 2})
    True
    """
    a1, a2 = divisor.a1, divisor.a2
    return _case_labels(n)[(a1 > 0) - (a1 < 0), (a2 > 0) - (a2 < 0)]


def fit_leading_coefficient(
    series: Sequence[tuple[int, int | Fraction]], degree: int
) -> Fraction:
    """Exact leading coefficient of an eventually-polynomial series.

    Takes (m, value) pairs at consecutive m inside the polynomial regime and
    returns delta^degree / degree!.  Raises SeriesNotStabilized when the
    (degree+1)-th difference is nonzero -- the caller must extend the range.
    No h-hat value is fitted at run time: verify and the tests use this as
    the independent reference for the closed forms.

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

    Each negative coefficient puts its factor's cohomology in degree n, so
    only index n*((a1 < 0) + (a2 < 0)) can be nonzero.  By asymptotic
    Riemann-Roch its value is the top self-intersection D^(2n) up to sign,
    C(2n, n)*|a1*a2|^n, which is 0 when a1*a2 = 0.  verify checks it against
    the fitted 2n-th difference of the Kunneth series.

    >>> asymptotic_product(1, DivisorClass(1, 1)).values
    (2, 0, 0)
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    values = [0] * (2 * n + 1)
    index = n * ((divisor.a1 < 0) + (divisor.a2 < 0))
    values[index] = comb(2 * n, n) * abs(divisor.a1 * divisor.a2) ** n
    return AsymptoticVector(tuple(values))


def stable_start(n: int, k: int, a1: int, a2: int) -> int:
    """First multiple from which the predicted kernel and cokernel series are polynomial.

    It is the first m >= 1 at which the map exists (A = m*a1 - k >= 0 and
    B = m*a2 + k - n - 1 >= 0) and (B - A - k)(a2 - a1) >= 0, where
    B - A - k = m*(a2 - a1) - (n + 1 - k).  Both then hold at every later
    multiple, and so does the polynomial below.  (A, B) are read from
    projspace.series_exponents, one multiple at a time, and the walk returns
    by m = max(k, n + 1): there A >= 0 because m >= k, B >= k because
    m >= n + 1, and m*|a2 - a1| >= |n + 1 - k| whenever a1 != a2.

    Why: the prediction sums w(i), the Weyl dimension of (A + B - i, i), over
    the one range rule, reptheory._index_ranges: the kernel max(T + 1, 0) <= i
    <= S and the cokernel S < i <= T, where S = min(A, B), T = min(A + k, B - k).
    By weyl_dimension's closed form, w is a polynomial in (m, i) of degree
    2n - 1, and it changes sign under the reflection i -> A + B + 1 - i
    (the closed form of (l1, l2) is minus that of (l2 - 1, l1 + 1)), so its
    sum over a range that the reflection maps onto itself is 0.  So at
    every feasible m:

    - if B - A <= k, the kernel is the sum of w over B - k < i <= B and the
      cokernel is 0.  For B <= A the ranges are exactly these; for
      A < B <= A + k, S = A drops A < i <= B, a self-reflected range, and
      T = B - k <= A leaves the cokernel range empty.
    - if B - A >= k, the kernel is 0 and the cokernel is the sum of w over
      A < i <= A + k.  For B - A >= 2k the ranges are exactly these; for
      k <= B - A < 2k, T = B - k drops B - k < i <= A + k, a self-reflected
      range, and T >= A leaves the kernel range empty.
    - The clamp drops i in [T + 1, -1], and T >= -n since A + k = m*a1 >= 1
      and B - k = m*a2 - n - 1 >= -n.  There the factor C(i + n - 1, n - 1)
      of w is 0 as a polynomial.

    Each is a sum of w over k values of i linear in m, a polynomial in m of
    degree at most 2n - 1, whose top term gives asymptotic_special_fiber's
    closed form.  The bound is also minimal on every class with n <= 6,
    k <= 5 and a1, a2 <= 8: one multiple earlier the map does not exist or a
    series leaves its polynomial.  It serves the per-class DEBUG line of
    asymptotic_special_fiber and verify's windows, where
    reptheory.series_polynomials writes the two series out.

    >>> stable_start(2, 1, 1, 2)
    2
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if a1 < 1 or a2 < 1:
        raise ValueError(f"divisor coefficients must be >= 1, got ({a1}, {a2})")
    m = 1
    while True:
        A, B = series_exponents(n, k, a1, a2, m)
        if A >= 0 and B >= 0 and (B - A - k) * (a2 - a1) >= 0:
            return m
        m += 1


def asymptotic_special_fiber(n: int, k: int, a1: int, a2: int) -> AsymptoticVector:
    """h-hat vector of (a1*H1 - a2*H2) restricted to the bidegree-(k, k) special fiber.

    dim = 2n - 1, and classify names the indices that can be nonzero.  For
    a mixed class (a1, a2 > 0), from stable_start on the kernel or the
    cokernel is a sum of k Weyl dimensions whose leading factors are
    m*|a1 - a2|, (m*a1)^(n-1) and (m*a2)^(n-1), so with
    c = k*C(2n-1, n)*(a1*a2)^(n-1) the values at indices n-1 and n are
    c*max(a1 - a2, 0) and c*max(a2 - a1, 0); no series is evaluated.  A
    boundary class (one or both coefficients zero) has one allowed index
    i, and its value is (-1)^i times intersection_number(n, k, k, a1, a2),
    the top coefficient of the restriction Euler characteristic
    chi(mD) - chi(mD - Y) times (2n-1)!: k*a1 or k*a2 for n = 1, and 0 for
    n >= 2 and for the zero class.  The mixed closed form gives exactly
    these values at a1*a2 = 0, so every class is read from it: this is
    purity_report's vector for the one pair.  verify checks the mixed
    values against the top coefficients of reptheory.series_polynomials,
    intersection_number against that Euler characteristic's fitted
    (2n-1)-th difference, and the alternating sum of every class's values,
    from n = 1 on, against intersection_number.

    >>> asymptotic_special_fiber(2, 1, 2, 1).values[1]
    6
    """
    return purity_report(n, k, [(a1, a2)])[0][2]


def intersection_number(n: int, k: int, l: int, a1: int, a2: int) -> int:
    """(D|_Y)^(2n-1) for D = a1*H1 - a2*H2 and Y of bidegree (k, l) in P^n x P^n.

    The Euler characteristic of O_Y(mD) does not depend on the form of Y, so
    sum_i (-1)^i h-hat^i of D|_Y is this number.  It comes from the expansion
    of D^(2n-1) * (k*H1 + l*H2) with H1^n * H2^n = 1 and H1^(n+1) = H2^(n+1) = 0:
    the terms H1^(n-1) H2^n and H1^n H2^(n-1) of D^(2n-1) give
    (-1)^(n-1) C(2n-1, n-1) (a1*a2)^(n-1) (l*a1 - k*a2).  No series and no
    Weyl dimension enter.

    >>> intersection_number(2, 1, 1, 2, 1)
    -6
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    return (-1) ** (n - 1) * comb(2 * n - 1, n - 1) * (a1 * a2) ** (n - 1) * (l * a1 - k * a2)


_Record = tuple[tuple[int, int], CaseLabel, AsymptoticVector]


def purity_report(n: int, k: int, pairs: Iterable[tuple[int, int]]) -> list[_Record]:
    """((a1, a2), label, vector) for each special-fiber class D = a1*H1 - a2*H2, in input order.

    Each pair (a1, a2) >= 0 is handed back as given, beside its classify
    label and its asymptotic_special_fiber vector; each class is labelled
    once, and builds one AsymptoticVector.  n and k are checked, and the
    labels and k*C(2n-1, n) taken, once per call, before any pair is read.
    No DivisorClass is built: the labels are _case_labels(n)'s at the signs
    of (a1, -a2), the shared instances that classify returns.  The zero
    pair comes out boundary and pure_zero.  Impure verdicts are returned
    like the others; a caller that expects purity checks the verdicts itself.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    labels = _case_labels(n)
    # the signs of (a1, -a2): a2 = 0 lies on the nef side, a1 = 0 < a2 on the anti-nef side
    mixed, nef_side, anti_nef_side = labels[1, -1], labels[1, 0], labels[0, -1]
    dim = 2 * n - 1
    top = k * comb(dim, n)
    zeros = (0,) * (n - 1)
    debug = logger.isEnabledFor(logging.DEBUG)
    records = []
    for a1, a2 in pairs:
        if a1 < 0 or a2 < 0:
            raise ValueError(f"coefficients must be >= 0, got ({a1}, {a2})")
        c = top * (a1 * a2) ** (n - 1)
        values = (*zeros, c * max(a1 - a2, 0), c * max(a2 - a1, 0), *zeros)
        label = mixed if a1 and a2 else anti_nef_side if a2 else nef_side
        if debug and label is mixed:
            # the side that reptheory.series_polynomials writes out at m = 2^bits,
            # where B - A = m*(a2 - a1) + 2k - n - 1
            side = "cokernel" if a2 > a1 or (a1 == a2 and k > n + 1) else "kernel"
            start = stable_start(n, k, a1, a2)
            logger.debug("mixed class (n, k, a1, a2) = (%d, %d, %d, %d): stable_start %d, "
                         "%s side, m^%d coefficient %s", n, k, a1, a2, start, side, dim,
                         Fraction(values[n - 1 + (side == "cokernel")], factorial(dim)),
                         extra={"divisor_class": (n, k, a1, a2), "stable_start": start,
                                "side": side})
        records.append(((a1, a2), label, AsymptoticVector(values)))
    return records
