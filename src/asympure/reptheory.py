"""Representation-theoretic engine for the symmetric-power contraction map.

Decomposes Sym^A (x) Sym^B into two-row SL(n+1) irreducibles via the Pieri
rule, evaluates exact Weyl dimensions, and predicts the kernel/cokernel of
the equivariant contraction (sum_i x_i (x) d_i)^k as a multiset difference
of the source and target decompositions.  By Schur, a component shared by
both sides maps either isomorphically or to zero; the prediction assumes
"isomorphically", so only the unshared components survive.  The exact-rank
oracle is what tests that assumption.  One range rule, _index_ranges, gives
the indices i of the surviving components (A+B-i, i) to one prediction
function, predict_map_analysis, which kernel_series_rep calls per multiple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Iterable

from .projspace import feasible_multiples, series_exponents


@dataclass(frozen=True)
class IrrepLabel:
    """Two-row partition (lambda1, lambda2) labeling an SL(n+1) irreducible.

    Rows 3..n+1 are implicitly zero.  The label carries no rank: n is given
    once, by the caller of weyl_dimension(n, label).
    """

    lambda1: int
    lambda2: int

    def __post_init__(self) -> None:
        if not self.lambda1 >= self.lambda2 >= 0:
            raise ValueError(
                f"need lambda1 >= lambda2 >= 0, got ({self.lambda1}, {self.lambda2})"
            )


def weyl_dimension(n: int, label: IrrepLabel) -> int:
    """Exact dimension of the SL(n+1) irreducible with the given label.

    Weyl's product over 1 <= p < q <= n+1 of (lambda_p - lambda_q + q - p)/(q - p)
    collapses for lambda = (lambda1, lambda2, 0, ..., 0): the pair (1, 2) gives
    lambda1 - lambda2 + 1, the pairs (1, q >= 3) give C(lambda1 + n, n)/(lambda1 + 1),
    the pairs (2, q >= 3) give C(lambda2 + n - 1, n - 1), and the pairs of zero
    rows give 1.  The product is _weyl_numerator over n!(n-1)!, an exact division.

    >>> weyl_dimension(2, IrrepLabel(1, 0))
    3
    >>> weyl_dimension(2, IrrepLabel(9, 3))
    154
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    numerator = _weyl_numerator(n, label.lambda1, label.lambda2)
    quotient, remainder = divmod(numerator, factorial(n) * factorial(n - 1))
    assert remainder == 0, "Weyl dimension must be an integer"
    return quotient


def _weyl_numerator(n: int, l1: int, l2: int) -> int:
    """n!(n-1)! times weyl_dimension: (l1 - l2 + 1)(l1 + 2)...(l1 + n)(l2 + 1)...(l2 + n - 1).

    The runs are n! C(l1 + n, n)/(l1 + 1) and (n-1)! C(l2 + n - 1, n - 1).
    """
    return (l1 - l2 + 1) * prod(range(l1 + 2, l1 + n + 1)) * prod(range(l2 + 1, l2 + n))


@dataclass(frozen=True)
class PieriDecomposition:
    """Decomposition of Sym^A (x) Sym^B into two-row irreducibles.

    Component i (for i = 0..min(A, B)) is the partition (A+B-i, i); each
    occurs with multiplicity one.
    """

    A: int
    B: int
    rank_n: int
    components: tuple[IrrepLabel, ...]

    def dimension(self) -> int:
        return sum(weyl_dimension(self.rank_n, c) for c in self.components)


def pieri_decompose(n: int, A: int, B: int) -> PieriDecomposition:
    """Pieri decomposition of Sym^A (x) Sym^B for SL(n+1); symmetric in A, B.

    >>> [(c.lambda1, c.lambda2) for c in pieri_decompose(1, 2, 1).components]
    [(3, 0), (2, 1)]
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    if A < 0 or B < 0:
        raise ValueError(f"symmetric-power exponents must be >= 0, got ({A}, {B})")
    components = tuple(IrrepLabel(A + B - i, i) for i in range(min(A, B) + 1))
    return PieriDecomposition(A, B, n, components)


@dataclass(frozen=True)
class MapAnalysis:
    """Predicted kernel/cokernel of one contraction map.

    kernel_labels lists the source components missing from the target
    decomposition, cokernel_labels the reverse; the dims are their Weyl
    dimension sums.  kernel_dim - cokernel_dim always equals
    dim(source) - dim(target).
    """

    kernel_dim: int
    cokernel_dim: int
    kernel_labels: tuple[IrrepLabel, ...]
    cokernel_labels: tuple[IrrepLabel, ...]


def _index_ranges(n: int, k: int, A: int, B: int) -> tuple[range, range]:
    """Indices i of the kernel and cokernel components (A+B-i, i) of one map.

    Source indices run over 0..S and target ones over 0..T, with S = min(A, B)
    and T = min(A+k, B-k), so the kernel is max(T+1, 0)..S and the cokernel
    S+1..T.  The label rule lambda1 >= lambda2 >= 0 is i in 0..(A+B)//2.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if A < 0 or B < 0:
        raise ValueError(f"source exponents must be >= 0, got A={A}, B={B}")
    source_top, target_top = min(A, B), min(A + k, B - k)
    assert max(source_top, target_top) <= (A + B) // 2, "component index above (A+B)//2"
    return range(max(target_top + 1, 0), source_top + 1), range(source_top + 1, target_top + 1)


def predict_map_analysis(n: int, k: int, A: int, B: int) -> MapAnalysis:
    """Kernel/cokernel of Sym^A (x) Sym^B -> Sym^(A+k) (x) Sym^(B-k).

    The map is multiplication by the contraction (sum_i x_i (x) d_i)^k.
    By Schur each component shared by source and target maps isomorphically
    or to zero; the prediction takes "isomorphically", so the analysis is the
    multiset difference of the decompositions, over the one range rule
    _index_ranges.  The exact-rank oracle cross-check tests that assumption.
    A, B >= 0 as in feasible_multiples; for B in [0, k) the target is zero
    and the whole source is kernel.

    >>> predict_map_analysis(2, 1, 9, 3).kernel_dim
    154
    >>> predict_map_analysis(2, 1, 2, 4).cokernel_dim
    10
    """
    kernel, cokernel = _index_ranges(n, k, A, B)
    kernel_labels = tuple(IrrepLabel(A + B - i, i) for i in kernel)
    cokernel_labels = tuple(IrrepLabel(A + B - i, i) for i in cokernel)
    return MapAnalysis(
        kernel_dim=sum(weyl_dimension(n, c) for c in kernel_labels),
        cokernel_dim=sum(weyl_dimension(n, c) for c in cokernel_labels),
        kernel_labels=kernel_labels,
        cokernel_labels=cokernel_labels,
    )


def kernel_series_rep(
    n: int, k: int, a1: int, a2: int, m_range: Iterable[int]
) -> list[tuple[int, int, int]]:
    """Predicted (m, kernel_dim, cokernel_dim) rows over a range of multiples.

    The rows are those of feasible_multiples, which states which multiples
    are kept and when the range is an error.  A row holds the two dimensions
    of predict_map_analysis(n, k, A, B) at that multiple's exponents.
    """
    analyses = ((m, predict_map_analysis(n, k, A, B))
                for m, A, B in feasible_multiples(n, k, a1, a2, m_range))
    return [(m, analysis.kernel_dim, analysis.cokernel_dim) for m, analysis in analyses]


def series_polynomials(n: int, k: int, a1: int, a2: int) -> tuple[list[int], list[int]]:
    """Kernel and cokernel series from asymptotics.stable_start on, as polynomials in m.

    Each is the list of the coefficients of m^0..m^(2n-1), times (2n-1)!, so
    the last coefficient is the h-hat value.  This is the prediction-side
    reference for the closed form of asymptotics.asymptotic_special_fiber:
    only verify's check "series polynomial vs prediction" and the tests
    call it.  The stable_start docstring
    shows that from there on, with (A, B) = series_exponents(n, k, a1, a2, m),
    the kernel is the sum of w(A + B - i, i) over B - k < i <= B when
    B - A <= k, the cokernel is the sum over A < i <= A + k otherwise, and
    the other series is 0.  Each term is _weyl_numerator, a product of 2n - 1
    linear factors in m, over n!(n-1)!, and (2n-1)! is n!(n-1)! C(2n-1, n-1).

    The sum is taken at the one point m = 2^bits (Kronecker substitution).
    Each factor's |slope| + |constant| is at most max(a1, a2) + n + 2k + 2,
    so C(2n-1, n-1) k times that to the power 2n - 1 bounds every
    |coefficient|.  The base is more than twice the bound, so the
    coefficients are the signed base-2^bits digits of the sum.

    >>> series_polynomials(1, 1, 2, 1)
    ([1, 1], [0, 0])
    >>> series_polynomials(2, 1, 1, 2)
    ([0, 0, 0, 0], [6, -9, -9, 6])
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    if a1 < 1 or a2 < 1:
        raise ValueError(f"divisor coefficients must be >= 1, got ({a1}, {a2})")
    binomial = comb(2 * n - 1, n - 1)
    bits = (binomial * k * (max(a1, a2) + n + 2 * k + 2) ** (2 * n - 1)).bit_length() + 1
    base = 1 << bits
    A, B = series_exponents(n, k, a1, a2, base)
    kernel_side = B - A <= k
    span = range(B - k + 1, B + 1) if kernel_side else range(A + 1, A + k + 1)
    value = binomial * sum(_weyl_numerator(n, A + B - i, i) for i in span)
    coefficients = []
    for _ in range(2 * n):
        digit = (value + base // 2) % base - base // 2
        coefficients.append(digit)
        value = (value - digit) // base
    zero = [0] * (2 * n)
    return (coefficients, zero) if kernel_side else (zero, coefficients)
