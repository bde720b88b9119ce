import logging
from collections import Counter
from math import factorial

import pytest

from asympure import (
    IrrepLabel,
    binomial,
    kernel_series_rep,
    pieri_decompose,
    predict_map_analysis,
    reptheory,
    series_exponents,
    series_polynomials,
    source_target_dims,
    weyl_dimension,
)


def weyl_product(n, l1, l2):
    # the general Weyl product over all pairs of the n+1 rows, written out
    # here as the oracle for the two-row closed form
    lam = (l1, l2) + (0,) * (n - 1)
    num = den = 1
    for p in range(n + 1):
        for q in range(p + 1, n + 1):
            num *= lam[p] - lam[q] + q - p
            den *= q - p
    assert num % den == 0
    return num // den


class TestIrrepLabel:
    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            IrrepLabel(1, 2)
        with pytest.raises(ValueError):
            IrrepLabel(3, -1)


class TestWeylDimension:
    @pytest.mark.parametrize(
        "n,l1,l2,expected",
        [
            (2, 1, 0, 3),    # standard representation
            (3, 1, 1, 6),    # second exterior power of C^4
            (1, 3, 0, 4),
            (1, 2, 1, 2),
            (2, 1, 1, 3),    # dual of the standard rep
            (2, 0, 0, 1),
        ],
    )
    def test_small_cases(self, n, l1, l2, expected):
        assert weyl_dimension(n, IrrepLabel(l1, l2)) == expected

    def test_9_3_via_dimension_sum_difference(self):
        # independent route: (9,3) is the one component of Sym^9 (x) Sym^3
        # missing from Sym^10 (x) Sym^2, so its dimension is the difference
        # of the two tensor-product dimensions
        tensor_93 = binomial(11, 2) * binomial(5, 2)
        tensor_10_2 = binomial(12, 2) * binomial(4, 2)
        assert (tensor_93, tensor_10_2) == (550, 396)
        assert weyl_dimension(2, IrrepLabel(9, 3)) == tensor_93 - tensor_10_2 == 154

    def test_rejects_rank_below_one(self):
        with pytest.raises(ValueError):
            weyl_dimension(0, IrrepLabel(1, 0))

    def test_sl2_closed_form(self):
        for l1 in range(12):
            for l2 in range(l1 + 1):
                assert weyl_dimension(1, IrrepLabel(l1, l2)) == l1 - l2 + 1

    def test_two_row_closed_form_matches_the_general_product(self):
        for n in range(1, 9):
            for l1 in range(41):
                for l2 in range(l1 + 1):
                    assert weyl_dimension(n, IrrepLabel(l1, l2)) == weyl_product(n, l1, l2)


class TestPieri:
    def test_sl2_clebsch_gordan(self):
        dec = pieri_decompose(1, 2, 1)
        assert [(c.lambda1, c.lambda2) for c in dec.components] == [(3, 0), (2, 1)]
        assert dec.dimension() == 6

    def test_four_components(self):
        dec = pieri_decompose(2, 9, 3)
        assert len(dec.components) == 4
        assert dec.dimension() == 550

    def test_trivial_factor(self):
        dec = pieri_decompose(2, 0, 5)
        assert [(c.lambda1, c.lambda2) for c in dec.components] == [(5, 0)]
        assert dec.dimension() == 21

    def test_symmetric_in_A_B(self):
        for A in range(8):
            for B in range(8):
                lhs = pieri_decompose(2, A, B).components
                rhs = pieri_decompose(2, B, A).components
                assert lhs == rhs

    def test_dimension_sum_identity(self):
        # checked over the full acceptance range in test_acceptance
        for n in (1, 2, 3):
            for A in range(12):
                for B in range(12):
                    total = pieri_decompose(n, A, B).dimension()
                    assert total == binomial(A + n, n) * binomial(B + n, n)

    def test_multiplicity_one(self):
        labels = pieri_decompose(2, 7, 5).components
        assert len(set(labels)) == len(labels)


class TestPredict:
    def test_kernel_example(self):
        analysis = predict_map_analysis(2, 1, 9, 3)
        assert analysis.kernel_dim == 154
        assert analysis.cokernel_dim == 0
        assert [(c.lambda1, c.lambda2) for c in analysis.kernel_labels] == [(9, 3)]
        assert analysis.cokernel_labels == ()

    def test_cokernel_example(self):
        analysis = predict_map_analysis(2, 1, 2, 4)
        assert analysis.kernel_dim == 0
        assert analysis.cokernel_dim == 10
        assert [(c.lambda1, c.lambda2) for c in analysis.cokernel_labels] == [(3, 3)]

    def test_sl2_case_frozen_from_oracle(self):
        # golden recorded from the brute-force rank engine: the 5x8 matrix
        # for (n, k, A, B) = (1, 1, 3, 1) has rank 5
        analysis = predict_map_analysis(1, 1, 3, 1)
        assert analysis.kernel_dim == 3
        assert analysis.cokernel_dim == 0
        assert [(c.lambda1, c.lambda2) for c in analysis.kernel_labels] == [(3, 1)]

    def test_zero_target_is_all_kernel(self):
        # B in [0, k): the target Sym^(B-k) is zero, so every source component is kernel
        for n, k, A, B in ((2, 1, 3, 0), (2, 2, 3, 1), (1, 2, 0, 0)):
            analysis = predict_map_analysis(n, k, A, B)
            assert analysis.kernel_labels == pieri_decompose(n, A, B).components
            assert analysis.kernel_dim == source_target_dims(n, k, A, B)[0]
            assert (analysis.cokernel_dim, analysis.cokernel_labels) == (0, ())

    def test_rejects_negative_source_exponents(self):
        for A, B in ((3, -1), (-1, 3)):
            with pytest.raises(ValueError, match="source exponents must be >= 0"):
                predict_map_analysis(2, 1, A, B)

    def test_euler_consistency(self):
        for n in (1, 2, 3):
            for k in (1, 2):
                for A in range(10):
                    for B in range(k, 10):
                        analysis = predict_map_analysis(n, k, A, B)
                        src, tgt = source_target_dims(n, k, A, B)
                        assert analysis.kernel_dim - analysis.cokernel_dim == src - tgt

    def test_labels_disjoint(self):
        for A in range(8):
            for B in range(1, 8):
                analysis = predict_map_analysis(2, 1, A, B)
                overlap = set(analysis.kernel_labels) & set(analysis.cokernel_labels)
                assert not overlap


class TestKernelSeries:
    def test_exponent_schedule(self):
        assert series_exponents(2, 1, 2, 1, 5) == (9, 3)
        assert series_exponents(2, 2, 1, 3, 4) == (2, 11)

    def test_spot_value(self):
        rows = kernel_series_rep(2, 1, 2, 1, [5])
        assert rows == [(5, 154, 0)]

    def test_drops_infeasible_at_debug_level(self, caplog):
        caplog.set_level(logging.DEBUG, logger="asympure.projspace")
        rows = kernel_series_rep(2, 1, 2, 1, range(1, 6))
        assert [m for m, _, _ in rows] == [2, 3, 4, 5]  # m = 2 has B = 0 < k
        assert [(r.name, r.levelname) for r in caplog.records] == [
            ("asympure.projspace", "DEBUG")]
        assert caplog.records[0].getMessage().startswith("dropped m=[1]: ")
        caplog.clear()
        kernel_series_rep(2, 1, 2, 1, range(2, 6))
        assert caplog.records == []  # nothing dropped, nothing logged

    def test_empty_range_raises(self, caplog):
        caplog.set_level(logging.DEBUG, logger="asympure.projspace")
        with pytest.raises(ValueError, match="no feasible multiple"):
            kernel_series_rep(2, 1, 1, 1, [1])
        assert "dropped m=[1]: " in caplog.text

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            kernel_series_rep(2, 1, 0, 1, range(3, 8))

    def test_balanced_case_is_small(self):
        # a1 = a2: both sides grow strictly slower than m^(2n-1)
        rows = kernel_series_rep(2, 1, 1, 1, range(4, 12))
        for m, kernel, cokernel in rows:
            assert kernel == m * m - 1  # single component (m-1, m-2)
            assert cokernel == 0


class TestPredictionIsThePieriDifference:
    def test_labels_and_dimensions_on_every_map(self):
        # on every map with n <= 6, k <= 4 and 0 <= A, B <= 20, the kernel is the
        # multiset difference source less target of the Pieri components, the
        # cokernel target less source (the target is empty when B < k), and
        # each dimension sums the general Weyl product over those labels
        for n in range(1, 7):
            for k in range(1, 5):
                for A in range(21):
                    for B in range(21):
                        source = Counter(pieri_decompose(n, A, B).components)
                        target = Counter(pieri_decompose(n, A + k, B - k).components
                                         if B >= k else ())
                        labelled = predict_map_analysis(n, k, A, B)
                        for labels, dim, want in (
                            (labelled.kernel_labels, labelled.kernel_dim, source - target),
                            (labelled.cokernel_labels, labelled.cokernel_dim, target - source),
                        ):
                            assert labels == tuple(want.elements()), (n, k, A, B)
                            assert dim == sum(weyl_product(n, c.lambda1, c.lambda2)
                                              for c in labels), (n, k, A, B)


class TestKernelSeriesAndWeylNumerator:
    def test_kernel_series_equals_predict_map_analysis(self):
        # the series rows against the maps at their series_exponents
        for n in range(1, 7):
            for k in range(1, 5):
                for a1, a2 in ((1, 1), (2, 1), (1, 2), (3, 2)):
                    for m, kd, cd in kernel_series_rep(n, k, a1, a2, range(1, 9)):
                        labelled = predict_map_analysis(n, k, *series_exponents(n, k, a1, a2, m))
                        assert (kd, cd) == (labelled.kernel_dim, labelled.cokernel_dim)

    def test_weyl_numerator_is_the_scaled_general_product(self):
        for n in range(1, 7):
            scale = factorial(n) * factorial(n - 1)
            for l1 in range(41):
                for l2 in range(l1 + 1):
                    assert reptheory._weyl_numerator(n, l1, l2) == scale * weyl_product(n, l1, l2)

    @pytest.mark.parametrize("n,k", [(2, 0), (0, 1)])
    def test_kernel_series_refuses_n_or_k_below_one(self, n, k):
        with pytest.raises(ValueError, match="need n, k >= 1"):
            kernel_series_rep(n, k, 1, 1, range(3, 8))


class TestSeriesPolynomials:
    @pytest.mark.parametrize("args,message", [
        ((0, 1, 1, 1), "need n, k >= 1"), ((2, 0, 1, 1), "need n, k >= 1"),
        ((2, 1, 0, 1), "divisor coefficients must be >= 1"),
        ((2, 1, 1, 0), "divisor coefficients must be >= 1"),
    ])
    def test_refuses_what_has_no_mixed_series(self, args, message):
        with pytest.raises(ValueError, match=message):
            series_polynomials(*args)
