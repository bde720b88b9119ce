from math import comb

import pytest

from asympure import (
    CohomologyVector,
    DivisorClass,
    binomial,
    bott_cohomology,
    euler_characteristic,
    feasible_multiples,
    kunneth_cohomology,
    series_exponents,
    sym_dim,
)


class TestBinomial:
    def test_matches_comb_on_valid_range(self):
        for p in range(10):
            for q in range(p + 1):
                assert binomial(p, q) == comb(p, q)

    @pytest.mark.parametrize("p,q", [(3, 5), (-1, 0), (-4, 2), (5, -1), (0, -3)])
    def test_out_of_range_is_zero(self, p, q):
        assert binomial(p, q) == 0

    def test_sym_dim(self):
        assert sym_dim(2, 3) == 10
        assert sym_dim(2, 0) == 1
        assert sym_dim(2, -1) == 0


class TestBott:
    @pytest.mark.parametrize(
        "n,d,expected",
        [
            (2, 3, (10, 0, 0)),
            (2, -1, (0, 0, 0)),
            (2, -4, (0, 0, 3)),
            (1, 0, (1, 0)),
            (1, -2, (0, 1)),
            (3, -3, (0, 0, 0, 0)),
        ],
    )
    def test_examples(self, n, d, expected):
        assert bott_cohomology(n, d).values == expected

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            bott_cohomology(0, 1)

    def test_serre_duality(self):
        # h^q(O(d)) = h^(n-q)(O(-d-n-1)) for every index
        for n in range(1, 6):
            for d in range(-30, 31):
                lhs = bott_cohomology(n, d).values
                rhs = bott_cohomology(n, -d - n - 1).values
                assert lhs == tuple(reversed(rhs)), (n, d)

    def test_single_support(self):
        for n in range(1, 5):
            for d in range(-20, 21):
                vec = bott_cohomology(n, d)
                assert len(vec.support()) <= 1
                assert all(v >= 0 for v in vec.values)


class TestKunneth:
    def test_nef_example(self):
        vec = kunneth_cohomology(2, DivisorClass(1, 1))
        assert vec.values == (9, 0, 0, 0, 0)

    def test_mixed_example_against_factor_product(self):
        # independent route: the single surviving term is the product of
        # the two one-factor dimensions at the contributing indices
        vec = kunneth_cohomology(2, DivisorClass(2, -4))
        expected = bott_cohomology(2, 2)[0] * bott_cohomology(2, -4)[2]
        assert expected == 18
        assert vec.values == (0, 0, expected, 0, 0)

    def test_anti_nef_example(self):
        assert kunneth_cohomology(1, DivisorClass(-2, -2)).values == (0, 0, 1)

    def test_duality(self):
        for n in (1, 2, 3):
            for a1 in range(-8, 9):
                for a2 in range(-8, 9):
                    lhs = kunneth_cohomology(n, DivisorClass(a1, a2)).values
                    dual = DivisorClass(-a1 - n - 1, -a2 - n - 1)
                    rhs = kunneth_cohomology(n, dual).values
                    assert lhs == tuple(reversed(rhs)), (n, a1, a2)

    def test_single_support(self):
        for a1 in range(-6, 7):
            for a2 in range(-6, 7):
                vec = kunneth_cohomology(2, DivisorClass(a1, a2))
                assert len(vec.support()) <= 1


class TestEuler:
    @pytest.mark.parametrize(
        "n,a1,a2,expected",
        [(2, 1, 1, 9), (2, 2, -4, 18), (1, -1, 5, 0)],
    )
    def test_examples(self, n, a1, a2, expected):
        assert euler_characteristic(n, DivisorClass(a1, a2)) == expected

    def test_factors(self):
        for n in (1, 2):
            for a1 in range(-6, 7):
                for a2 in range(-6, 7):
                    chi1 = bott_cohomology(n, a1).euler()
                    chi2 = bott_cohomology(n, a2).euler()
                    assert euler_characteristic(n, DivisorClass(a1, a2)) == chi1 * chi2

    def test_rejects_dimension_below_one(self):
        with pytest.raises(ValueError, match="projective dimension must be >= 1"):
            euler_characteristic(0, DivisorClass(1, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kunneth_alternating_sum_on_all_three_bands(self, n):
        # d >= 0, the acyclic band -n <= d <= -1, and d <= -(n + 1), in each factor
        bands = (range(0, 4), range(-n, 0), range(-n - 4, -n))
        for first, second in ((b1, b2) for b1 in bands for b2 in bands):
            for a1 in first:
                for a2 in second:
                    divisor = DivisorClass(a1, a2)
                    assert euler_characteristic(n, divisor) == kunneth_cohomology(
                        n, divisor).euler(), (n, a1, a2)

    @pytest.mark.parametrize("a1,a2", [(1, 1), (2, -4), (-3, 2), (-1, -1), (0, 5)])
    def test_polynomiality(self, a1, a2):
        # chi(m*D) agrees with a polynomial of degree <= 2n on all m >= 1,
        # so the (2n+1)-th finite difference vanishes everywhere
        for n in (1, 2):
            order = 2 * n + 1
            values = [
                euler_characteristic(n, DivisorClass(m * a1, m * a2))
                for m in range(1, order + 4)
            ]
            for _ in range(order):
                values = [b - a for a, b in zip(values, values[1:])]
            assert all(v == 0 for v in values), (n, a1, a2)


class TestDivisorClass:
    def test_negation_and_scaling(self):
        d = DivisorClass(2, -3)
        assert -1 * d == DivisorClass(-2, 3)
        assert 4 * d == DivisorClass(8, -12)
        assert d * 0 == DivisorClass(0, 0)


class TestCohomologyVector:
    def test_out_of_range_indices_are_zero(self):
        vec = bott_cohomology(2, 3)
        assert vec[-1] == 0
        assert vec[7] == 0
        assert vec[0] == 10

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            CohomologyVector((1, -1, 0))

    def test_rejects_multiple_support(self):
        with pytest.raises(ValueError):
            CohomologyVector((1, 0, 2))


class TestFeasibleMultiples:
    def test_keeps_every_multiple_with_nonnegative_exponents(self):
        for n, k, a1, a2 in ((2, 1, 2, 1), (2, 2, 1, 3), (1, 2, 1, 1), (3, 1, 1, 2)):
            walk = feasible_multiples(n, k, a1, a2, range(0, 9))
            expected = [(m, *series_exponents(n, k, a1, a2, m)) for m in range(0, 9)]
            assert walk == [(m, A, B) for m, A, B in expected if A >= 0 and B >= 0]
