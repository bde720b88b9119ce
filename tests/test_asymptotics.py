import dataclasses
import logging
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from asympure import (
    AsymptoticVector,
    CaseLabel,
    DivisorClass,
    PurityVerdict,
    SeriesNotStabilized,
    asymptotic_product,
    asymptotic_special_fiber,
    classify,
    fit_leading_coefficient,
    intersection_number,
    kernel_series_rep,
    purity_report,
    series_polynomials,
    source_target_dims,
    stable_start,
)
from asympure.asymptotics import _case_labels


class TestClassify:
    @pytest.mark.parametrize(
        "a1,a2,kind,allowed",
        [
            (1, 1, "nef", {0}),
            (-1, -2, "anti_nef", {3}),
            (2, -1, "mixed", {1, 2}),
            (-2, 1, "mixed", {1, 2}),
            (3, 0, "boundary", {0}),
            (0, -3, "boundary", {3}),
            (0, 0, "boundary", {0}),
        ],
    )
    def test_n2_cases(self, a1, a2, kind, allowed):
        label = classify(2, DivisorClass(a1, a2))
        assert label.kind == kind
        assert label.allowed_indices == frozenset(allowed)

    def test_sign_grid_all_ranks(self):
        for n in range(1, 5):
            for a1 in range(-4, 5):
                for a2 in range(-4, 5):
                    label = classify(n, DivisorClass(a1, a2))
                    if a1 > 0 and a2 > 0:
                        assert label.allowed_indices == {0}
                    elif a1 < 0 and a2 < 0:
                        assert label.allowed_indices == {2 * n - 1}
                    elif a1 * a2 < 0:
                        assert label.allowed_indices == {n - 1, n}
                    else:
                        assert label.kind == "boundary"
                        assert label.allowed_indices <= {0, 2 * n - 1}


class TestFit:
    def test_cubic(self):
        series = [(m, m**3) for m in range(5, 10)]
        assert fit_leading_coefficient(series, 3) == 1

    def test_constant_at_degree_one_is_zero(self):
        series = [(m, 7) for m in range(3, 8)]
        assert fit_leading_coefficient(series, 1) == 0

    def test_corner_kernel_leading_coefficient(self):
        series = [(m, (m**3 - m) // 2) for m in range(4, 10)]
        assert fit_leading_coefficient(series, 3) == Fraction(1, 2)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="points"):
            fit_leading_coefficient([(1, 1), (2, 8), (3, 27)], 3)

    def test_non_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            fit_leading_coefficient([(1, 1), (3, 27), (4, 64), (5, 125), (6, 216)], 3)

    def test_not_stabilized(self):
        series = [(m, m**4) for m in range(2, 8)]
        with pytest.raises(SeriesNotStabilized):
            fit_leading_coefficient(series, 3)


def product_closed_form(n, a1, a2):
    # C(2n, n) * |a1|^n * |a2|^n at index 0 on nef classes, 2n on anti-nef ones
    # and n on the others, where a1*a2 = 0 gives 0
    index = 0 if a1 > 0 and a2 > 0 else 2 * n if a1 < 0 and a2 < 0 else n
    expected = [0] * (2 * n + 1)
    expected[index] = comb(2 * n, n) * abs(a1) ** n * abs(a2) ** n
    return tuple(expected)


def fiber_closed_form(n, k, a1, a2):
    # with c = k * C(2n-1, n-1) * (a1*a2)^(n-1), h-hat^(n-1) = c*max(a1-a2, 0),
    # h-hat^n = c*max(a2-a1, 0), and every other index is 0.  On the boundary
    # a1*a2 = 0 this leaves k*a at the allowed index for n = 1 (0**0 == 1) and 0
    # for n >= 2, and 0 for the zero class.
    c = k * comb(2 * n - 1, n - 1) * (a1 * a2) ** (n - 1)
    expected = [0] * (2 * n)
    expected[n - 1] = c * max(a1 - a2, 0)
    expected[n] = c * max(a2 - a1, 0)
    return tuple(expected)


class TestAsymptoticProduct:
    def test_nef_p1(self):
        vec = asymptotic_product(1, DivisorClass(1, 1))
        assert vec.values == (2, 0, 0)
        assert all(type(v) is int for v in vec.values)
        assert str(vec.purity) == "pure(0)"

    def test_mixed_value_matches_closed_form(self):
        for n in (1, 2, 3, 4):
            for a1, a2 in [(1, -1), (2, -1), (1, -3), (-2, 3),
                           (1, 1), (2, 3), (-1, -1), (-3, -2)]:
                vec = asymptotic_product(n, DivisorClass(a1, a2))
                expected = product_closed_form(n, a1, a2)
                assert vec.values == expected, (n, a1, a2)
                assert all(type(v) is int for v in vec.values), (n, a1, a2)
                assert str(vec.purity) == f"pure({expected.index(max(expected))})"

    def test_boundary_class_is_zero(self):
        # a1*a2 = 0: the top self-intersection C(2n, n)*|a1*a2|^n is 0, and the
        # series has degree at most n < 2n
        cases = [(2, 0, 5)]
        cases += [(n, *c) for n in range(1, 5) for c in [(0, 0), (0, -4), (3, 0), (-2, 0)]]
        for n, a1, a2 in cases:
            vec = asymptotic_product(n, DivisorClass(a1, a2))
            assert vec.values == (0,) * (2 * n + 1), (n, a1, a2)
            assert all(type(v) is int for v in vec.values), (n, a1, a2)
            assert str(vec.purity) == "pure_zero"

    def test_homogeneity(self):
        base = asymptotic_product(2, DivisorClass(1, -2))
        for lam in (1, 2, 3, 4):
            scaled = asymptotic_product(2, lam * DivisorClass(1, -2))
            assert scaled.values == tuple(lam**4 * v for v in base.values)

    def test_duality(self):
        for n in (1, 2):
            for a1 in range(-3, 4):
                for a2 in range(-3, 4):
                    lhs = asymptotic_product(n, DivisorClass(a1, a2)).values
                    rhs = asymptotic_product(n, DivisorClass(-a1, -a2)).values
                    assert lhs == tuple(reversed(rhs))


def heuristic_start(n, k, a1, a2):
    # reference that the derived stable_start must never exceed: the older
    # heuristic (B >= k, a gap guessed from n + 1 and |n + 1 - 2k|, plus one)
    m0 = max(-(-k // a1), -(-(n + 1) // a2))
    if a1 != a2:
        gap = max(abs(n + 1 - 2 * k), n + 1)
        m0 = max(m0, gap // abs(a1 - a2) + 1)
    return m0 + 1


def evaluate(poly, m):
    return sum(c * m**i for i, c in enumerate(poly))


def is_polynomial(rows, degree) -> bool:
    # whether the kernel and the cokernel column are both polynomial of at
    # most this degree on the rows' multiples
    try:
        for column in (1, 2):
            fit_leading_coefficient([(row[0], row[column]) for row in rows], degree)
    except SeriesNotStabilized:
        return False
    return True


class TestStableStart:
    def test_minimal_never_too_early_nor_later_than_the_heuristic(self):
        # series_polynomials equals the prediction on the 40 multiples from the
        # start, and one multiple earlier the map is infeasible or off the
        # polynomial: the bound is minimal
        for n in range(1, 7):
            scale = factorial(2 * n - 1)
            for k in range(1, 6):
                for a1 in range(1, 9):
                    for a2 in range(1, 9):
                        case = (n, k, a1, a2)
                        start = stable_start(n, k, a1, a2)
                        assert start <= heuristic_start(n, k, a1, a2), case
                        assert start <= max(k, n + 1), case
                        polynomials = series_polynomials(n, k, a1, a2)
                        rows = [(m, *(evaluate(poly, m) for poly in polynomials))
                                for m in range(start - 1, start + 40)]
                        predicted = [(m, kd * scale, cd * scale) for m, kd, cd in
                                     kernel_series_rep(n, k, a1, a2, range(start - 1, start + 40))]
                        assert predicted[-40:] == rows[1:], case
                        assert len(predicted) == 40 or predicted[0] != rows[0], case

    def test_one_multiple_earlier_breaks_the_series(self):
        # at (2, 1, 1, 2), m = 1 is feasible (A = B = 0) but B - A = 0 < k
        # although a2 > a1: kernel 1 and cokernel 0 there, where the
        # polynomials from m = 2 on give 0 and -1
        assert (stable_start(2, 1, 1, 2), heuristic_start(2, 1, 1, 2)) == (2, 5)
        rows = kernel_series_rep(2, 1, 1, 2, range(1, 8))
        assert not is_polynomial(rows[:6], 3) and is_polynomial(rows[1:], 3)

    @pytest.mark.parametrize("n,k", [(0, 1), (2, 0), (-1, -1)])
    def test_refuses_n_or_k_below_one(self, n, k):
        # below 1 there is no special fiber, yet the walk would return a multiple
        with pytest.raises(ValueError, match=rf"need n, k >= 1, got n={n}, k={k}"):
            stable_start(n, k, 1, 1)


class TestAsymptoticSpecialFiber:
    def test_kernel_side(self):
        vec = asymptotic_special_fiber(2, 1, 2, 1)
        assert vec.values == (0, 6, 0, 0)
        assert str(vec.purity) == "pure(1)"

    def test_balanced_vanishes(self):
        vec = asymptotic_special_fiber(2, 1, 1, 1)
        assert str(vec.purity) == "pure_zero"

    def test_cokernel_side_k2(self):
        vec = asymptotic_special_fiber(2, 2, 1, 3)
        assert vec.values[1] == 0
        assert vec.values[2] > 0
        assert str(vec.purity) == "pure(2)"

    def test_nef_curve_volume(self):
        # on the (1,1) conic in P^1 x P^1, D = a1*H1 restricts to a1 points
        for a1 in (1, 2, 5):
            vec = asymptotic_special_fiber(1, 1, a1, 0)
            assert vec.values == (a1, 0)

    def test_anti_nef_curve(self):
        vec = asymptotic_special_fiber(1, 1, 0, 1)
        assert vec.values == (0, 1)

    def test_nef_not_big_on_threefold(self):
        # pullback classes from one factor have growth degree n < 2n-1
        assert str(asymptotic_special_fiber(2, 1, 3, 0).purity) == "pure_zero"
        assert str(asymptotic_special_fiber(2, 2, 0, 3).purity) == "pure_zero"

    def test_zero_divisor_is_boundary_and_all_zero(self):
        # chi(mD) - chi(mD - Y) is constant in m for D = 0: its intersection number is 0
        zero = DivisorClass(0, 0)
        for n in range(1, 7):
            for k in range(1, 6):
                vec = asymptotic_special_fiber(n, k, 0, 0)
                assert vec.values == (0,) * (2 * n), (n, k)
                assert all(type(v) is int for v in vec.values), (n, k)
                label = classify(n, zero)
                assert label.kind == "boundary" and label.allowed_indices == {0}
                assert purity_report(n, k, [(0, 0)]) == [((0, 0), label, vec)], (n, k)

    def test_boundary_values_are_signed_intersection_numbers(self):
        # a boundary class is read from the mixed closed form at a1*a2 = 0; its one
        # allowed index i holds (-1)^i (D|_Y)^(2n-1), and every other index 0
        for n in range(1, 7):
            for k in range(1, 5):
                for a in range(9):
                    for a1, a2 in [(a, 0), (0, a)]:
                        (i,) = classify(n, DivisorClass(a1, -a2)).allowed_indices
                        expected = [0] * (2 * n)
                        expected[i] = (-1) ** i * intersection_number(n, k, k, a1, a2)
                        vec = asymptotic_special_fiber(n, k, a1, a2)
                        assert vec.values == tuple(expected), (n, k, a1, a2)

    def test_antisymmetry(self):
        for k in (1, 2):
            for a1, a2 in [(2, 1), (3, 1), (1, 2), (2, 3), (1, 1)]:
                lhs = asymptotic_special_fiber(2, k, a1, a2)
                rhs = asymptotic_special_fiber(2, k, a2, a1)
                assert lhs.values[1] == rhs.values[2]
                assert lhs.values[2] == rhs.values[1]

    def test_chi_consistency(self):
        # values[n-1] - values[n] equals the Euler-characteristic leading
        # term of dim(source) - dim(target), times (2n-1)!
        n = 2
        for k in (1, 2):
            for a1, a2 in [(2, 1), (1, 2), (1, 1), (3, 2)]:
                vec = asymptotic_special_fiber(n, k, a1, a2)
                start = stable_start(n, k, a1, a2)
                series = []
                for m in range(start, start + 2 * n + 3):
                    src, tgt = source_target_dims(
                        n, k, m * a1 - k, m * a2 + k - (n + 1)
                    )
                    series.append((m, src - tgt))
                lead = fit_leading_coefficient(series, 2 * n - 1)
                assert vec.values[n - 1] - vec.values[n] == lead * 6

    def test_whole_vector_matches_intersection_numbers(self):
        # the closed form uses no Weyl dimension, so it checks the scan path
        # independently of weyl_dimension
        for n in range(1, 6):
            for k in range(1, 5):
                for a1 in range(7):
                    for a2 in range(7):
                        if (a1, a2) == (0, 0):
                            continue
                        vec = asymptotic_special_fiber(n, k, a1, a2)
                        assert vec.values == fiber_closed_form(n, k, a1, a2), (n, k, a1, a2)
                        assert all(type(v) is int for v in vec.values), (n, k, a1, a2)

    def test_no_series_is_fitted_at_run_time(self, monkeypatch):
        # every h-hat value comes from an exact expression, the zero class's too,
        # with fit_leading_coefficient refusing every call
        import asympure.asymptotics as asym

        def refuse(*args):
            raise AssertionError("fit_leading_coefficient called at run time")

        monkeypatch.setattr(asym, "fit_leading_coefficient", refuse)
        grid = [(a1, a2) for a1 in range(7) for a2 in range(7)]
        for n in range(1, 5):
            for k in range(1, 4):
                for (a1, a2), _, vec in purity_report(n, k, grid):
                    assert vec.values == fiber_closed_form(n, k, a1, a2), (n, k, a1, a2)
            for a1 in range(-4, 5):
                for a2 in range(-4, 5):
                    vec = asymptotic_product(n, DivisorClass(a1, a2))
                    assert vec.values == product_closed_form(n, a1, a2), (n, a1, a2)

    def test_no_series_is_evaluated_at_run_time(self, monkeypatch, caplog):
        # the mixed values and their DEBUG lines need neither the series
        # polynomials nor the predicted rows
        import asympure.reptheory as rep

        def refuse(*args):
            raise AssertionError("a series evaluated at run time")

        monkeypatch.setattr(rep, "series_polynomials", refuse)
        monkeypatch.setattr(rep, "kernel_series_rep", refuse)
        caplog.set_level(logging.DEBUG, logger="asympure.asymptotics")
        grid = [(a1, a2) for a1 in range(7) for a2 in range(7)]
        for n in range(1, 5):
            for k in range(1, 4):
                for (a1, a2), _, vec in purity_report(n, k, grid):
                    assert vec.values == fiber_closed_form(n, k, a1, a2), (n, k, a1, a2)
        assert len(caplog.records) == 4 * 3 * 36

    def test_a_polynomial_off_the_prediction_names_the_class(self, monkeypatch):
        # verify ties the polynomials to the prediction; the run-time values do
        # not read them
        import asympure.verify as verify

        monkeypatch.setattr(verify, "series_polynomials", constant_off_by_one)
        ok, detail = verify._check_series_polynomials(2, 1, 2)
        assert not ok
        assert detail.startswith("series_polynomials(n, k, a1, a2) at 2n + 3 multiples from "
                                 "stable_start vs (2n-1)! * kernel_series_rep rows at "
                                 "(1, 1, 1, 1): [(1, 2, 0), (2, 2, 0), ")
        assert asymptotic_special_fiber(2, 1, 2, 1).values == (0, 6, 0, 0)

    def test_logs_one_debug_line_per_mixed_class(self, caplog):
        caplog.set_level(logging.DEBUG, logger="asympure.asymptotics")
        purity_report(2, 1, [(a1, a2) for a1 in range(3) for a2 in range(3)])
        assert [r.getMessage() for r in caplog.records] == [
            "mixed class (n, k, a1, a2) = (2, 1, 1, 1): stable_start 2, kernel side, "
            "m^3 coefficient 0",
            "mixed class (n, k, a1, a2) = (2, 1, 1, 2): stable_start 2, cokernel side, "
            "m^3 coefficient 1",
            "mixed class (n, k, a1, a2) = (2, 1, 2, 1): stable_start 2, kernel side, "
            "m^3 coefficient 1",
            "mixed class (n, k, a1, a2) = (2, 1, 2, 2): stable_start 1, kernel side, "
            "m^3 coefficient 0",
        ]

    def test_debug_line_is_the_one_built_from_the_series_polynomials(self, caplog):
        # the side is the one whose polynomial is nonzero, and the coefficient
        # its top one over (2n-1)!; at a1 == a2 with k > n + 1 that side is the
        # cokernel, with coefficient 0
        caplog.set_level(logging.DEBUG, logger="asympure.asymptotics")
        expected = []
        for n in range(1, 5):
            for k in range(1, 7):
                for a1 in range(1, 7):
                    for a2 in range(1, 7):
                        polynomials = series_polynomials(n, k, a1, a2)
                        side = "cokernel" if any(polynomials[1]) else "kernel"
                        start = stable_start(n, k, a1, a2)
                        coefficient = Fraction(polynomials[side == "cokernel"][-1],
                                               factorial(2 * n - 1))
                        expected.append((
                            f"mixed class (n, k, a1, a2) = ({n}, {k}, {a1}, {a2}): stable_start "
                            f"{start}, {side} side, m^{2 * n - 1} coefficient {coefficient}",
                            (n, k, a1, a2), start, side))
                        asymptotic_special_fiber(n, k, a1, a2)
        assert [(r.getMessage(), r.divisor_class, r.stable_start, r.side)
                for r in caplog.records] == expected
        assert expected[2 * 36] == (
            "mixed class (n, k, a1, a2) = (1, 3, 1, 1): stable_start 3, cokernel side, "
            "m^1 coefficient 0", (1, 3, 1, 1), 3, "cokernel")

    def test_debug_records_carry_class_start_and_side_as_fields(self, caplog):
        caplog.set_level(logging.DEBUG, logger="asympure.asymptotics")
        purity_report(2, 1, [(a1, a2) for a1 in range(3) for a2 in range(3)])
        assert [(r.divisor_class, r.stable_start, r.side) for r in caplog.records] == [
            ((2, 1, 1, 1), 2, "kernel"),
            ((2, 1, 1, 2), 2, "cokernel"),
            ((2, 1, 2, 1), 2, "kernel"),
            ((2, 1, 2, 2), 1, "kernel"),
        ]


class TestIntersectionNumber:
    def test_is_the_top_term_of_the_expansion(self):
        # D^(2n-1) * (k*H1 + l*H2) term by term: only H1^(n-1) H2^n meets k*H1 and
        # only H1^n H2^(n-1) meets l*H2 in the class H1^n H2^n of a point
        for n in range(1, 5):
            for k in range(1, 4):
                for l in range(1, 4):
                    for a1 in range(5):
                        for a2 in range(5):
                            top = sum(comb(2 * n - 1, i) * a1**i * (-a2) ** (2 * n - 1 - i)
                                      * {n - 1: k, n: l}.get(i, 0) for i in range(2 * n))
                            assert intersection_number(n, k, l, a1, a2) == top

    @pytest.mark.parametrize("n", [0, -2])
    def test_refuses_projective_dimension_below_one(self, n):
        with pytest.raises(ValueError, match=rf"projective dimension must be >= 1, got {n}"):
            intersection_number(n, 1, 1, 1, 1)


def constant_off_by_one(n, k, a1, a2):
    # series_polynomials with the kernel polynomial's constant term one too high
    kernel, cokernel = series_polynomials(n, k, a1, a2)
    return [kernel[0] + 1, *kernel[1:]], cokernel


class TestPurityReport:
    def test_grid_is_pure(self):
        grid = [(a1, a2) for a1 in range(5) for a2 in range(5)]
        records = purity_report(2, 1, grid)
        assert len(records) == 25
        for divisor, label, vec in records:
            assert vec.purity.kind in ("pure", "pure_zero")

    def test_spot_verdicts(self):
        records = {pair: vec for pair, _, vec in purity_report(2, 1, [(1, 1), (3, 1)])}
        assert str(records[(1, 1)].purity) == "pure_zero"
        assert str(records[(3, 1)].purity) == "pure(1)"

    def test_zero_pair_is_trivially_pure_zero(self):
        (_, label, vec), = purity_report(2, 1, [(0, 0)])
        assert str(vec.purity) == "pure_zero"
        assert label.kind == "boundary"

    def test_impure_class_is_reported(self, monkeypatch):
        import asympure.asymptotics as asym

        fake = AsymptoticVector((1, 2, 0, 0))
        # the one class, (1, 1), builds the fake vector in place of its (0, 0, 0, 0)
        monkeypatch.setattr(asym, "AsymptoticVector", lambda values: fake)
        (pair, _, vec), = asym.purity_report(2, 1, [(1, 1)])
        assert pair == (1, 1)
        assert vec.purity.kind == "impure"

    def test_matches_the_per_class_api(self):
        # pairs come back as given, in input order, repeats included
        grid = [(a1, a2) for a1 in range(6) for a2 in range(6)] + [(2, 3)]
        random.Random(0).shuffle(grid)
        for n in range(1, 5):
            for k in range(1, 4):
                expected = [((a1, a2), classify(n, DivisorClass(a1, -a2)),
                             asymptotic_special_fiber(n, k, a1, a2)) for a1, a2 in grid]
                assert purity_report(n, k, grid) == expected, (n, k)

    def test_refuses_n_or_k_below_one(self):
        for n, k in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match=rf"need n, k >= 1, got n={n}, k={k}"):
                purity_report(n, k, [(1, 1)])

    def test_checks_n_and_k_before_any_pair(self):
        for n, k in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match=rf"need n, k >= 1, got n={n}, k={k}"):
                purity_report(n, k, [])
            with pytest.raises(ValueError, match=rf"need n, k >= 1, got n={n}, k={k}"):
                purity_report(n, k, [(-1, 1)])

    def test_takes_any_iterable_of_pairs(self):
        pairs = [(3, 1), (0, 2), (2, 2)]
        assert purity_report(3, 2, iter(pairs)) == purity_report(3, 2, pairs)
        assert purity_report(3, 2, ()) == []


class TestAsymptoticVector:
    def test_verdict_classification(self):
        assert str(AsymptoticVector((0, 0, 0, 0)).purity) == "pure_zero"
        assert str(AsymptoticVector((0, 5, 0, 0)).purity) == "pure(1)"
        assert str(AsymptoticVector((1, 5, 0, 0)).purity) == "impure(0,1)"

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            AsymptoticVector((0, -1, 0, 0))
        for values in [(0, -1), (-1,), (5, 0, -2)]:
            with pytest.raises(ValueError, match="must be nonnegative"):
                AsymptoticVector(values)
        assert AsymptoticVector(()).dim == -1
        assert AsymptoticVector((0, 0)).purity.kind == "pure_zero"


class TestSharedInstances:
    """classify and AsymptoticVector.purity hand out shared frozen instances."""

    def test_labels_equal_fresh_ones(self):
        for n in range(1, 7):
            top = 2 * n - 1
            fresh = {
                (1, 1): CaseLabel("nef", frozenset({0})),
                (-1, -1): CaseLabel("anti_nef", frozenset({top})),
                (1, -1): CaseLabel("mixed", frozenset({n - 1, n})),
                (-1, 1): CaseLabel("mixed", frozenset({n - 1, n})),
                (1, 0): CaseLabel("boundary", frozenset({0})),
                (0, 0): CaseLabel("boundary", frozenset({0})),
                (0, 1): CaseLabel("boundary", frozenset({0})),
                (0, -1): CaseLabel("boundary", frozenset({top})),
                (-1, 0): CaseLabel("boundary", frozenset({top})),
            }
            for (a1, a2), label in fresh.items():
                shared = classify(n, DivisorClass(a1, a2))
                assert shared == label, (n, a1, a2)
                assert classify(n, DivisorClass(3 * a1, 2 * a2)) is shared
            # every sign pair is in the table, and the nine share five instances
            table = _case_labels(n)
            assert sorted(table) == sorted(product((-1, 0, 1), repeat=2))
            assert len({id(label) for label in table.values()}) == 5
        for a1, a2 in [(-1, -1), (1, -1), (0, -1)]:
            assert classify(2, DivisorClass(a1, a2)) != classify(3, DivisorClass(a1, a2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            classify(2, DivisorClass(1, 1)).kind = "mixed"

    def test_purity_report_labels_are_the_classify_ones(self):
        pairs = [(a1, a2) for a1 in range(21) for a2 in range(21)]
        for n in range(1, 7):
            for (a1, a2), label, _ in purity_report(n, 2, pairs):
                assert label is classify(n, DivisorClass(a1, -a2))

    def test_verdicts_equal_fresh_ones_on_the_benchmark_grid(self):
        pairs = [(a1, a2) for a1 in range(21) for a2 in range(21)]
        seen = 0
        for n in range(2, 7):
            for k in range(1, 5):
                for _, _, vector in purity_report(n, k, pairs):
                    indices = tuple(i for i, v in enumerate(vector.values) if v)
                    fresh = PurityVerdict(indices)
                    shared = vector.purity
                    kind = "pure_zero" if not indices else "pure" if len(indices) == 1 else "impure"
                    text = f"{kind}({','.join(map(str, indices))})" if indices else kind
                    assert shared == fresh and shared.kind == fresh.kind == kind
                    assert str(shared) == str(fresh) == text
                    assert AsymptoticVector(vector.values).purity is shared
                    seen += 1
        assert seen == 8820
        with pytest.raises(dataclasses.FrozenInstanceError):
            PurityVerdict((1,)).kind = "impure"

    def test_instances_outlive_many_other_keys(self):
        # a label or verdict handed out once is the one handed out later in the
        # same process, however many other n or index tuples came between
        label = classify(1, DivisorClass(1, -1))
        for n in range(2, 70):
            classify(n, DivisorClass(1, -1))
        assert classify(1, DivisorClass(1, -1)) is label
        verdict = purity_report(1, 1, [(2, 1)])[0][2].purity
        for n in range(2, 1100):
            for _, _, vector in purity_report(n, 1, [(2, 1), (1, 2)]):
                vector.purity
        assert purity_report(1, 1, [(2, 1)])[0][2].purity is verdict
