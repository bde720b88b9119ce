"""The cross-check suite reports what it finds.

Each case-by-case check in asympure.verify is run with one engine or
closed-form call answering for other arguments in one case; the check must
fail, and its detail must name that case and both values.  A check that
raises is one counted FAIL line, and `asympure verify` then exits 1.
"""

import pytest

from asympure import oracle, reptheory, verify
from asympure.cli import main
from asympure.oracle import ContractionOperator, special_fiber_operator
from asympure.projspace import DivisorClass
from asympure.reptheory import IrrepLabel

CORNER_1 = ContractionOperator(2, 1, ((1, (1, 0, 0), (1, 0, 0)),))
CORNER_2 = ContractionOperator(2, 1, ((1, (1, 0, 0), (1, 0, 0)), (1, (0, 1, 0), (0, 1, 0))))
SPECIAL_21 = special_fiber_operator(2, 1)


def answer_for(real, at, instead):
    """`real`, except that called with the arguments `at` it answers for `instead`."""
    def patched(*args, **kwargs):
        return real(*(instead if args == at else args), **kwargs)
    return patched


# check, its arguments, the module and name of the call patched, the arguments
# it answers wrongly and those it answers for instead, and the FAIL detail
DISAGREEMENTS = {
    "bott goldens": (
        verify._check_bott_goldens, (), verify, "bott_cohomology", (2, 3), (2, 4),
        "bott_cohomology(n, d) vs golden at (2, 3): (15, 0, 0) != (10, 0, 0)"),
    "Weyl goldens": (
        verify._check_weyl_goldens, (), verify, "weyl_dimension",
        (2, IrrepLabel(9, 3)), (2, IrrepLabel(9, 4)),
        "weyl_dimension(n, (l1, l2)) vs golden at (2, (9, 3)): 165 != 154"),
    "Serre duality": (
        verify._check_serre_duality, (3, 12), verify, "bott_cohomology", (2, -6), (2, -7),
        "bott_cohomology(n, d) vs reversed bott_cohomology(n, -d - n - 1) "
        "at (2, -6): (0, 0, 15) != (0, 0, 10)"),
    "Kunneth duality": (
        verify._check_kunneth_duality, (2, 8), verify, "kunneth_cohomology",
        (1, DivisorClass(-3, -3)), (1, DivisorClass(-3, -4)),
        "kunneth_cohomology(n, (a1, a2)) vs reversed kunneth_cohomology(n, "
        "(-a1 - n - 1, -a2 - n - 1)) at (1, -3, -3): (0, 0, 6) != (0, 0, 4)"),
    "Euler vs Kunneth": (
        verify._check_euler_kunneth, (2, 8), verify, "euler_characteristic",
        (1, DivisorClass(2, 3)), (1, DivisorClass(2, 4)),
        "euler_characteristic(n, (a1, a2)) vs kunneth_cohomology(n, (a1, a2)).euler() "
        "at (1, 2, 3): 15 != 12"),
    "Pieri dimension sums": (
        verify._check_pieri_sums, (2, 12), verify, "pieri_decompose", (2, 3, 4), (2, 3, 5),
        "pieri_decompose(n, A, B) dimension vs C(A + n, n) * C(B + n, n) "
        "at (2, 3, 4): 210 != 150"),
    "Euler consistency": (
        verify._check_euler_consistency, ([2], 1, 4), verify, "predict_map_analysis",
        (2, 1, 3, 4), (2, 1, 4, 4),
        "kernel - cokernel of predict_map_analysis(n, k, A, B) vs source - target "
        "at (2, 1, 3, 4): 15 != 0"),
    "engine equivalence (series)": (
        verify._check_engine_series, (8,), verify, "kernel_series_rep",
        (1, 1, 2, 1, range(1, 9)), (1, 2, 2, 1, range(1, 9)),
        "(m, kernel, cokernel) rows of oracle_series vs kernel_series_rep(n, k, a1, a2) "
        "at (1, 1, 2, 1): "
        "[(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0), (6, 7, 0), (7, 8, 0), "
        "(8, 9, 0)] != "
        "[(1, 2, 0), (2, 4, 0), (3, 6, 0), (4, 8, 0), (5, 10, 0), (6, 12, 0), (7, 14, 0), "
        "(8, 16, 0)]"),
    # the series rows are predict_map_analysis's: a fault there is one the series check sees
    "engine equivalence (series, prediction)": (
        verify._check_engine_series, (8,), reptheory, "predict_map_analysis",
        (2, 1, 3, 2), (2, 1, 4, 2),
        "(m, kernel, cokernel) rows of oracle_series vs kernel_series_rep(n, k, a1, a2) "
        "at (2, 1, 1, 1): "
        "[(2, 3, 0), (3, 8, 0), (4, 15, 0), (5, 24, 0), (6, 35, 0), (7, 48, 0), (8, 63, 0)] != "
        "[(2, 3, 0), (3, 8, 0), (4, 27, 0), (5, 24, 0), (6, 35, 0), (7, 48, 0), (8, 63, 0)]"),
    "engine equivalence (grid)": (
        verify._check_engine_grid, ([2], 1, 4), verify, "build_matrix",
        (SPECIAL_21, 3, 4), (SPECIAL_21, 4, 4),
        "(kernel, cokernel) of exact_rank vs predict_map_analysis(n, k, A, B) "
        "at (2, 1, 3, 4): (15, 0) != (0, 0)"),
    "series polynomial vs prediction": (
        verify._check_series_polynomials, (1, 1, 3), verify, "series_polynomials",
        (1, 1, 2, 1), (1, 1, 3, 1),
        "series_polynomials(n, k, a1, a2) at 2n + 3 multiples from stable_start vs "
        "(2n-1)! * kernel_series_rep rows at (1, 1, 2, 1): "
        "[(1, 3, 0), (2, 5, 0), (3, 7, 0), (4, 9, 0), (5, 11, 0)] != "
        "[(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0), (5, 6, 0)]"),
    # the polynomials agree with the prediction, and a closed form answers for another class
    "series polynomial vs prediction (top coefficients)": (
        verify._check_series_polynomials, (1, 1, 3), verify, "asymptotic_special_fiber",
        (1, 1, 2, 1), (1, 1, 3, 1),
        "top coefficients of series_polynomials(n, k, a1, a2) vs "
        "asymptotic_special_fiber(n, k, a1, a2).values[n-1:n+1] at (1, 1, 2, 1): "
        "(1, 0) != (2, 0)"),
    "intersection numbers": (
        verify._check_intersection_numbers, (2, 1, 3), verify, "intersection_number",
        (2, 1, 1, 2, 1), (2, 1, 1, 3, 1),
        "sum_i (-1)^i h-hat^i of purity_report(n, k, [(a1, a2)]) vs "
        "intersection_number(n, k, k, a1, a2) at (2, 1, 2, 1): -6 != -18"),
    # n = 1 is the only dimension whose boundary values are nonzero: k*a1 at index 0
    "intersection numbers (n = 1)": (
        verify._check_intersection_numbers, (2, 1, 3), verify, "intersection_number",
        (1, 1, 1, 2, 0), (1, 1, 1, 3, 0),
        "sum_i (-1)^i h-hat^i of purity_report(n, k, [(a1, a2)]) vs "
        "intersection_number(n, k, k, a1, a2) at (1, 1, 2, 0): 2 != 3"),
    # one Euler characteristic off its polynomial leaves the series no fit
    "Riemann-Roch fits (Euler)": (
        verify._check_riemann_roch_fits, (2, 2, 4), verify, "euler_characteristic",
        (1, DivisorClass(2, -2)), (1, DivisorClass(2, -3)),
        "fitted (2n-1)-th difference of chi(mD) - chi(mD - Y) vs "
        "intersection_number(n, k, k, a1, a2) at (1, 1, 1, 1): "
        "no polynomial of degree 1 on m in [1, 4] != 0"),
    "Riemann-Roch fits (Kunneth)": (
        verify._check_riemann_roch_fits, (2, 2, 4), verify, "asymptotic_product",
        (1, DivisorClass(1, -1)), (1, DivisorClass(2, -1)),
        "fitted 2n-th differences of kunneth_cohomology(n, m * (a1, a2)) vs "
        "asymptotic_product(n, (a1, a2)) at (1, 1, -1): (0, 2, 0) != (0, 4, 0)"),
    # the corners' oracle series build the matrix of multiple m at (A, B) = (m - 1, m - 2)
    "corner closed form": (
        verify._check_corner_closed_form, (8,), oracle, "build_matrix",
        (CORNER_1, 4, 3), (CORNER_1, 5, 4),
        "one-term corner kernel(m) vs (m^3 - m)/2 at (5,): 105 != 60"),
    "corner lower bound (gap)": (
        verify._check_corner_lower_bound, (8,), oracle, "build_matrix",
        (CORNER_2, 4, 3), (CORNER_2, 5, 4),
        "two-term corner kernel(m) vs its bound sum_{j < m - 1} C(m + 1 - j, 2) "
        "at (5,): 55 != 34"),
    "corner lower bound (below)": (
        verify._check_corner_lower_bound, (8,), oracle, "build_matrix",
        (CORNER_2, 4, 3), (CORNER_2, 3, 2),
        "two-term corner kernel(m) vs its bound sum_{j < m - 1} C(m + 1 - j, 2) "
        "at (5,): 19 != 34"),
}


@pytest.mark.parametrize("name", list(DISAGREEMENTS))
def test_fail_names_the_case_and_both_values(monkeypatch, name):
    check, args, where, call, at, instead, detail = DISAGREEMENTS[name]
    assert check(*args)[0]
    monkeypatch.setattr(where, call, answer_for(getattr(where, call), at, instead))
    assert check(*args) == (False, detail)


def test_every_case_by_case_check_is_covered():
    covered = {check for check, *_ in DISAGREEMENTS.values()}
    skipped = {verify._check_purity_scan, verify._check_growth_degrees}
    assert covered | skipped == {check for _, check, _, _ in verify._CHECKS}


def test_a_check_that_raises_is_one_counted_fail_line(capsys, monkeypatch):
    def broken():
        raise RuntimeError("no answer")

    checks = verify._CHECKS[:1] + (("broken", broken, (), ()),) + verify._CHECKS[3:4]
    monkeypatch.setattr(verify, "_CHECKS", checks)
    assert main(["verify", "--suite", "small"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "PASS - bott goldens: 4 spot values\n"
        "FAIL - broken: raised RuntimeError: no answer\n"
        "PASS - Weyl goldens: 4 spot values\n"
        "1 check(s) failed\n"
    )


def test_each_check_logs_its_name_and_elapsed_seconds(capsys, caplog, monkeypatch):
    def broken():
        raise RuntimeError("no answer")

    def refuse(*args, **kwargs):
        raise AssertionError("a DEBUG record was built with DEBUG off")

    checks = verify._CHECKS[:1] + (("broken", broken, (), ()),) + verify._CHECKS[3:4]
    monkeypatch.setattr(verify, "_CHECKS", checks)
    with monkeypatch.context() as quiet:
        caplog.set_level("WARNING", logger="asympure.verify")
        quiet.setattr(verify.logger, "debug", refuse)
        assert verify.run_suite("small") == 1
        out = capsys.readouterr().out
    with caplog.at_level("DEBUG", logger="asympure.verify"):
        assert verify.run_suite("small") == 1
    # the PASS/FAIL lines do not depend on the log level
    assert capsys.readouterr().out == out
    records = [r for r in caplog.records if r.name == "asympure.verify"]
    assert [r.check for r in records] == ["bott goldens", "broken", "Weyl goldens"]
    for record in records:
        assert type(record.elapsed_s) is float and record.elapsed_s >= 0
        assert record.getMessage() == f"{record.check} took {record.elapsed_s:.3f} s"
