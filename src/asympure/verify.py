"""Cross-check suite: the two engines against each other and against closed forms.

Each check returns (ok, detail) and the runner prints one PASS/FAIL line per
check.  The small suite keeps n <= 2, k <= 2, m <= 8 and finishes in well
under a minute; the full suite extends to m <= 12, the complete exponent
grid, and rank-3 prediction-only identities.

Every check but the purity scan and the rank-3 growth laws walks its cases
through _agree, so its FAIL line names the first case that differs and both
values: `FAIL - <check>: <what> at <case>: <got> != <want>`.  A check that
raises is a failed check: `FAIL - <check>: raised <Type>: <message>`.
With --verbose, each check's elapsed time also goes to stderr through the
asympure.verify logger (see run_suite); stdout stays the same.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import factorial
from operator import attrgetter, sub
from time import perf_counter
from typing import Callable, Iterable

from .asymptotics import (
    SeriesNotStabilized,
    asymptotic_product,
    asymptotic_special_fiber,
    fit_leading_coefficient,
    intersection_number,
    purity_report,
    stable_start,
)
from .oracle import (
    ContractionOperator,
    build_matrix,
    exact_rank,
    oracle_series,
    special_fiber_operator,
)
from .projspace import (
    DivisorClass,
    binomial,
    bott_cohomology,
    euler_characteristic,
    kunneth_cohomology,
    source_target_dims,
)
from .reptheory import (
    IrrepLabel,
    kernel_series_rep,
    pieri_decompose,
    predict_map_analysis,
    series_polynomials,
    weyl_dimension,
)

logger = logging.getLogger(__name__)

Check = tuple[str, Callable[[], tuple[bool, str]]]

# spot values keyed by case: bott_cohomology(n, d).values and weyl_dimension(n, (l1, l2))
_BOTT_GOLDENS = {(2, 3): (10, 0, 0), (2, -1): (0, 0, 0), (2, -4): (0, 0, 3), (3, 0): (1, 0, 0, 0)}
_WEYL_GOLDENS = {(2, (1, 0)): 3, (3, (1, 1)): 6, (2, (9, 3)): 154, (1, (3, 0)): 4}

_kernel_cokernel = attrgetter("kernel_dim", "cokernel_dim")


def _agree(
    what: str, cases: Iterable[tuple], got: Callable, want: Callable, passed: str
) -> tuple[bool, str]:
    """(True, passed), or (False, detail) at the first case where got(*case) != want(*case)."""
    for case in cases:
        value, expected = got(*case), want(*case)
        if value != expected:
            return False, f"{what} at {case}: {value} != {expected}"
    return True, passed


def _check_bott_goldens() -> tuple[bool, str]:
    return _agree("bott_cohomology(n, d) vs golden", _BOTT_GOLDENS,
                  lambda n, d: bott_cohomology(n, d).values, lambda *case: _BOTT_GOLDENS[case],
                  f"{len(_BOTT_GOLDENS)} spot values")


def _check_serre_duality(n_max: int, d_max: int) -> tuple[bool, str]:
    return _agree("bott_cohomology(n, d) vs reversed bott_cohomology(n, -d - n - 1)",
                  product(range(1, n_max + 1), range(-d_max, d_max + 1)),
                  lambda n, d: bott_cohomology(n, d).values,
                  lambda n, d: bott_cohomology(n, -d - n - 1).values[::-1],
                  f"n <= {n_max}, |d| <= {d_max}")


def _check_kunneth_duality(n_max: int, a_max: int) -> tuple[bool, str]:
    span = range(-a_max, a_max + 1)
    return _agree("kunneth_cohomology(n, (a1, a2)) vs reversed "
                  "kunneth_cohomology(n, (-a1 - n - 1, -a2 - n - 1))",
                  product(range(1, n_max + 1), span, span),
                  lambda n, a1, a2: kunneth_cohomology(n, DivisorClass(a1, a2)).values,
                  lambda n, a1, a2: kunneth_cohomology(
                      n, DivisorClass(-a1 - n - 1, -a2 - n - 1)).values[::-1],
                  f"n <= {n_max}, |a| <= {a_max}")


def _check_euler_kunneth(n_max: int, a_max: int) -> tuple[bool, str]:
    span = range(-a_max, a_max + 1)
    return _agree("euler_characteristic(n, (a1, a2)) vs kunneth_cohomology(n, (a1, a2)).euler()",
                  product(range(1, n_max + 1), span, span),
                  lambda n, a1, a2: euler_characteristic(n, DivisorClass(a1, a2)),
                  lambda n, a1, a2: kunneth_cohomology(n, DivisorClass(a1, a2)).euler(),
                  f"n <= {n_max}, |a| <= {a_max}")


def _check_pieri_sums(n_max: int, e_max: int) -> tuple[bool, str]:
    span = range(e_max + 1)
    return _agree("pieri_decompose(n, A, B) dimension vs C(A + n, n) * C(B + n, n)",
                  product(range(1, n_max + 1), span, span),
                  lambda n, A, B: pieri_decompose(n, A, B).dimension(),
                  lambda n, A, B: binomial(A + n, n) * binomial(B + n, n),
                  f"n <= {n_max}, A, B <= {e_max}")


def _maps(n_list: list[int], k_max: int, e_max: int) -> list[tuple[int, int, int, int]]:
    """(n, k, A, B) of every map with n in n_list, k <= k_max, A <= e_max, k <= B <= e_max."""
    return [(n, k, A, B) for n in n_list for k in range(1, k_max + 1)
            for A in range(e_max + 1) for B in range(k, e_max + 1)]


def _check_euler_consistency(n_list: list[int], k_max: int, e_max: int) -> tuple[bool, str]:
    maps = _maps(n_list, k_max, e_max)
    return _agree("kernel - cokernel of predict_map_analysis(n, k, A, B) vs source - target",
                  maps,
                  lambda *case: sub(*_kernel_cokernel(predict_map_analysis(*case))),
                  lambda *case: sub(*source_target_dims(*case)), f"{len(maps)} maps")


def _check_engine_series(m_max: int) -> tuple[bool, str]:
    multiples = range(1, m_max + 1)
    predicted = {(n, k, a1, a2): kernel_series_rep(n, k, a1, a2, multiples)
                 for n in (1, 2) for k in (1, 2) for a1, a2 in ((1, 1), (2, 1), (1, 2))}
    operator = cache(special_fiber_operator)
    return _agree("(m, kernel, cokernel) rows of oracle_series vs kernel_series_rep(n, k, a1, a2)",
                  predicted,
                  lambda n, k, a1, a2: [(m, *_kernel_cokernel(r)) for m, r in
                                        oracle_series(operator(n, k), a1, a2, multiples)],
                  lambda *case: predicted[case],
                  f"{sum(map(len, predicted.values()))} multiples agree")


def _check_engine_grid(n_list: list[int], k_max: int, e_max: int) -> tuple[bool, str]:
    maps = _maps(n_list, k_max, e_max)
    operator = cache(special_fiber_operator)
    return _agree("(kernel, cokernel) of exact_rank vs predict_map_analysis(n, k, A, B)", maps,
                  lambda n, k, A, B: _kernel_cokernel(
                      exact_rank(build_matrix(operator(n, k), A, B))),
                  lambda *case: _kernel_cokernel(predict_map_analysis(*case)),
                  f"{len(maps)} maps agree exactly")


def _corner_kernels(terms: int, m_max: int) -> dict[int, int]:
    """Oracle kernel at each multiple m in [2, m_max] of the corner operator with `terms` terms."""
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    op = ContractionOperator(2, 1, tuple((1, e, e) for e in basis[:terms]))
    return {m: r.kernel_dim for m, r in oracle_series(op, 1, 1, range(2, m_max + 1))}


def _check_corner_closed_form(m_max: int) -> tuple[bool, str]:
    kernels = _corner_kernels(1, m_max)
    if list(kernels) != list(range(2, m_max + 1)):
        return False, f"series covers multiples {list(kernels)}, expected 2..{m_max}"
    ok, detail = _agree("one-term corner kernel(m) vs (m^3 - m)/2", [(m,) for m in kernels],
                        kernels.get, lambda m: (m**3 - m) // 2, "")
    if not ok:
        return ok, detail
    lead = fit_leading_coefficient([(m, kd) for m, kd in kernels.items() if m >= 4], 3)
    if lead != Fraction(1, 2):
        return False, f"leading coefficient {lead}, expected 1/2"
    return True, f"m in [2, {m_max}], leading coefficient 1/2"


def _check_corner_lower_bound(m_max: int) -> tuple[bool, str]:
    # != fails both a kernel below the bound and one above it (a gap)
    kernels = _corner_kernels(2, m_max)
    return _agree("two-term corner kernel(m) vs its bound sum_{j < m - 1} C(m + 1 - j, 2)",
                  [(m,) for m in kernels], kernels.get,
                  lambda m: sum(binomial(2 + (m - 1 - j), 2) for j in range(m - 1)),
                  f"m in [2, {m_max}]; the displayed sum is the exact kernel")


def _check_purity_scan(k_max: int, a_max: int) -> tuple[bool, str]:
    grid = [(a1, a2) for a1 in range(a_max + 1) for a2 in range(a_max + 1)]
    for k in range(1, k_max + 1):
        bad = [pair for pair, _, vec in purity_report(2, k, grid) if vec.purity.kind == "impure"]
        if bad:
            return False, f"impure verdicts at k={k}: {bad}"
    return True, f"k <= {k_max}, a1, a2 in [0, {a_max}]"


def _window(n: int, k: int, a1: int, a2: int) -> range:
    """The 2n + 3 multiples from stable_start(n, k, a1, a2) on which verify fits a series."""
    start = stable_start(n, k, a1, a2)
    return range(start, start + 2 * n + 3)


def _check_series_polynomials(n_max: int, k_max: int, a_max: int) -> tuple[bool, str]:
    # the prediction's kernel and cokernel polynomials against its rows at 2n + 3
    # multiples, then their top coefficients against the closed form that scan
    # reads its mixed h-hat values off
    classes = list(product(range(1, n_max + 1), range(1, k_max + 1),
                           range(1, a_max + 1), range(1, a_max + 1)))
    polynomials = {case: series_polynomials(*case) for case in classes}

    def evaluated(*case):
        return [(m, *(sum(c * m**i for i, c in enumerate(poly)) for poly in polynomials[case]))
                for m in _window(*case)]

    def predicted(*case):
        scale = factorial(2 * case[0] - 1)
        return [(m, kd * scale, cd * scale) for m, kd, cd in kernel_series_rep(*case, _window(*case))]

    ok, detail = _agree("series_polynomials(n, k, a1, a2) at 2n + 3 multiples from stable_start "
                        "vs (2n-1)! * kernel_series_rep rows", classes, evaluated, predicted, "")
    if not ok:
        return ok, detail
    return _agree("top coefficients of series_polynomials(n, k, a1, a2) vs "
                  "asymptotic_special_fiber(n, k, a1, a2).values[n-1:n+1]", classes,
                  lambda *case: tuple(poly[-1] for poly in polynomials[case]),
                  lambda n, *rest: asymptotic_special_fiber(n, *rest).values[n - 1:n + 1],
                  f"{len(classes)} classes, n <= {n_max}, k <= {k_max}, a1, a2 <= {a_max}")


def _check_intersection_numbers(n_max: int, k_max: int, a_max: int) -> tuple[bool, str]:
    # chi(O_Y(mD)) does not depend on the form, so its leading term is (D|_Y)^(2n-1):
    # an identity for the purity scan's classes that uses no Weyl dimension.  Only
    # n = 1 has nonzero boundary values (k*a1 and k*a2), so the walk starts there
    grid = [(a1, a2) for a1 in range(a_max + 1) for a2 in range(a_max + 1)]
    alternating = {(n, k, *pair): sum((-1) ** i * v for i, v in enumerate(vec.values))
                   for n in range(1, n_max + 1) for k in range(1, k_max + 1)
                   for pair, _, vec in purity_report(n, k, grid)}
    return _agree("sum_i (-1)^i h-hat^i of purity_report(n, k, [(a1, a2)]) vs "
                  "intersection_number(n, k, k, a1, a2)", alternating,
                  lambda *case: alternating[case],
                  lambda n, k, a1, a2: intersection_number(n, k, k, a1, a2),
                  f"n <= {n_max}, k <= {k_max}, a1, a2 in [0, {a_max}]")


def _check_riemann_roch_fits(n_max: int, k_max: int, a_max: int) -> tuple[bool, str]:
    # the one-index closed forms against fits from m = 1, where both series are
    # polynomial: chi(O(d)) = C(d + n, n) at every d, and h^0, h^n on their bands
    def fitted(degree, values):
        # no fit gives a string, which no closed form equals, so _agree names the case
        try:
            return int(fit_leading_coefficient([*enumerate(values, 1)], degree) * factorial(degree))
        except SeriesNotStabilized:
            return f"no polynomial of degree {degree} on m in [1, {len(values)}]"

    def euler(n, k, a1, a2):
        return fitted(2 * n - 1, [euler_characteristic(n, DivisorClass(m * a1, -m * a2))
                                  - euler_characteristic(n, DivisorClass(m * a1 - k, -m * a2 - k))
                                  for m in range(1, 2 * n + 3)])

    def kunneth(n, a1, a2):
        rows = [kunneth_cohomology(n, m * DivisorClass(a1, a2)).values for m in range(1, 2 * n + 4)]
        return tuple(fitted(2 * n, column) for column in zip(*rows))

    fiber = product(range(1, n_max + 1), range(1, k_max + 1), range(a_max + 1), range(a_max + 1))
    ok, detail = _agree("fitted (2n-1)-th difference of chi(mD) - chi(mD - Y) vs "
                        "intersection_number(n, k, k, a1, a2)", fiber, euler,
                        lambda n, k, a1, a2: intersection_number(n, k, k, a1, a2), "")
    if not ok:
        return ok, detail
    span = range(-a_max, a_max + 1)
    return _agree("fitted 2n-th differences of kunneth_cohomology(n, m * (a1, a2)) vs "
                  "asymptotic_product(n, (a1, a2))", product(range(1, n_max + 1), span, span),
                  kunneth, lambda n, a1, a2: asymptotic_product(n, DivisorClass(a1, a2)).values,
                  f"n <= {n_max}; k <= {k_max}, a1, a2 in [0, {a_max}] on the fiber; "
                  f"|a1|, |a2| <= {a_max} on P^n x P^n")


def _check_growth_degrees(n: int, pairs: list[tuple[int, int]]) -> tuple[bool, str]:
    # Prediction-only growth laws at k = 1, 2: the kernel (a1 > a2) or cokernel
    # (a1 < a2) grows in degree 2n - 1, the other side is zero; for a1 = a2 neither.
    for k in (1, 2):
        for a1, a2 in pairs:
            # a sampled fit over 2n + 3 multiples: independent of the series
            # polynomials and of the mixed closed form
            rows = kernel_series_rep(n, k, a1, a2, _window(n, k, a1, a2))
            for side, series in (
                ("kernel", [(m, kd) for m, kd, _ in rows]),
                ("cokernel", [(m, cd) for m, _, cd in rows]),
            ):
                lead = fit_leading_coefficient(series, 2 * n - 1)
                if a1 == a2:
                    if lead != 0:
                        return False, f"{side} degree too high at k={k}, ({a1}, {a2})"
                elif (side == "kernel") != (a1 > a2):
                    if any(value for _, value in series):
                        return False, f"{side} is not zero at k={k}, ({a1}, {a2})"
                elif lead <= 0:
                    return False, f"{side} does not grow at k={k}, ({a1}, {a2})"
    return True, f"n = {n} prediction-only growth laws"


def _check_weyl_goldens() -> tuple[bool, str]:
    return _agree("weyl_dimension(n, (l1, l2)) vs golden", _WEYL_GOLDENS,
                  lambda n, label: weyl_dimension(n, IrrepLabel(*label)),
                  lambda *case: _WEYL_GOLDENS[case], f"{len(_WEYL_GOLDENS)} spot values")


# Each check once, in run order: name, function, its arguments in the small
# suite and in the full suite (None: the check is not in that suite).
_CHECKS = (
    ("bott goldens", _check_bott_goldens, (), ()),
    ("Serre duality", _check_serre_duality, (3, 12), (5, 30)),
    ("Kunneth duality", _check_kunneth_duality, (2, 8), (3, 10)),
    ("Weyl goldens", _check_weyl_goldens, (), ()),
    ("Pieri dimension sums", _check_pieri_sums, (2, 12), (4, 30)),
    ("Euler consistency", _check_euler_consistency, ([1, 2], 2, 8), ([1, 2, 3], 2, 12)),
    ("Euler vs Kunneth", _check_euler_kunneth, (2, 8), (4, 20)),
    ("engine equivalence (series)", _check_engine_series, (8,), (12,)),
    ("engine equivalence (grid)", _check_engine_grid, None, ([1, 2], 2, 12)),
    ("corner closed form", _check_corner_closed_form, (8,), (12,)),
    ("corner lower bound", _check_corner_lower_bound, (8,), (10,)),
    ("purity scan", _check_purity_scan, (1, 3), (2, 5)),
    ("series polynomial vs prediction", _check_series_polynomials, (2, 2, 4), (4, 3, 6)),
    ("intersection numbers", _check_intersection_numbers, (2, 1, 3), (3, 2, 5)),
    ("Riemann-Roch fits", _check_riemann_roch_fits, (2, 2, 4), (4, 3, 6)),
    ("rank-3 prediction identities", _check_growth_degrees,
     None, (3, [(2, 1), (1, 2), (1, 1)])),
)


def build_suite(suite: str) -> list[Check]:
    if suite not in ("small", "full"):
        raise ValueError(f"unknown suite {suite!r}; expected 'small' or 'full'")
    checks: list[Check] = []
    for name, check, small, full in _CHECKS:
        args = small if suite == "small" else full
        if args is not None:
            checks.append((name, partial(check, *args)))
    return checks


def run_suite(suite: str) -> int:
    """Run all checks, print one line per check, return the failure count.

    With DEBUG on, each check also logs one record with its name and elapsed
    seconds as the fields check and elapsed_s.
    """
    failures = 0
    for name, check in build_suite(suite):
        start = perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if logger.isEnabledFor(logging.DEBUG):
            elapsed = perf_counter() - start
            logger.debug("%s took %.3f s", name, elapsed,
                         extra={"check": name, "elapsed_s": elapsed})
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} - {name}: {detail}")
    return failures
