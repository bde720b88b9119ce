"""Cross-check suite: the two engines against each other and against closed forms.

Each check returns (ok, detail) and the runner prints one PASS/FAIL line per
check.  The small suite keeps n <= 2, k <= 2, m <= 8 and finishes in well
under a minute; the full suite extends to m <= 12, the complete exponent
grid, and rank-3 prediction-only identities.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Callable

from .asymptotics import fit_leading_coefficient, purity_report, stable_start
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
    kunneth_cohomology,
    source_target_dims,
)
from .reptheory import (
    IrrepLabel,
    kernel_series_rep,
    pieri_decompose,
    predict_map_analysis,
    weyl_dimension,
)

Check = tuple[str, Callable[[], tuple[bool, str]]]


def _check_bott_goldens() -> tuple[bool, str]:
    cases = [
        (2, 3, (10, 0, 0)),
        (2, -1, (0, 0, 0)),
        (2, -4, (0, 0, 3)),
        (3, 0, (1, 0, 0, 0)),
    ]
    for n, d, expected in cases:
        got = bott_cohomology(n, d).values
        if got != expected:
            return False, f"bott({n}, {d}) = {got}, expected {expected}"
    return True, f"{len(cases)} spot values"


def _check_serre_duality(n_max: int, d_max: int) -> tuple[bool, str]:
    for n in range(1, n_max + 1):
        for d in range(-d_max, d_max + 1):
            lhs = bott_cohomology(n, d).values
            rhs = bott_cohomology(n, -d - n - 1).values
            if lhs != tuple(reversed(rhs)):
                return False, f"duality fails at n={n}, d={d}"
    return True, f"n <= {n_max}, |d| <= {d_max}"


def _check_kunneth_duality(n_max: int, a_max: int) -> tuple[bool, str]:
    for n in range(1, n_max + 1):
        for a1 in range(-a_max, a_max + 1):
            for a2 in range(-a_max, a_max + 1):
                lhs = kunneth_cohomology(n, DivisorClass(a1, a2)).values
                dual = DivisorClass(-a1 - n - 1, -a2 - n - 1)
                rhs = kunneth_cohomology(n, dual).values
                if lhs != tuple(reversed(rhs)):
                    return False, f"duality fails at n={n}, ({a1}, {a2})"
    return True, f"n <= {n_max}, |a| <= {a_max}"


def _check_pieri_sums(n_max: int, e_max: int) -> tuple[bool, str]:
    for n in range(1, n_max + 1):
        for A in range(e_max + 1):
            for B in range(e_max + 1):
                total = pieri_decompose(n, A, B).dimension()
                expected = binomial(A + n, n) * binomial(B + n, n)
                if total != expected:
                    return False, f"dimension sum fails at n={n}, A={A}, B={B}"
    return True, f"n <= {n_max}, A, B <= {e_max}"


def _check_euler_consistency(n_list: list[int], k_max: int, e_max: int) -> tuple[bool, str]:
    count = 0
    for n in n_list:
        for k in range(1, k_max + 1):
            for A in range(e_max + 1):
                for B in range(k, e_max + 1):
                    analysis = predict_map_analysis(n, k, A, B)
                    src, tgt = source_target_dims(n, k, A, B)
                    if analysis.kernel_dim - analysis.cokernel_dim != src - tgt:
                        return False, f"Euler mismatch at n={n}, k={k}, A={A}, B={B}"
                    count += 1
    return True, f"{count} maps"


def _check_engine_series(m_max: int) -> tuple[bool, str]:
    count = 0
    multiples = range(1, m_max + 1)
    for n in (1, 2):
        for k in (1, 2):
            op = special_fiber_operator(n, k)
            for a1, a2 in ((1, 1), (2, 1), (1, 2)):
                oracle_rows = [(m, r.kernel_dim, r.cokernel_dim)
                               for m, r in oracle_series(op, a1, a2, multiples)]
                rep_rows = kernel_series_rep(n, k, a1, a2, multiples)
                if oracle_rows != rep_rows:
                    got, want = next(p for p in zip_longest(oracle_rows, rep_rows) if p[0] != p[1])
                    return False, (f"engines disagree at n={n}, k={k}, ({a1}, {a2}): "
                                   f"oracle row {got}, predicted row {want}")
                count += len(rep_rows)
    return True, f"{count} multiples agree"


def _check_engine_grid(n_list: list[int], k_max: int, e_max: int) -> tuple[bool, str]:
    count = 0
    for n in n_list:
        for k in range(1, k_max + 1):
            op = special_fiber_operator(n, k)
            for A in range(e_max + 1):
                for B in range(k, e_max + 1):
                    analysis = predict_map_analysis(n, k, A, B)
                    result = exact_rank(build_matrix(op, A, B))
                    if (result.kernel_dim, result.cokernel_dim) != (
                        analysis.kernel_dim,
                        analysis.cokernel_dim,
                    ):
                        return (
                            False,
                            f"engines disagree at n={n}, k={k}, A={A}, B={B}",
                        )
                    count += 1
    return True, f"{count} maps agree exactly"


def _corner_operator(terms: int) -> ContractionOperator:
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return ContractionOperator(
        2, 1, tuple((1, e, e) for e in basis[:terms])
    )


def _check_corner_closed_form(m_max: int) -> tuple[bool, str]:
    rows = oracle_series(_corner_operator(1), 1, 1, range(2, m_max + 1))
    multiples = [m for m, _ in rows]
    if multiples != list(range(2, m_max + 1)):
        return False, f"series covers multiples {multiples}, expected 2..{m_max}"
    for m, result in rows:
        expected = (m**3 - m) // 2
        if result.kernel_dim != expected:
            return False, f"kernel at m={m} is {result.kernel_dim}, expected {expected}"
    fit_rows = [(m, r.kernel_dim) for m, r in rows if m >= 4]
    lead = fit_leading_coefficient(fit_rows, 3)
    if lead != Fraction(1, 2):
        return False, f"leading coefficient {lead}, expected 1/2"
    return True, f"m in [2, {m_max}], leading coefficient 1/2"


def _check_corner_lower_bound(m_max: int) -> tuple[bool, str]:
    rows = oracle_series(_corner_operator(2), 1, 1, range(2, m_max + 1))
    for m, result in rows:
        bound = sum(binomial(2 + (m - 1 - j), 2) for j in range(m - 1))
        if result.kernel_dim < bound:
            return False, f"kernel at m={m} is {result.kernel_dim} < bound {bound}"
        if result.kernel_dim != bound:
            return False, f"kernel at m={m} is {result.kernel_dim}, bound {bound} (gap!)"
    return True, f"m in [2, {m_max}]; the displayed sum is the exact kernel"


def _check_purity_scan(k_max: int, a_max: int) -> tuple[bool, str]:
    grid = [(a1, a2) for a1 in range(a_max + 1) for a2 in range(a_max + 1)]
    for k in range(1, k_max + 1):
        records = purity_report(2, k, grid)
        bad = [
            (d.a1, -d.a2)
            for d, _, vec in records
            if vec.purity.kind == "impure"
        ]
        if bad:
            return False, f"impure verdicts at k={k}: {bad}"
    return True, f"k <= {k_max}, a1, a2 in [0, {a_max}]"


def _check_growth_degrees(n: int, pairs: list[tuple[int, int]]) -> tuple[bool, str]:
    # Prediction-only growth laws at k = 1, 2: the kernel (a1 > a2) or cokernel
    # (a1 < a2) grows in degree 2n - 1, the other side is zero; for a1 = a2 neither.
    for k in (1, 2):
        for a1, a2 in pairs:
            start = stable_start(n, k, a1, a2)
            # one multiple wider than asymptotics._window and fitted here, so it checks that fit
            rows = kernel_series_rep(n, k, a1, a2, range(start, start + 2 * n + 3))
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
    cases = [
        (2, (1, 0), 3),
        (3, (1, 1), 6),
        (2, (9, 3), 154),
        (1, (3, 0), 4),
    ]
    for n, (l1, l2), expected in cases:
        got = weyl_dimension(n, IrrepLabel(l1, l2))
        if got != expected:
            return False, f"weyl({n}, ({l1}, {l2})) = {got}, expected {expected}"
    return True, f"{len(cases)} spot values"


# Each check once, in run order: name, function, its arguments in the small
# suite and in the full suite (None: the check is not in that suite).
_CHECKS = (
    ("bott goldens", _check_bott_goldens, (), ()),
    ("Serre duality", _check_serre_duality, (3, 12), (5, 30)),
    ("Kunneth duality", _check_kunneth_duality, (2, 8), (3, 10)),
    ("Weyl goldens", _check_weyl_goldens, (), ()),
    ("Pieri dimension sums", _check_pieri_sums, (2, 12), (4, 30)),
    ("Euler consistency", _check_euler_consistency, ([1, 2], 2, 8), ([1, 2, 3], 2, 12)),
    ("engine equivalence (series)", _check_engine_series, (8,), (12,)),
    ("engine equivalence (grid)", _check_engine_grid, None, ([1, 2], 2, 12)),
    ("corner closed form", _check_corner_closed_form, (8,), (12,)),
    ("corner lower bound", _check_corner_lower_bound, (8,), (10,)),
    ("purity scan", _check_purity_scan, (1, 3), (2, 5)),
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
    """Run all checks, print one line per check, return the failure count."""
    failures = 0
    for name, check in build_suite(suite):
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} - {name}: {detail}")
    return failures
