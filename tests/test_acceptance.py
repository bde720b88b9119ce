"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints a single PASS line (with its runtime) once its criterion
holds at the stated tolerance; all tolerances here are zero -- the values
are exact integers and rationals.  Runtime budgets are asserted as part of
the criteria.  Where `asympure verify` runs the same check, the test calls
that check function from asympure.verify with the criterion's ranges, so
each check is written once.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

from asympure import (
    DivisorClass,
    asymptotic_product,
    build_matrix,
    classify,
    exact_rank,
    special_fiber_operator,
)
from asympure.verify import (
    _check_corner_closed_form,
    _check_corner_lower_bound,
    _check_engine_grid,
    _check_growth_degrees,
    _check_kunneth_duality,
    _check_pieri_sums,
    _check_purity_scan,
    _check_serre_duality,
)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"PASS ({elapsed:.1f}s) - {self.name}")
        else:
            print(f"FAIL ({elapsed:.1f}s) - {self.name}")
        return False


def test_criterion_1_corner_closed_form():
    with _Budget("criterion 1: one-term corner kernel is (m^3-m)/2 on m in [2,12]", 30):
        ok, detail = _check_corner_closed_form(12)
        assert ok, detail


def test_criterion_2_corner_lower_bound():
    with _Budget("criterion 2: two-term corner kernel meets the binomial sum on m in [2,10]", 60):
        # the recorded golden: the displayed sum is the exact kernel (no gap)
        ok, detail = _check_corner_lower_bound(10)
        assert ok, detail


def test_criterion_3_engine_equivalence():
    with _Budget("criterion 3: engines agree for n,k <= 2 and A,B <= 12", 300):
        ok, detail = _check_engine_grid([1, 2], 2, 12)
        assert ok, detail
        assert detail == "598 maps agree exactly"


def test_criterion_4_growth_orders():
    with _Budget("criterion 4: kernel/cokernel growth degrees match the case split", 30):
        ok, detail = _check_growth_degrees(2, [(2, 1), (3, 1), (1, 2), (1, 3), (1, 1), (2, 2)])
        assert ok, detail


def test_criterion_5_purity_scan():
    with _Budget("criterion 5: purity scan over k <= 2, a1,a2 in [0,5]", 60):
        ok, detail = _check_purity_scan(2, 5)
        assert ok, detail


def test_criterion_6_classification():
    with _Budget("criterion 6: sign-case classification on the 9x9 grid, n in [1,4]", 1):
        for n in range(1, 5):
            for a1 in range(-4, 5):
                for a2 in range(-4, 5):
                    allowed = classify(n, DivisorClass(a1, a2)).allowed_indices
                    if a1 > 0 and a2 > 0:
                        assert allowed == {0}
                    elif a1 < 0 and a2 < 0:
                        assert allowed == {2 * n - 1}
                    elif a1 * a2 < 0:
                        assert allowed == {n - 1, n}
                    elif (a1 + a2) >= 0:  # boundary classes inherit by sign
                        assert allowed == {0}
                    else:
                        assert allowed == {2 * n - 1}


def test_criterion_7_structural_identities():
    with _Budget("criterion 7: structural identities", 30):
        for ok, detail in (
            _check_pieri_sums(4, 30),  # Pieri dimension sums, n <= 4, A, B <= 30
            _check_serre_duality(5, 30),  # Serre duality on P^n, n <= 5, |d| <= 30
            _check_kunneth_duality(3, 6),  # Kunneth duality, n <= 3, |a1|, |a2| <= 6
        ):
            assert ok, detail
        # homogeneity of the product asymptotics
        for n in (1, 2):
            for a1, a2 in ((1, -2), (2, 3), (-1, -1)):
                base = asymptotic_product(n, DivisorClass(a1, a2))
                for lam in (1, 2, 3, 4):
                    scaled = asymptotic_product(n, lam * DivisorClass(a1, a2))
                    assert scaled.values == tuple(
                        lam ** (2 * n) * v for v in base.values
                    )
        # rank-nullity on oracle runs
        op = special_fiber_operator(2, 1)
        for A, B in ((0, 1), (3, 2), (5, 5), (2, 7)):
            result = exact_rank(build_matrix(op, A, B))
            assert result.kernel_dim + result.rank == result.dim_source
            assert result.cokernel_dim + result.rank == result.dim_target
            assert result.rank <= min(result.dim_source, result.dim_target)
