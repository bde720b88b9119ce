"""Walkthrough: asymptotic cohomology values and the purity scan.

h-hat^i(D) normalizes h^i(mD) by m^dim/dim!.  On the product space the
surviving index and its exact value follow the sign pattern; restricted to
the bidegree-(k, k) special fiber, the middle indices n-1 and n compete,
and at most one of them survives -- that is asymptotic purity.
"""

from asympure import (
    DivisorClass,
    asymptotic_product,
    asymptotic_special_fiber,
    purity_report,
)
from asympure.cli import main

print("=== On P^2 x P^2 itself ===")
for a1, a2 in [(1, 1), (1, -1), (3, -2), (-1, -1), (0, 5)]:
    vec = asymptotic_product(2, DivisorClass(a1, a2))
    nonzero = {i: str(v) for i, v in enumerate(vec.values) if v}
    print(f"  D = ({a1:>2}, {a2:>2}): {nonzero or 'all zero'}   [{vec.purity}]")
print("Mixed classes concentrate in the middle index n with value")
print("C(2n,n) * |a1|^n * |a2|^n; one zero coefficient kills everything.\n")

print("=== Restricted to the special fiber (n = 2, k = 1) ===")
for a1, a2 in [(2, 1), (1, 1), (1, 2), (3, 1), (1, 0), (0, 1)]:
    vec = asymptotic_special_fiber(2, 1, a1, a2)
    nonzero = {i: str(v) for i, v in enumerate(vec.values) if v}
    print(f"  D = {a1}*H1 - {a2}*H2: {nonzero or 'all zero'}   [{vec.purity}]")
print("The kernel side (index n-1) wins for a1 > a2, the cokernel side")
print("(index n) for a1 < a2, and the balanced case vanishes entirely.\n")

print("=== Full purity grid, k = 1 and k = 2 ===")
grid = [(a1, a2) for a1 in range(5) for a2 in range(5)]
for k in (1, 2):
    records = purity_report(2, k, grid)
    verdicts = {}
    for _, _, vec in records:
        verdicts[str(vec.purity)] = verdicts.get(str(vec.purity), 0) + 1
    impure = [pair for pair, _, vec in records if vec.purity.kind == "impure"]
    if impure:
        raise SystemExit(f"impure verdicts at k = {k}: {impure}")
    print(f"  k = {k}: {len(records)} classes, verdicts {verdicts}")
print("Every verdict is pure or pure_zero: the purity statement holds on")
print("the whole grid.\n")

print("=== The same grid as CSV (what `asympure scan` writes) ===")
# the scan command itself, so the CSV schema has one home: cli.cmd_scan
raise SystemExit(main(["scan", "--n", "2", "--k", "1", "--a1", "0..2", "--a2", "0..2",
                       "--format", "csv"]))
