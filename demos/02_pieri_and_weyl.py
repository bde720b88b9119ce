"""Walkthrough: the representation-theoretic engine.

Sym^A (x) Sym^B splits into two-row SL(n+1) irreducibles with multiplicity
one (Pieri), and the equivariant contraction map (sum_i x_i (x) d_i)^k
either keeps a component or kills it.  The kernel/cokernel prediction is a
multiset difference of index ranges -- no linear algebra at all.
"""

from asympure import (
    binomial,
    kernel_series_rep,
    pieri_decompose,
    predict_map_analysis,
    weyl_dimension,
)

print("=== Pieri decomposition of Sym^9 (x) Sym^3 for SL(3) ===")
dec = pieri_decompose(2, 9, 3)
for c in dec.components:
    print(f"  ({c.lambda1}, {c.lambda2})  dim {weyl_dimension(2, c)}")
total = dec.dimension()
print(f"  total {total} = C(11,2) * C(5,2) = {binomial(11, 2) * binomial(5, 2)}\n")

print("=== The contraction Sym^9 (x) Sym^3 -> Sym^10 (x) Sym^2 (n=2, k=1) ===")
analysis = predict_map_analysis(2, 1, 9, 3)
print(f"  source components: i = 0..3, target components: i = 0..2")
print(f"  kernel labels {[(c.lambda1, c.lambda2) for c in analysis.kernel_labels]}"
      f" -> kernel_dim {analysis.kernel_dim}")
print(f"  cokernel_dim {analysis.cokernel_dim}")
print("  The prediction takes the shared components i = 0, 1, 2 to map")
print("  isomorphically (by Schur they map isomorphically or to zero); the")
print("  exact-rank oracle in demo 03 checks that.\n")

print("=== The reverse imbalance gives a cokernel instead ===")
analysis = predict_map_analysis(2, 1, 2, 4)
print(f"  Sym^2 (x) Sym^4 -> Sym^3 (x) Sym^3: kernel {analysis.kernel_dim}, "
      f"cokernel {analysis.cokernel_dim} "
      f"(label {[(c.lambda1, c.lambda2) for c in analysis.cokernel_labels]})\n")

print("=== Kernel series along the divisor schedule ===")
print("divisor a1*H1 - a2*H2 with (a1, a2) = (2, 1), n = 2, k = 1:")
for m, kernel, cokernel in kernel_series_rep(2, 1, 2, 1, range(3, 10)):
    print(f"  m = {m}: kernel {kernel}, cokernel {cokernel}")
print("The kernel grows like m^3 (one new component per multiple), the")
print("cokernel is identically zero: exactly one middle index survives.")
